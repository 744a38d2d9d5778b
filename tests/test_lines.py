import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzgeo as fg

coords = st.floats(min_value=-20, max_value=20, allow_nan=False)


def ex22_line():
    # the line x - 2y = 1 through (1,0) and (5,2)
    return fg.LineSpec(1, -2, 1)


class TestLineSpec:
    def test_contains_is_absolute_near_origin(self):
        # terms below 1 in size keep the absolute tolerance 1e-9
        line = ex22_line()
        for d, inside in ((0.9e-9, True), (1.1e-9, False)):
            # the point (1, 0) moved d along the unit normal (a, b)
            assert line.contains(fg.Point2(1.0 + d * line.a, d * line.b)) is inside

    def test_contains_scales_with_distance_from_origin(self):
        line = fg.LineSpec.through_points(fg.Point2(1.3e7, 7e6), fg.Point2(-9e6, 2.1e7))
        for t in (0.0, 0.5, 1.0, 3.0):
            assert line.contains(fg.Point2(1.3e7 - t * 2.2e7, 7e6 + t * 1.4e7))
        assert not line.contains(fg.Point2(1.3e7 + 0.1 * line.a, 7e6 + 0.1 * line.b))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fg.LineSpec(0, 0, 1)

    def test_foot_lies_on_line(self):
        line = ex22_line()
        assert line.contains(line.foot)
        # the foot is the perpendicular projection of the origin
        assert line.foot.x == pytest.approx(0.2, abs=1e-12)
        assert line.foot.y == pytest.approx(-0.4, abs=1e-12)

    def test_elevation_angle(self):
        assert ex22_line().theta == pytest.approx(0.46364760900081, abs=1e-12)
        assert fg.LineSpec(0, 1, 0).theta == 0.0
        assert fg.LineSpec(1, 0, 2).theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_scaling_invariance(self):
        assert fg.LineSpec(2, -4, 2) == ex22_line()
        assert fg.LineSpec(-1, 2, -1) == ex22_line()


class TestTransform:
    def test_identity_line(self):
        line = fg.LineSpec(0, 1, 0)  # y = 0
        assert line.to_line_coords(fg.Point2(3, 0)) == pytest.approx((3.0, 0.0))

    def test_reference_core_coordinates(self):
        line = ex22_line()
        s_a, n_a = line.to_line_coords(fg.Point2(1, 0))
        s_b, n_b = line.to_line_coords(fg.Point2(5, 2))
        assert s_a == pytest.approx(1.118033989, abs=1e-9)
        assert n_a == pytest.approx(0.0, abs=1e-12)
        assert s_b == pytest.approx(5.59016994, abs=1e-8)
        assert n_b == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(coords, coords, coords, coords, coords, coords, coords)
    # the line lies 8.5e6 from both points: s and n of each are about 8.5e6,
    # whose ulp (1.9e-9) alone exceeds 1e-9
    @example(a=1e-6, b=1e-6, c=12.0, px=0.0, py=0.0, qx=1.0, qy=0.0)
    def test_isometry(self, a, b, c, px, py, qx, qy):
        if abs(a) + abs(b) < 1e-6:
            return
        line = fg.LineSpec(a, b, c)
        p, q = fg.Point2(px, py), fg.Point2(qx, qy)
        sp = line.to_line_coords(p)
        sq = line.to_line_coords(q)
        # each step rounds to a few ulps of the largest magnitude it handles
        tol = 1e-9 + 4 * math.ulp(max(*map(abs, sp), *map(abs, sq), *map(abs, line.anchor)))
        assert math.hypot(sp[0] - sq[0], sp[1] - sq[1]) == pytest.approx(
            p.distance_to(q), abs=tol)

    @settings(max_examples=100, deadline=None)
    @given(coords, coords, coords, coords, coords)
    # c / a = 1.7e7: the offset n and the anchor are far larger than p, and
    # the ulp of n (3.7e-9) alone exceeds 1e-9
    @example(a=1e-6, b=0.0, c=17.0, px=1e-6, py=0.0)
    def test_round_trip(self, a, b, c, px, py):
        if abs(a) + abs(b) < 1e-6:
            return
        line = fg.LineSpec(a, b, c)
        p = fg.Point2(px, py)
        s, n = line.to_line_coords(p)
        back = line.from_line_coords(s, n)
        # each step rounds to a few ulps of the largest magnitude it handles
        tol = 1e-9 + 4 * math.ulp(max(abs(s), abs(n), *map(abs, line.anchor)))
        assert back.x == pytest.approx(p.x, abs=tol)
        assert back.y == pytest.approx(p.y, abs=tol)


class TestProjection:
    def test_reference_triples(self):
        line = ex22_line()
        pa = fg.project_onto_line(fg.FuzzyPoint.circular(1, 0, 1), line)
        pb = fg.project_onto_line(fg.FuzzyPoint.elliptical(5, 2, 1, 1.5), line)
        assert pa.summary.almost_equals(
            fg.TriangularTriple(0.118033989, 1.118033989, 2.118033989), tol=1e-9)
        assert pb.summary.almost_equals(
            fg.TriangularTriple(4.472135955, 5.59016994, 6.708203932), tol=1e-8)

    def test_line_must_pass_through_core(self):
        with pytest.raises(ValueError):
            fg.project_onto_line(fg.FuzzyPoint.circular(0, 1, 1), fg.LineSpec(0, 1, 0))

    def test_circular_projection_independent_of_angle(self, rng):
        p = fg.FuzzyPoint.circular(2, -1, 0.75)
        for psi in np.linspace(0, np.pi, 9, endpoint=False):
            line = fg.LineSpec.through_point_angle(p.core, float(psi))
            proj = fg.project_onto_line(p, line)
            s0 = line.to_line_coords(p.core)[0]
            assert proj.summary.almost_equals(
                fg.TriangularTriple(s0 - 0.75, s0, s0 + 0.75), tol=1e-9)

    def test_cut_halfwidth_shrinks_linearly(self):
        p = fg.FuzzyPoint.elliptical(0, 0, 1, 2)
        line = fg.LineSpec.through_point_angle(p.core, 0.7)
        proj = fg.project_onto_line(p, line)
        lo0, hi0 = proj.cut(0.0)
        lo5, hi5 = proj.cut(0.5)
        assert (hi5 - lo5) == pytest.approx(0.5 * (hi0 - lo0), abs=1e-12)


class TestClassifyPair:
    def setup_method(self):
        self.a = fg.FuzzyPoint.circular(0, 0, 1)
        self.b = fg.FuzzyPoint.circular(5, 0, 1)

    def test_same_points(self):
        tag = fg.classify_pair(self.a, fg.Point2(0, 0.5), self.b, fg.Point2(5, 0.5))
        assert tag == "same"

    def test_inverse_points(self):
        tag = fg.classify_pair(self.a, fg.Point2(0, 0.5), self.b, fg.Point2(5, -0.5))
        assert tag == "inverse"

    def test_unequal_grades(self):
        tag = fg.classify_pair(self.a, fg.Point2(0, 0.5), self.b, fg.Point2(5, 0.2))
        assert tag == "neither"

    def test_nonparallel_offsets(self):
        tag = fg.classify_pair(self.a, fg.Point2(0, 0.5), self.b, fg.Point2(5.5, 0))
        assert tag == "neither"

    def test_collinear_offsets_use_direction(self):
        # boundary points along the core line: opposite directions are the
        # inverse points used by the distance construction
        tag = fg.classify_pair(self.a, fg.Point2(0.5, 0), self.b, fg.Point2(4.5, 0))
        assert tag == "inverse"
        tag = fg.classify_pair(self.a, fg.Point2(0.5, 0), self.b, fg.Point2(5.5, 0))
        assert tag == "same"

    def test_point_outside_support_rejected(self):
        with pytest.raises(ValueError):
            fg.classify_pair(self.a, fg.Point2(0, 2), self.b, fg.Point2(5, 0.5))
