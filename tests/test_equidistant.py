import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fuzgeo as fg
from fuzgeo import Branch, OverlapCase
from oracles import (branch_residuals, equidistant_membership_reference,
                     invariance_reference, midset_crossing_cells, random_circular,
                     sample_branch_reference)
from scipy.spatial import cKDTree

# the six configurations of the overlap-case table, one per row
TABLE_CONFIGS = {
    "non_overlapping": ((0, 0, 1), (5, 0, 2)),
    "externally_tangent": ((0, 0, 1), (3, 0, 2)),
    "partially_overlapping": ((0, 0, 1), (2, 0, 2)),
    "internally_tangent": ((0, 0, 1), (2, 0, 3)),
    "fully_overlapping": ((0, 0, 2), (1, 0, 4)),
    "concentric": ((0, 0, 1), (0, 0, 2)),
}


def make_pair(config):
    (x1, y1, r1), (x2, y2, r2) = config
    return fg.FuzzyPoint.circular(x1, y1, r1), fg.FuzzyPoint.circular(x2, y2, r2)


def reference_hyperbola_residual(x, y, alpha):
    # the (0,0,r=1)/(5,0,r=2) midset: (2x-5)^2/u^2 - 4y^2/(25-u^2) = 1
    u = 1.0 - alpha
    return (2 * x - 5) ** 2 / u ** 2 - 4 * y ** 2 / (25 - u ** 2) - 1.0


class TestBranchResidual:
    def test_equal_spreads_bisector(self, ex41_pair):
        a, b = ex41_pair
        for alpha in (0.0, 0.3, 0.9):
            res = fg.branch_residual(fg.Point2(2.5, 1.0), a, b, alpha, Branch.INVERSE)
            assert res == pytest.approx(0.0, abs=1e-12)

    def test_axis_solution(self, ex42_pair):
        a, b = ex42_pair
        assert fg.branch_residual(fg.Point2(2, 0), a, b, 0.0, Branch.INVERSE) \
            == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_point_not_zero(self, ex42_pair):
        # (3,0) solves the conjugate equation, not the midset
        a, b = ex42_pair
        assert fg.branch_residual(fg.Point2(3, 0), a, b, 0.0, Branch.INVERSE) \
            == pytest.approx(2.0, abs=1e-12)

    def test_elliptical_focal_points_rejected(self):
        a = fg.FuzzyPoint.elliptical(0, 0, 1, 2)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        with pytest.raises(ValueError):
            fg.branch_residual(fg.Point2(2, 0), a, b, 0.0, Branch.INVERSE)


class TestConicCoefficients:
    def test_reference_hyperbola_at_support(self, ex42_pair):
        conic = fg.conic_coefficients(*ex42_pair, alpha=0.0, branch=Branch.INVERSE)
        # (x-2.5)^2/0.25 - y^2/6 = 1 expanded and normalized the same way
        reference = fg.ConicCoefficients(4.0, 0.0, -1.0 / 6.0, -10.0, 0.0, 24.0)
        expected = reference.normalized()
        for got, want in zip(conic.as_tuple(), expected.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_general_alpha_matches_reference_form(self, ex42_pair):
        a, b = ex42_pair
        rng = np.random.default_rng(7)
        for alpha in (0.0, 0.3, 0.6):
            conic = fg.conic_coefficients(a, b, alpha, Branch.INVERSE)
            for _ in range(50):
                x, y = rng.uniform(-2, 7), rng.uniform(-5, 5)
                mine = conic.evaluate(x, y)
                # zero sets agree: evaluate the reference form at this conic's zeros
                if abs(mine) < 1e-9:
                    assert reference_hyperbola_residual(x, y, alpha) \
                        == pytest.approx(0.0, abs=1e-6)
            # stronger: proportionality of the two quadratic forms on a grid
            pts = rng.uniform(-3, 8, size=(20, 2))
            mine_vals = np.array([conic.evaluate(px, py) for px, py in pts])
            ref_vals = np.array([reference_hyperbola_residual(px, py, alpha)
                                   for px, py in pts])
            ratio = mine_vals / ref_vals
            assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_equal_radii_gives_line(self, ex41_pair):
        conic = fg.conic_coefficients(*ex41_pair, alpha=0.4, branch=Branch.INVERSE)
        assert fg.classify_conic(conic) == "line"
        # the line is x = 2.5
        assert conic.A == conic.H == conic.B == 0.0
        assert -conic.C / (2 * conic.G) == pytest.approx(2.5, abs=1e-12)


class TestClassifyConic:
    def test_line_for_equal_spreads(self, ex41_pair):
        for alpha in (0.0, 0.5, 1.0):
            conic = fg.conic_coefficients(*ex41_pair, alpha=alpha,
                                          branch=Branch.INVERSE)
            assert fg.classify_conic(conic) == "line"

    def test_hyperbola_at_support(self, ex42_pair):
        conic = fg.conic_coefficients(*ex42_pair, alpha=0.0, branch=Branch.INVERSE)
        assert fg.classify_conic(conic) == "hyperbola"

    def test_concentric_same_branch_is_circle(self):
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        conic = fg.conic_coefficients(a, b, 0.25, Branch.SAME)
        assert fg.classify_conic(conic) == "ellipse"

    def test_same_branch_ellipse_when_overlapping(self):
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        conic = fg.conic_coefficients(a, b, 0.0, Branch.SAME)
        assert fg.classify_conic(conic) == "ellipse"


class TestOverlapCase:
    def test_example_42_always_separate(self, ex42_pair):
        for alpha in (0.0, 0.5, 1.0):
            assert fg.overlap_case(*ex42_pair, alpha=alpha) \
                == OverlapCase.NON_OVERLAPPING

    def test_full_overlap_condition(self):
        a, b = make_pair(TABLE_CONFIGS["fully_overlapping"])
        assert fg.overlap_case(a, b, 0.0) == OverlapCase.FULLY_OVERLAPPING

    def test_concentric_for_all_alpha(self):
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        for alpha in np.linspace(0, 1, 7):
            assert fg.overlap_case(a, b, float(alpha)) == OverlapCase.CONCENTRIC

    def test_tangencies_detected(self):
        a, b = make_pair(TABLE_CONFIGS["externally_tangent"])
        assert fg.overlap_case(a, b, 0.0) == OverlapCase.EXTERNALLY_TANGENT
        a, b = make_pair(TABLE_CONFIGS["internally_tangent"])
        assert fg.overlap_case(a, b, 0.0) == OverlapCase.INTERNALLY_TANGENT


class TestAlphaThresholds:
    def test_example_42_clamps_to_zero(self, ex42_pair):
        th = fg.alpha_thresholds(*ex42_pair)
        assert th.n == 0.0
        assert th.n2 == 0.0
        # scan oracle: never overlapping
        for alpha in np.linspace(0, 1, 21):
            assert fg.overlap_case(*ex42_pair, alpha=float(alpha)) \
                == OverlapCase.NON_OVERLAPPING

    def test_reference_fully_overlapping_thresholds(self):
        a, b = make_pair(TABLE_CONFIGS["fully_overlapping"])
        th = fg.alpha_thresholds(a, b)
        assert th.n1 == pytest.approx(0.5, abs=1e-9)
        assert th.n2 == pytest.approx(5.0 / 6.0, abs=1e-9)
        # scan oracle: regimes switch exactly at the thresholds
        for alpha, case in ((0.25, OverlapCase.FULLY_OVERLAPPING),
                            (0.6, OverlapCase.PARTIALLY_OVERLAPPING),
                            (0.95, OverlapCase.NON_OVERLAPPING)):
            assert fg.overlap_case(a, b, alpha) == case

    def test_concentric_has_no_thresholds(self):
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        th = fg.alpha_thresholds(a, b)
        assert th.n is None and th.n1 is None and th.n2 is None

    def test_nearly_concentric_agrees_with_overlap_case(self):
        # cores 1e-10 apart are concentric to overlap_case at every level
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(1e-10, 0, 2)
        for alpha in (0.0, 0.5, 1.0):
            assert fg.overlap_case(a, b, alpha) == OverlapCase.CONCENTRIC
        assert fg.alpha_thresholds(a, b) == fg.Thresholds(None, None, None)


class TestSampleMidset:
    def test_bisector_line(self, ex41_pair):
        a, b = ex41_pair
        cell = 7.0 / 127
        for alpha in (0.0, 0.3, 1.0):
            polys = fg.sample_midset(a, b, alpha, bbox=(-1, -4, 6, 4),
                                     resolution=128)
            pts = np.vstack(polys[Branch.INVERSE])
            assert len(pts) > 50
            assert np.max(np.abs(pts[:, 0] - 2.5)) < 2 * cell

    def test_hyperbola_residuals_after_refinement(self, ex42_pair):
        a, b = ex42_pair
        for alpha in (0.0, 0.3, 0.6):
            polys = fg.sample_midset(a, b, alpha, bbox=(-1, -4, 6, 4),
                                     resolution=256)
            pts = np.vstack(polys[Branch.INVERSE])
            assert len(pts) > 40
            ref_res = reference_hyperbola_residual(pts[:, 0], pts[:, 1], alpha)
            assert np.max(np.abs(ref_res)) < 1e-2
            own_res = [abs(fg.branch_residual(fg.Point2(x, y), a, b, alpha,
                                              Branch.INVERSE))
                       for x, y in pts]
            assert max(own_res) < 1e-8

    def test_same_branch_empty_for_disjoint(self, ex42_pair):
        out = fg.sample_branch(*ex42_pair, alpha=0.0, branch=Branch.SAME,
                               bbox=(-1, -4, 6, 4), resolution=64)
        assert out == []

    def test_branch_filter_soundness(self, ex42_pair):
        # no emitted inverse point satisfies the conjugate equation unless
        # it is degenerate (d1 = d2 and c1 = c2)
        a, b = ex42_pair
        polys = fg.sample_midset(a, b, 0.0, bbox=(-1, -4, 6, 4), resolution=128)
        for pts in polys[Branch.INVERSE]:
            for x, y in pts:
                d1 = math.hypot(x - a.core.x, y - a.core.y)
                d2 = math.hypot(x - b.core.x, y - b.core.y)
                conjugate = (d1 - d2) + (a.radius - b.radius)
                assert abs(conjugate) > 1e-3

    def test_fully_overlapping_has_only_same_branch(self):
        a, b = make_pair(TABLE_CONFIGS["fully_overlapping"])
        polys = fg.sample_midset(a, b, 0.0, resolution=128)
        assert set(polys) == {Branch.SAME}
        pts = np.vstack(polys[Branch.SAME])
        # the same-points locus is the ellipse d1 + d2 = 6
        d1 = np.hypot(pts[:, 0] - 0, pts[:, 1] - 0)
        d2 = np.hypot(pts[:, 0] - 1, pts[:, 1] - 0)
        assert np.max(np.abs(d1 + d2 - 6.0)) < 1e-8

    def test_resolution_guard(self, ex41_pair):
        with pytest.raises(ValueError):
            fg.sample_branch(*ex41_pair, alpha=0.0, branch=Branch.INVERSE,
                             resolution=8)


class TestComputeMidset:
    def test_entries_sorted_and_tagged(self, ex42_pair):
        result = fg.compute_midset(*ex42_pair, alphas=(0.5, 0.0, 1.0),
                                   resolution=64)
        alphas = [e.alpha for e in result.entries]
        assert alphas == sorted(alphas)
        assert result.case_at_support == OverlapCase.NON_OVERLAPPING
        for entry in result.entries:
            assert entry.accepted == (entry.branch is Branch.INVERSE)

    def test_accepted_is_always_inverse(self):
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        result = fg.compute_midset(a, b, alphas=np.linspace(0, 1, 5),
                                   resolution=64)
        for entry in result.entries:
            if entry.accepted:
                assert entry.branch is Branch.INVERSE

    def test_classes_match_table_prediction(self):
        a, b = make_pair(TABLE_CONFIGS["fully_overlapping"])
        result = fg.compute_midset(a, b, alphas=(0.25, 0.6, 0.95),
                                   resolution=64)
        classes = {(e.alpha, e.branch): e.conic_class for e in result.entries}
        assert classes[(0.25, Branch.SAME)] == "ellipse"
        assert classes[(0.6, Branch.SAME)] == "ellipse"
        assert classes[(0.6, Branch.INVERSE)] == "hyperbola"
        assert classes[(0.95, Branch.INVERSE)] == "hyperbola"
        assert (0.95, Branch.SAME) not in classes


class TestEquidistantMembership:
    def test_bisector_point_full_grade(self, ex41_pair):
        assert fg.equidistant_membership(fg.Point2(2.5, 0), *ex41_pair) == 1.0

    def test_axis_vertex_half_grade(self, ex42_pair):
        assert fg.equidistant_membership(fg.Point2(2.25, 0), *ex42_pair) \
            == pytest.approx(0.5, abs=1e-9)

    def test_never_equidistant_point(self, ex42_pair):
        assert fg.equidistant_membership(fg.Point2(0, 0), *ex42_pair) == 0.0

    def test_closed_form_oracle_on_axis(self, ex42_pair):
        # on the segment between the supports the inverse residual is
        # (2p - 5) + u, so the grade is alpha = 1 - (5 - 2p)
        a, b = ex42_pair
        for p in (2.1, 2.3, 2.45):
            expected = 1.0 - (5.0 - 2.0 * p)
            assert fg.equidistant_membership(fg.Point2(p, 0), a, b) \
                == pytest.approx(expected, abs=1e-9)

    def test_superlevel_sets_match_midsets(self, ex42_pair):
        a, b = ex42_pair
        for alpha in (0.2, 0.5, 0.8):
            polys = fg.sample_midset(a, b, alpha, bbox=(-1, -4, 6, 4),
                                     resolution=64)
            pts = np.vstack(polys[Branch.INVERSE])
            for x, y in pts[::5]:
                grade = fg.equidistant_membership(fg.Point2(x, y), a, b)
                assert grade >= alpha - 1e-6

    def test_grade_matches_linear_root_on_grid(self, ex42_pair):
        # both directions of the superlevel equivalence: the inverse
        # residual is linear in u, so the grade has the closed form
        # alpha = 1 - (d1 - d2)/(r1 - r2) clipped to [0, 1]
        a, b = ex42_pair
        for x in np.linspace(-1, 6, 9):
            for y in np.linspace(-3, 3, 7):
                q = fg.Point2(float(x), float(y))
                d1 = q.distance_to(a.core)
                d2 = q.distance_to(b.core)
                u_root = (d1 - d2) / (a.radius - b.radius)
                expected = 1.0 - u_root if 0.0 <= u_root <= 1.0 else 0.0
                assert fg.equidistant_membership(q, a, b) == pytest.approx(
                    expected, abs=1e-8)


def _query_points(a, b):
    """A grid over the pair's support box, the core line, and vertices of every midset curve."""
    xmin, ymin, xmax, ymax = fg.support_bbox(a, b)
    pts = [(x, y) for x in np.linspace(xmin, xmax, 31).tolist()
           for y in np.linspace(ymin, ymax, 31).tolist()]
    pts += [(a.core.x + s * (b.core.x - a.core.x), a.core.y + s * (b.core.y - a.core.y))
            for s in np.linspace(-1.0, 2.0, 61).tolist()]
    for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
        for polys in fg.sample_midset(a, b, alpha, resolution=32).values():
            pts += [tuple(v) for poly in polys for v in poly[::3].tolist()]
    return [fg.Point2(x, y) for x, y in pts]


class TestEquidistantMatchesReference:
    """Grades from one classification on radii equal the per-root overlap_case loop."""

    def assert_grades_equal(self, a, b, points):
        assert [fg.equidistant_membership(q, a, b) for q in points] == [
            equidistant_membership_reference(q, a, b) for q in points]

    def test_examples(self, ex41_pair, ex42_pair):
        for a, b in (ex41_pair, ex42_pair):
            self.assert_grades_equal(a, b, _query_points(a, b))

    @pytest.mark.parametrize("case", sorted(TABLE_CONFIGS))
    def test_case_table(self, case):
        a, b = make_pair(TABLE_CONFIGS[case])
        for pair in ((a, b), (b, a)):
            self.assert_grades_equal(*pair, _query_points(*pair))

    def test_points_on_equal_radii_bisector(self, ex41_pair):
        # exactly on x = 2.5 for ex41, and on the rounded bisector of a
        # slanted pair, where d1 - d2 is a few ulps at most
        a, b = ex41_pair
        self.assert_grades_equal(a, b, [fg.Point2(2.5, y) for y in
                                        np.linspace(-20.0, 20.0, 81).tolist()])
        p, q = fg.FuzzyPoint.circular(0.1, 0.2, 1.5), fg.FuzzyPoint.circular(3.3, 4.7, 1.5)
        mx, my = 0.5 * (p.core.x + q.core.x), 0.5 * (p.core.y + q.core.y)
        points = [fg.Point2(mx - 4.5 * s, my + 3.2 * s) for s in np.linspace(-3, 3, 61).tolist()]
        assert any(q_.distance_to(p.core) != q_.distance_to(q.core) for q_ in points)
        assert all(fg.equidistant_membership(q_, p, q) == 1.0 for q_ in points)
        self.assert_grades_equal(p, q, points)

    def test_seeded_pairs(self, rng):
        for _ in range(6):
            a, b = random_circular(rng), random_circular(rng)
            self.assert_grades_equal(a, b, _query_points(a, b))


class TestInvariance:
    def test_examples_agree(self, ex41_pair, ex42_pair):
        for pair in (ex41_pair, ex42_pair):
            report = fg.invariance_check(*pair, t_values=(0.5, 1.0, 10.0),
                                         resolution=128)
            assert report.passed
            assert report.checked > 0

    def test_random_configs_agree(self, rng):
        for _ in range(5):
            a = fg.FuzzyPoint.circular(*rng.uniform(-3, 3, size=2),
                                       rng.uniform(0.5, 2))
            b = fg.FuzzyPoint.circular(*rng.uniform(-3, 3, size=2),
                                       rng.uniform(0.5, 2))
            if a.core.distance_to(b.core) < 1e-6:
                continue
            report = fg.invariance_check(a, b, t_values=(0.5, 1.0, 10.0),
                                         resolution=96)
            assert report.passed

    def test_nonpositive_t_rejected(self, ex41_pair):
        with pytest.raises(ValueError):
            fg.invariance_check(*ex41_pair, t_values=(0.0,))

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_t_rejected(self, ex41_pair, t):
        with pytest.raises(ValueError, match="scale t must be finite"):
            fg.invariance_check(*ex41_pair, t_values=(1.0, t), resolution=16)


# the overlap-case table as the benchmark runs it, plus example 4.1's equal spreads:
# (core A, r1, core B, r2)
CASE_TABLE_PAIRS = (((0, 0), 1, (5, 0), 2), ((0, 0), 1, (3, 0), 2), ((0, 0), 1, (2, 0), 2),
                    ((0, 0), 1, (1, 0), 2), ((0, 0), 1, (0.5, 0), 2), ((0, 0), 1, (0, 0), 2),
                    ((0, 0), 2, (5, 0), 2))

# cores at 0 and 1 on a 1/32 grid: binary-fraction radii and t put poles on grid points
POLE_PAIR = ((0, 0, 1), (1, 0, 2))
POLE_GRID = dict(t_values=(0.25, 0.5, 0.75, 1.0), bbox=(-4, -4, 4, 4), resolution=257)


def assert_matches_reference(a, b, **kwargs):
    """Equal (checked, disagreements, pole_points) to the full-grid loop."""
    got = fg.invariance_check(a, b, **kwargs)
    with warnings.catch_warnings():
        # the reference multiplies inf by 0 at pole points
        warnings.simplefilter("ignore", RuntimeWarning)
        want = invariance_reference(a, b, **kwargs)
    assert got == want
    return got


class TestInvarianceAgainstReference:
    def test_case_table(self):
        for ca, ra, cb, rb in CASE_TABLE_PAIRS:
            a, b = fg.FuzzyPoint.circular(*ca, ra), fg.FuzzyPoint.circular(*cb, rb)
            assert_matches_reference(a, b, t_values=(1.0,), resolution=512)

    def test_examples(self, ex41_pair, ex42_pair):
        for pair in (ex41_pair, ex42_pair):
            assert_matches_reference(*pair, t_values=(0.5, 1.0, 10.0), resolution=512)

    def test_random_pairs_across_scales(self, rng):
        t_values = tuple(np.geomspace(1e-3, 1e3, 4))
        for _ in range(20):
            a = random_circular(rng, -4.0, 4.0, 0.3, 2.5)
            b = random_circular(rng, -4.0, 4.0, 0.3, 2.5)
            assert_matches_reference(a, b, t_values=t_values, resolution=128)

    def test_exact_poles(self):
        report = assert_matches_reference(*make_pair(POLE_PAIR), **POLE_GRID)
        assert report.pole_points > 0
        assert report.passed

    def test_zero_tolerance_disagreements(self):
        # both residuals are exactly 0 wherever they agree: no disagreement
        report = assert_matches_reference(*make_pair(POLE_PAIR), **POLE_GRID, tol=0.0)
        assert report.disagreements == 0
        assert report.pole_points > 0

    def test_rounding_level_residuals(self):
        # decimal cores and radii on the core axis: at tol = 0 the residuals that
        # round to exactly 0 sit a few ulps off the two-focus residual
        a, b = make_pair(((0, 0, 0.3), (0.1, 0, 0.4)))
        report = assert_matches_reference(a, b, t_values=(0.1, 1.0, 10.0),
                                          bbox=(-1, -1, 1, 1), resolution=101, tol=0.0)
        assert report.disagreements > 0

    def test_poles_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fg.invariance_check(*make_pair(POLE_PAIR), **POLE_GRID)
        assert report.pole_points > 0

    @pytest.mark.parametrize("resolution", [16, 17, 100, 257])
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_resolutions_off_the_block_edge(self, resolution, tol):
        # 17, 257: a partial last block row and column; 16, 100: none
        assert_matches_reference(*make_pair(POLE_PAIR), **dict(POLE_GRID, resolution=resolution),
                                 tol=tol)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 16])
    def test_bbox_within_one_block(self, ex42_pair, resolution):
        # the whole grid inside one block, and a 1e-6 box with a midset point at a corner
        for t_values in ((1.0,), (0.5, 1.0, 10.0)):
            assert_matches_reference(*make_pair(POLE_PAIR), t_values=t_values,
                                     bbox=(-1.5, -0.5, 0.5, 1.5), resolution=resolution)
            assert_matches_reference(*ex42_pair, t_values=t_values, tol=0.0,
                                     bbox=(2.0, -1e-6, 2.0 + 1e-6, 0.0), resolution=resolution)

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_bbox_far_from_cores(self, ex41_pair, ex42_pair, tol):
        # the bisector x = 2.5 of example 4.1, and the example 4.2 sheets
        # at y = 1000, where d1 - d2 = -u puts them near x = 2.5 - 204 u
        assert_matches_reference(*ex41_pair, t_values=(0.5, 1.0, 10.0),
                                 bbox=(0.5, 998.0, 4.5, 1002.0), resolution=101, tol=tol)
        assert_matches_reference(*ex42_pair, t_values=(1.0,), bbox=(-250.0, 950.0, 50.0, 1050.0),
                                 resolution=128, tol=tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_tangent_ray_on_a_grid_row(self, tol):
        # at alpha = 0 the inverse branch is the ray y = 0, x <= 0, and both
        # residuals are exactly 0 on half of the grid row y = 0; the poles
        # d1 = 1 - t and d2 = 3 - t hit grid points
        a, b = make_pair(TABLE_CONFIGS["internally_tangent"])
        report = assert_matches_reference(a, b, t_values=(0.25, 0.5, 1.0),
                                          bbox=(-4, -4, 4, 4), resolution=17, tol=tol)
        assert report.pole_points > 0
        assert_matches_reference(a, b, t_values=(0.5,), bbox=(-4, -4, 4, 4),
                                 resolution=257, tol=tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_concentric_pair(self, tol):
        # the same-points circles d = 1.5 u and the poles d = u - t and
        # d = 2 u + t pass through grid points
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        report = assert_matches_reference(a, b, t_values=(0.5, 1.0), bbox=(-4, -4, 4, 4),
                                          resolution=17, tol=tol)
        assert report.pole_points > 0
        assert_matches_reference(a, b, t_values=(0.5, 1.0), resolution=200, tol=tol)

    @pytest.mark.parametrize("t", [1e-320, 1e200])
    def test_extreme_scales_evaluate_every_point(self, ex42_pair, t):
        # outside the range of the rounding bound the whole grid is evaluated
        assert_matches_reference(*ex42_pair, t_values=(t,), resolution=64, tol=0.0)


def assert_branch_sampled(a, b, alpha, branch, bbox, resolution):
    """Exact vertices, chords within one cell, every crossing cell covered;
    a branch inactive at this level is empty."""
    polylines = fg.sample_branch(a, b, alpha, branch, bbox, resolution)
    if branch not in fg.active_branches(fg.overlap_case(a, b, alpha)):
        assert polylines == []
        return polylines
    cell = max(bbox[2] - bbox[0], bbox[3] - bbox[1]) / (resolution - 1)
    centres = midset_crossing_cells(a, b, alpha, branch, bbox, resolution)
    if not polylines:
        assert len(centres) == 0, (alpha, branch)
        return polylines
    verts = np.vstack(polylines)
    assert np.all((verts >= bbox[:2]) & (verts <= bbox[2:]))
    assert np.max(np.abs(branch_residuals(verts, a, b, alpha, branch))) < 1e-9
    for poly in polylines:
        assert len(poly) >= 2
        assert np.max(np.hypot(*np.diff(poly, axis=0).T)) <= cell * (1.0 + 1e-12)
    if len(centres):
        gaps, _ = cKDTree(verts).query(centres)
        assert gaps.max() <= 2.0 * cell, (alpha, branch, gaps.max() / cell)
    return polylines


class TestClosedFormSampler:
    def test_table_pairs_cover_crossing_cells(self, ex41_pair):
        pairs = [make_pair(cfg) for cfg in TABLE_CONFIGS.values()] + [ex41_pair]
        for a, b in pairs:
            bbox = fg.support_bbox(a, b)
            for alpha in np.linspace(0.0, 1.0, 6):
                for branch in Branch:
                    assert_branch_sampled(a, b, float(alpha), branch, bbox, 128)

    def test_random_pairs_cover_crossing_cells(self, rng):
        for _ in range(20):
            a, b = random_circular(rng, r_hi=4.0), random_circular(rng, r_hi=4.0)
            bbox = fg.support_bbox(a, b)
            for alpha in (0.0, 0.3, 0.6, 0.9):
                for branch in Branch:
                    assert_branch_sampled(a, b, alpha, branch, bbox, 96)

    def test_internally_tangent_inverse_is_ray(self):
        a, b = make_pair(TABLE_CONFIGS["internally_tangent"])
        assert fg.overlap_case(a, b, 0.0) == OverlapCase.INTERNALLY_TANGENT
        polys = fg.sample_midset(a, b, 0.0, bbox=(-4, -3, 4, 3), resolution=64)
        (ray,) = polys[Branch.INVERSE]
        # d2 - d1 = dc: the ray from core A away from core B
        assert tuple(ray[0]) == (0.0, 0.0)
        assert np.all(ray[:, 1] == 0.0) and np.all(np.diff(ray[:, 0]) < 0.0)
        assert ray[-1, 0] >= -4.0 and ray[-1, 0] < -4.0 + 8.0 / 63

    def test_concentric_same_branch_is_one_circle(self):
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        (circle,) = fg.sample_branch(a, b, 0.25, Branch.SAME, resolution=128)
        assert np.array_equal(circle[0], circle[-1])
        assert np.allclose(np.hypot(circle[:, 0], circle[:, 1]), 1.125, atol=1e-12)

    def test_ellipse_inside_bbox_is_one_closed_polyline(self):
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        (ellipse,) = assert_branch_sampled(a, b, 0.0, Branch.SAME,
                                           fg.support_bbox(a, b), 128)
        assert np.array_equal(ellipse[0], ellipse[-1])

    def test_curve_crossing_bbox_splits(self, ex42_pair):
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        # a strip through the ellipse middle cuts it into top and bottom arcs
        arcs = assert_branch_sampled(a, b, 0.0, Branch.SAME, (0.5, -3, 1.5, 3), 64)
        assert len(arcs) == 2
        assert sorted(np.sign(arc[:, 1]).max() for arc in arcs) == [-1.0, 1.0]
        # a box round the vertex where the ellipse parameter starts keeps one arc
        (arc,) = assert_branch_sampled(a, b, 0.0, Branch.SAME, (2.0, -3, 4, 3), 64)
        assert not np.array_equal(arc[0], arc[-1])
        # a box short of the hyperbola vertex x = 2 keeps its two arms apart
        arms = assert_branch_sampled(*ex42_pair, 0.0, Branch.INVERSE,
                                     (-1, -8, 1.5, 8), 64)
        assert len(arms) == 2

    def test_inactive_or_empty_branch(self, ex42_pair):
        assert fg.sample_branch(*ex42_pair, 0.0, Branch.SAME, resolution=64) == []
        a, b = make_pair(TABLE_CONFIGS["fully_overlapping"])
        assert fg.sample_branch(a, b, 0.0, Branch.INVERSE, resolution=64) == []
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        assert fg.sample_branch(a, b, 0.5, Branch.INVERSE, resolution=64) == []
        assert fg.sample_branch(a, b, 1.0, Branch.SAME, resolution=64) == []

    def test_sheet_far_from_its_centre(self):
        # the core midpoint sits 1000 above a unit box that both sheets cross
        for r2 in (2.0, 3.0):
            a = fg.FuzzyPoint.circular(-1000, 1000, 2)
            b = fg.FuzzyPoint.circular(1000, 1000, r2)
            (line,) = assert_branch_sampled(a, b, 0.5, Branch.INVERSE,
                                            (-1, -1, 1, 1), 64)
            assert 32 <= len(line) <= 2 * 64
            assert r2 != 2.0 or np.all(line[:, 0] == 0.0)


def assert_matches_sampler_reference(a, b, alpha, branch, bbox=None, resolution=512):
    """sample_branch equals the reference sampler bit for bit: the same
    polylines in the same order, each with the same vertices."""
    got = fg.sample_branch(a, b, alpha, branch, bbox, resolution)
    want = sample_branch_reference(a, b, alpha, branch, bbox, resolution)
    assert len(got) == len(want), (alpha, branch, bbox)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w), (alpha, branch, bbox)
    return got


class TestSamplerMatchesReference:
    """Windows that hold the centre between the cores sample as before."""

    def test_table_pairs_and_bisector(self, ex41_pair):
        # the table as given and scaled, turned and shifted off the axes
        pairs = [make_pair(cfg) for cfg in TABLE_CONFIGS.values()] + [ex41_pair] + [
            (placed(spec_a, 2.0, 0.3, (1.25, -0.75)), placed(spec_b, 2.0, 0.3, (1.25, -0.75)))
            for spec_a, spec_b in TABLE_CONFIGS.values()]
        cases, count = set(), 0
        for a, b in pairs:
            # the levels of the CLI's default 11 and the benchmark's 5
            for alpha in sorted(set(np.linspace(0.0, 1.0, 11).tolist()
                                    + np.linspace(0.0, 1.0, 5).tolist())):
                cases.add(fg.overlap_case(a, b, alpha))
                for branch in fg.active_branches(fg.overlap_case(a, b, alpha)):
                    for resolution in (128, 512):
                        count += sum(map(len, assert_matches_sampler_reference(
                            a, b, alpha, branch, resolution=resolution)))
        assert cases == set(OverlapCase) and count > 10_000
        # example 4.1: the crisp bisector x = 2.5 at every level
        (line,) = assert_matches_sampler_reference(*ex41_pair, 0.5, Branch.INVERSE)
        assert np.all(line[:, 0] == 2.5)

    def test_internally_tangent_ray(self):
        a, b = make_pair(TABLE_CONFIGS["internally_tangent"])
        for bbox, resolution in (((-4, -3, 4, 3), 64), (None, 512)):
            (ray,) = assert_matches_sampler_reference(a, b, 0.0, Branch.INVERSE, bbox,
                                                      resolution)
            assert np.all(ray[:, 1] == 0.0)

    def test_concentric_circle(self):
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        for alpha in (0.0, 0.25, 0.9):
            (circle,) = assert_matches_sampler_reference(a, b, alpha, Branch.SAME)
            assert np.array_equal(circle[0], circle[-1])

    def test_window_joining_first_and_last_runs(self):
        # the ellipse d1 + d2 = 3 about (1, 0) starts at its vertex (2.5, 0);
        # the strip keeps its right end, which the start splits in two
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        (arc,) = assert_matches_sampler_reference(a, b, 0.0, Branch.SAME,
                                                  (0.5, -0.5, 3.0, 0.5), 256)
        assert not np.array_equal(arc[0], arc[-1])
        assert 0 < np.flatnonzero((arc[:, 0] == 2.5) & (arc[:, 1] == 0.0))[0] < len(arc) - 1

    def test_random_pairs_and_windows(self, rng):
        for _ in range(40):
            a, b = random_circular(rng, r_hi=4.0), random_circular(rng, r_hi=4.0)
            mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
            lo, hi = rng.uniform(0.0, 6.0, 2), rng.uniform(0.01, 6.0, 2)
            for bbox in (None, (mx - lo[0], my - lo[1], mx + hi[0], my + hi[1])):
                for alpha in (0.0, 0.3, 0.6, 0.9):
                    for branch in Branch:
                        assert_matches_sampler_reference(a, b, alpha, branch, bbox, 96)


class TestZoomedEllipseWindow:
    """A window that excludes the centre samples only the ellipse arc it sees."""

    def test_narrow_window_on_the_circle(self):
        # the circle d = 1.5 of the concentric pair r = 1, r = 2 at alpha 0;
        # sampling the whole circle at 16 points per cell took 470 MB here
        a, b = make_pair(TABLE_CONFIGS["concentric"])
        bbox = (1.495, -0.005, 1.505, 0.005)
        tracemalloc.start()
        try:
            fg.sample_branch(a, b, 0.0, Branch.SAME, bbox, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        (arc,) = assert_branch_sampled(a, b, 0.0, Branch.SAME, bbox, 512)
        assert 512 <= len(arc) <= 2 * 512

    def test_windows_off_centre_cover_crossing_cells(self, rng):
        for _ in range(30):
            a, b = random_circular(rng, r_hi=4.0), random_circular(rng, r_hi=4.0)
            mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
            turn = rng.uniform(0.0, 2.0 * math.pi)
            dist, width = rng.uniform(0.05, 4.0), rng.uniform(0.01, 3.0)
            x0, y0 = mx + dist * math.cos(turn), my + dist * math.sin(turn)
            # the square on the far side of (x0, y0) from the centre
            x0 += 0.0 if math.cos(turn) >= 0.0 else -width
            y0 += 0.0 if math.sin(turn) >= 0.0 else -width
            bbox = (x0, y0, x0 + width, y0 + width)
            for alpha in (0.0, 0.4, 0.8):
                assert_branch_sampled(a, b, alpha, Branch.SAME, bbox, 64)

    def test_window_across_the_start_keeps_one_arc(self):
        # a window right of the centre (1, 0) holds the ellipse's right end,
        # where its parameter starts: one arc from below the axis to above it
        a, b = make_pair(TABLE_CONFIGS["partially_overlapping"])
        (arc,) = assert_branch_sampled(a, b, 0.0, Branch.SAME, (1.5, -2.0, 3.0, 2.0), 128)
        assert arc[0, 1] * arc[-1, 1] < 0.0


def placed(spec, scale, theta=0.0, shift=(0.0, 0.0)):
    """The circular point (x, y, r) scaled, then turned by theta and shifted."""
    x, y, r = (scale * v for v in spec)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return fg.FuzzyPoint.circular(cos_t * x - sin_t * y + shift[0],
                                  sin_t * x + cos_t * y + shift[1], r)


class TestClassifyRigidMotion:
    def test_table_pairs_keep_their_class(self, rng):
        configs = list(TABLE_CONFIGS.values()) + [((0, 0, 2), (5, 0, 2))]
        for spec_a, spec_b in configs:
            for scale in (0.5, 1.0, 2.0):
                motions = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-100.0, 100.0, 2))
                           for _ in range(4)]
                for alpha in np.linspace(0.0, 1.0, 20):
                    for branch in Branch:
                        conic = fg.conic_coefficients(placed(spec_a, scale), placed(spec_b, scale),
                                                      float(alpha), branch)
                        want = fg.classify_conic(conic)
                        for theta, shift in motions:
                            conic = fg.conic_coefficients(placed(spec_a, scale, theta, shift),
                                                          placed(spec_b, scale, theta, shift),
                                                          float(alpha), branch)
                            assert fg.classify_conic(conic) == want, (
                                spec_a, spec_b, scale, alpha, branch, theta, shift)

    def test_pairs_away_from_origin_are_hyperbolas(self):
        for (x1, y1), (x2, y2) in (((10, 10), (15, 10)), ((100, 0), (105, 0))):
            a = fg.FuzzyPoint.circular(x1, y1, 1.5)
            b = fg.FuzzyPoint.circular(x2, y2, 1.0)
            conic = fg.conic_coefficients(a, b, 0.0, Branch.INVERSE)
            assert fg.classify_conic(conic) == "hyperbola"

    def test_far_pair_is_hyperbola(self):
        # world-frame double squaring tags every level of this pair degenerate
        a = fg.FuzzyPoint.circular(1.3e7, 7e6, 1.0)
        b = fg.FuzzyPoint.circular(13000004.0, 7000003.0, 2.0)
        result = fg.compute_midset(a, b, alphas=(0.0, 0.5, 0.9), resolution=16)
        assert [e.conic_class for e in result.entries] == ["hyperbola"] * 3
        assert fg.conic_class(a, b, 0.25, Branch.INVERSE) == "hyperbola"

    def test_far_from_origin_keeps_class(self, rng):
        # a pair 1e2 to 1e12 from the origin has the class of the pair at the
        # origin, away from the tolerance-bound levels where |k| is near dc or 0
        checked = 0
        while checked < 300:
            r1, r2 = rng.uniform(0.2, 3.0, 2)
            if rng.uniform() < 0.2:
                r2 = r1
            spec_a, spec_b = (0.0, 0.0, r1), (*rng.uniform(-5.0, 5.0, 2), r2)
            dc = math.hypot(spec_b[0], spec_b[1])
            alpha, branch = float(rng.uniform(0.0, 1.0)), list(Branch)[rng.integers(2)]
            k = (r1 - r2 if branch is Branch.INVERSE else r1 + r2) * (1.0 - alpha)
            if dc < 0.5 or abs(abs(k) - dc) < 1e-2 * dc or 0.0 < abs(k) < 1e-2:
                continue
            want = fg.conic_class(placed(spec_a, 1.0), placed(spec_b, 1.0), alpha, branch)
            scale, phi = 10.0 ** rng.uniform(2.0, 12.0), rng.uniform(0.0, 2.0 * math.pi)
            shift = (scale * math.cos(phi), scale * math.sin(phi))
            a, b = placed(spec_a, 1.0, shift=shift), placed(spec_b, 1.0, shift=shift)
            assert fg.conic_class(a, b, alpha, branch) == want, (spec_a, spec_b, alpha, branch,
                                                                  shift)
            checked += 1
