import math

import numpy as np
import pytest

import fuzgeo as fg
from oracles import (bisect_membership, hausdorff_boundary_oracle,
                     hausdorff_support_oracle, membership_pairs, membership_probes,
                     random_separated_pair)


class TestCrispHausdorff:
    def test_identical_sets(self):
        e = fg.Ellipse.disk(1, 2, 1.5)
        assert fg.crisp_hausdorff(e, e) == 0.0

    def test_points(self):
        a = fg.Ellipse.point(1, 0)
        b = fg.Ellipse.point(5, 2)
        assert fg.crisp_hausdorff(a, b) == pytest.approx(4.472136, abs=1e-6)

    def test_disks_against_boundary_oracle(self):
        a = fg.Ellipse.disk(0, 0, 1)
        b = fg.Ellipse.disk(5, 0, 2)
        value = fg.crisp_hausdorff(a, b)
        assert value == pytest.approx(6.0, abs=1e-9)
        assert value == pytest.approx(hausdorff_boundary_oracle(a, b), abs=2e-3)

    def test_nested_disks(self):
        outer = fg.Ellipse.disk(0, 0, 3)
        inner = fg.Ellipse.disk(0.5, 0, 1)
        assert fg.crisp_hausdorff(outer, inner) == pytest.approx(2.5, abs=1e-12)

    def test_ellipses_against_support_oracle(self, rng):
        for _ in range(10):
            e1 = fg.Ellipse(*rng.uniform(-3, 3, size=2), *rng.uniform(0.2, 2, size=2))
            e2 = fg.Ellipse(*rng.uniform(-3, 3, size=2), *rng.uniform(0.2, 2, size=2))
            assert fg.crisp_hausdorff(e1, e2) == pytest.approx(
                hausdorff_support_oracle(e1, e2), abs=1e-6)

    def test_symmetry_and_triangle_on_random_disks(self, rng):
        for _ in range(30):
            disks = [fg.Ellipse.disk(*rng.uniform(-5, 5, size=2),
                                     rng.uniform(0.1, 2))
                     for _ in range(3)]
            d_ab = fg.crisp_hausdorff(disks[0], disks[1])
            d_ba = fg.crisp_hausdorff(disks[1], disks[0])
            d_ac = fg.crisp_hausdorff(disks[0], disks[2])
            d_cb = fg.crisp_hausdorff(disks[2], disks[1])
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab <= d_ac + d_cb + 1e-12
            # oracle cross-check on one leg
            assert d_ab == pytest.approx(
                hausdorff_support_oracle(disks[0], disks[1]), abs=1e-6)

    def test_fuzzy_cut_shapes(self):
        p = fg.FuzzyPoint.elliptical(5, 2, 1, 1.5)
        cut = fg.Ellipse.from_fuzzy_cut(p, 0.5)
        assert (cut.rx, cut.ry) == (0.5, 0.75)


class TestFuzzyHausdorff:
    def test_reference_example(self, ex22_pair):
        res = fg.fuzzy_hausdorff(*ex22_pair)
        # exact construction value; the reference lower digit 2.35379606
        # differs from the construction by ~3.1e-4
        assert res.summary.m == pytest.approx(4.47213595, abs=1e-6)
        assert res.summary.u == pytest.approx(6.59016994, abs=1e-6)
        assert res.summary.l == pytest.approx(2.354102, abs=1e-6)
        assert abs(res.summary.l - 2.35379606) < 5e-4

    def test_projected_triples(self, ex22_pair):
        res = fg.fuzzy_hausdorff(*ex22_pair)
        assert res.projected_a.summary.almost_equals(
            fg.TriangularTriple(0.118033989, 1.118033989, 2.118033989), tol=1e-6)
        assert res.projected_b.summary.almost_equals(
            fg.TriangularTriple(4.472135955, 5.59016994, 6.708203932), tol=1e-6)

    def test_circular_pair(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        res = fg.fuzzy_hausdorff(a, b)
        assert res.summary.almost_equals(fg.TriangularTriple(3, 5, 7), tol=1e-9)

    def test_near_crisp_points(self):
        a = fg.FuzzyPoint.circular(1, 0, 1e-12)
        b = fg.FuzzyPoint.circular(5, 2, 1e-12)
        res = fg.fuzzy_hausdorff(a, b)
        dc = a.core.distance_to(b.core)
        assert res.summary.almost_equals(
            fg.TriangularTriple(dc, dc, dc), tol=1e-9)

    def test_coincident_cores_rejected(self):
        p = fg.FuzzyPoint.circular(0, 0, 1)
        with pytest.raises(ValueError):
            fg.fuzzy_hausdorff(p, fg.FuzzyPoint.circular(0, 0, 2))

    def test_core_equals_crisp_hausdorff_of_cores(self, rng):
        for _ in range(10):
            a, b = random_separated_pair(rng)
            res = fg.fuzzy_hausdorff(a, b)
            crisp = fg.crisp_hausdorff(
                fg.Ellipse.point(a.core.x, a.core.y),
                fg.Ellipse.point(b.core.x, b.core.y))
            assert res.summary.m == pytest.approx(crisp, abs=1e-9)

    def test_matches_fuzzy_distance_for_circular(self, rng):
        for _ in range(10):
            a, b = random_separated_pair(rng)
            a = fg.FuzzyPoint(a.core, fg.Spread.circular(a.spread.p1))
            b = fg.FuzzyPoint(b.core, fg.Spread.circular(b.spread.p1))
            h = fg.fuzzy_hausdorff(a, b)
            d = fg.fuzzy_distance(a, b)
            assert h.summary.almost_equals(d.summary, tol=1e-9)
            for alpha in np.linspace(0, 1, 11):
                hc = h.cut(float(alpha))
                dc = d.cut(float(alpha))
                assert hc[0] == pytest.approx(dc[0], abs=1e-9)
                assert hc[1] == pytest.approx(dc[1], abs=1e-9)

    def test_orientation_normalization(self, ex22_pair):
        a, b = ex22_pair
        res_ab = fg.fuzzy_hausdorff(a, b)
        res_ba = fg.fuzzy_hausdorff(b, a)
        assert res_ab.summary.almost_equals(res_ba.summary, tol=1e-12)

    def test_membership_matches_bisection(self, rng):
        for a, b in membership_pairs(rng, 40):
            value = fg.fuzzy_hausdorff(a, b)
            # 0 is the clipped lower end of overlapping pairs
            for x in membership_probes(value, 0.1) + [0.0]:
                assert value.membership(x) == pytest.approx(
                    bisect_membership(value.cut, x), abs=1e-8)
            assert value.membership(value.summary.m) == 1.0

    def test_far_from_origin(self):
        a = fg.FuzzyPoint.circular(1.3e7, 7e6, 1.0)
        b = fg.FuzzyPoint.circular(-9e6, 2.1e7, 2.0)
        dc = math.hypot(2.2e7, 1.4e7)
        res = fg.fuzzy_hausdorff(a, b)
        assert res.summary.as_tuple() == pytest.approx((dc - 3.0, dc, dc + 3.0), abs=1e-6)

    def test_near_pairs_far_from_origin(self, rng):
        for _ in range(300):
            scale, phi = 10.0 ** rng.uniform(3.0, 15.0), rng.uniform(0.0, 2.0 * np.pi)
            centre = scale * np.array([np.cos(phi), np.sin(phi)])
            (x1, y1), (x2, y2) = centre + rng.uniform(-10.0, 10.0, (2, 2))
            r1, r2 = rng.uniform(0.5, 2.0, 2)
            a, b = fg.FuzzyPoint.circular(x1, y1, r1), fg.FuzzyPoint.circular(x2, y2, r2)
            dc = math.hypot(x2 - x1, y2 - y1)
            lo, m, hi = fg.fuzzy_hausdorff(a, b).summary.as_tuple()
            # s-coordinates of the cores are about scale in size
            assert (lo, m, hi) == pytest.approx((max(0.0, dc - r1 - r2), dc, dc + r1 + r2),
                                                abs=1e-14 * scale)
