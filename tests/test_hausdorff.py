import math
import re

import numpy as np
import pytest

import fuzgeo as fg
from fuzgeo.hausdorff import PairError, hausdorff_rows
from oracles import (Ellipse, almost_equals, bisect_membership, crisp_hausdorff,
                     hausdorff_boundary_oracle,
                     hausdorff_reference, hausdorff_support_oracle,
                     linear_membership_reference, membership_pairs, membership_probes,
                     random_separated_pair)


class TestCrispHausdorff:
    def test_identical_sets(self):
        e = Ellipse.disk(1, 2, 1.5)
        assert crisp_hausdorff(e, e) == 0.0

    def test_points(self):
        a = Ellipse.point(1, 0)
        b = Ellipse.point(5, 2)
        assert crisp_hausdorff(a, b) == pytest.approx(4.472136, abs=1e-6)

    def test_disks_against_boundary_oracle(self):
        a = Ellipse.disk(0, 0, 1)
        b = Ellipse.disk(5, 0, 2)
        value = crisp_hausdorff(a, b)
        assert value == pytest.approx(6.0, abs=1e-9)
        assert value == pytest.approx(hausdorff_boundary_oracle(a, b), abs=2e-3)

    def test_nested_disks(self):
        outer = Ellipse.disk(0, 0, 3)
        inner = Ellipse.disk(0.5, 0, 1)
        assert crisp_hausdorff(outer, inner) == pytest.approx(2.5, abs=1e-12)

    def test_ellipses_against_support_oracle(self, rng):
        for _ in range(10):
            e1 = Ellipse(*rng.uniform(-3, 3, size=2), *rng.uniform(0.2, 2, size=2))
            e2 = Ellipse(*rng.uniform(-3, 3, size=2), *rng.uniform(0.2, 2, size=2))
            assert crisp_hausdorff(e1, e2) == pytest.approx(
                hausdorff_support_oracle(e1, e2), abs=1e-6)

    def test_symmetry_and_triangle_on_random_disks(self, rng):
        for _ in range(30):
            disks = [Ellipse.disk(*rng.uniform(-5, 5, size=2),
                                     rng.uniform(0.1, 2))
                     for _ in range(3)]
            d_ab = crisp_hausdorff(disks[0], disks[1])
            d_ba = crisp_hausdorff(disks[1], disks[0])
            d_ac = crisp_hausdorff(disks[0], disks[2])
            d_cb = crisp_hausdorff(disks[2], disks[1])
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab <= d_ac + d_cb + 1e-12
            # oracle cross-check on one leg
            assert d_ab == pytest.approx(
                hausdorff_support_oracle(disks[0], disks[1]), abs=1e-6)

    def test_fuzzy_cut_shapes(self):
        p = fg.FuzzyPoint.elliptical(5, 2, 1, 1.5)
        cut = Ellipse.from_fuzzy_cut(p, 0.5)
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
        assert almost_equals(res.projected_a.summary,
                             fg.TriangularTriple(0.118033989, 1.118033989, 2.118033989), tol=1e-6)
        assert almost_equals(res.projected_b.summary,
                             fg.TriangularTriple(4.472135955, 5.59016994, 6.708203932), tol=1e-6)

    def test_circular_pair(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        res = fg.fuzzy_hausdorff(a, b)
        assert almost_equals(res.summary, fg.TriangularTriple(3, 5, 7), tol=1e-9)

    def test_near_crisp_points(self):
        a = fg.FuzzyPoint.circular(1, 0, 1e-12)
        b = fg.FuzzyPoint.circular(5, 2, 1e-12)
        res = fg.fuzzy_hausdorff(a, b)
        dc = a.core.distance_to(b.core)
        assert almost_equals(
            res.summary, fg.TriangularTriple(dc, dc, dc), tol=1e-9)

    def test_coincident_cores_rejected(self):
        p = fg.FuzzyPoint.circular(0, 0, 1)
        with pytest.raises(ValueError):
            fg.fuzzy_hausdorff(p, fg.FuzzyPoint.circular(0, 0, 2))

    def test_core_equals_crisp_hausdorff_of_cores(self, rng):
        for _ in range(10):
            a, b = random_separated_pair(rng)
            res = fg.fuzzy_hausdorff(a, b)
            crisp = crisp_hausdorff(
                Ellipse.point(a.core.x, a.core.y),
                Ellipse.point(b.core.x, b.core.y))
            assert res.summary.m == pytest.approx(crisp, abs=1e-9)

    def test_matches_fuzzy_distance_for_circular(self, rng):
        for _ in range(10):
            a, b = random_separated_pair(rng)
            a = fg.FuzzyPoint(a.core, fg.Spread.circular(a.spread.p1))
            b = fg.FuzzyPoint(b.core, fg.Spread.circular(b.spread.p1))
            h = fg.fuzzy_hausdorff(a, b)
            d = fg.fuzzy_distance(a, b)
            assert almost_equals(h.summary, d.summary, tol=1e-9)
            for alpha in np.linspace(0, 1, 11):
                hc = h.cut(float(alpha))
                dc = d.cut(float(alpha))
                assert hc[0] == pytest.approx(dc[0], abs=1e-9)
                assert hc[1] == pytest.approx(dc[1], abs=1e-9)

    def test_orientation_normalization(self, ex22_pair):
        a, b = ex22_pair
        res_ab = fg.fuzzy_hausdorff(a, b)
        res_ba = fg.fuzzy_hausdorff(b, a)
        assert almost_equals(res_ab.summary, res_ba.summary, tol=1e-12)

    def test_membership_matches_bisection(self, rng):
        for a, b in membership_pairs(rng, 40):
            value = fg.fuzzy_hausdorff(a, b)
            # 0 is the clipped lower end of overlapping pairs
            for x in membership_probes(value, 0.1) + [0.0]:
                assert value.membership(x) == pytest.approx(
                    bisect_membership(value.cut, x), abs=1e-8)
            assert value.membership(value.summary.m) == 1.0
            # the shared linear inversion gives each class's own grades bit for bit
            for number in (value, value.near, value.far):
                xs = membership_probes(number, 0.1) + [0.0]
                assert [number.membership(x).hex() for x in xs] == [
                    linear_membership_reference(number, x).hex() for x in xs]

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


def _hex(row):
    return [x.hex() for x in row]


def _point(rng, x, y, scale):
    p1, p2 = (scale * rng.uniform(0.05, 1.0, 2)).tolist()
    if rng.random() < 0.5:
        return fg.FuzzyPoint.circular(x, y, p1)
    return fg.FuzzyPoint.elliptical(x, y, p1, p2)


def _scaled(p, s):
    """p with its core coordinates and spread radii multiplied by s."""
    return fg.FuzzyPoint(fg.Point2(p.core.x * s, p.core.y * s),
                         fg.Spread(p.spread.kind, p.spread.p1 * s, p.spread.p2 * s))


def _mixed_pairs(rng, shift):
    """Pairs of a seeded scene of circular and elliptical points at one scale
    in 10^[-3, 3], shifted from the origin by shift times that scale, with
    axis-parallel core lines and |a| == |b| ties among them.

    Coordinates lie on a grid of 2^-20 times a power of two near the scale,
    so a core moved by (d, 0), (0, d) or (d, +-d) moves exactly.
    """
    unit = 2.0 ** (np.floor(np.log2(10.0 ** rng.uniform(-3.0, 3.0))) - 20)
    centre = np.round(shift * 2.0 ** 20 * rng.uniform(-1.0, 1.0, 2)) * unit
    scale = unit * 2.0 ** 20
    pairs = []
    for _ in range(12):
        x, y = (centre + np.round(rng.uniform(-2.0, 2.0, 2) * 2.0 ** 20) * unit).tolist()
        d = float(np.round(rng.uniform(0.1, 3.0) * 2.0 ** 20) * unit) * rng.choice([-1, 1])
        dx, dy = [(d, 0.0), (0.0, d), (d, d), (d, -d),
                  tuple((rng.uniform(-3.0, 3.0, 2) * scale).tolist())][rng.integers(5)]
        pairs.append((_point(rng, x, y, scale), _point(rng, x + dx, y + dy, scale)))
    return pairs


class TestHausdorffRows:
    """hausdorff_rows against hausdorff_reference, the object path it replaced."""

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e5, 1e7])
    def test_rows_equal_reference_bit_for_bit(self, rng, shift):
        ties = axis = 0
        for _ in range(25):
            pairs = _mixed_pairs(rng, shift)
            for (a, b), row in zip(pairs, hausdorff_rows(pairs)):
                assert _hex(row) == _hex(hausdorff_reference(a, b))
                ties += abs(row[9]) == abs(row[10])
                axis += row[9] == 0.0 or row[10] == 0.0
        # two fifths of the 300 pairs each
        assert ties >= 60 and axis >= 60

    def test_fuzzy_hausdorff_is_the_one_row_case(self, rng):
        for a, b in _mixed_pairs(rng, 1e3) + _mixed_pairs(rng, 0.0):
            res = fg.fuzzy_hausdorff(a, b)
            got = (*res.summary.as_tuple(), *res.projected_a.summary.as_tuple(),
                   *res.projected_b.summary.as_tuple(), res.line.a, res.line.b, res.line.c)
            # the line keeps a, b and c; theta is the rows' alone
            assert _hex(got) == _hex(hausdorff_reference(a, b)[:12])
            assert res.cut(0.0) == (res.summary.l, res.summary.u)
            # the library's line and projection share the rows' arithmetic
            line = fg.LineSpec.through_points(a.core, b.core)
            assert _hex((line.a, line.b, line.c)) == _hex(got[9:])
            for p, projected in ((a, got[3:6]), (b, got[6:9])):
                assert _hex(fg.project_onto_line(p, line).summary.as_tuple()) == _hex(projected)

    @pytest.mark.parametrize("core_a, core_b, radius", [
        ((1.0, 0.0), (1.0, 0.0), 1.0),             # coincident cores
        ((-1.7e308, 0.0), (1.7e308, 0.0), 1.0),    # the normal overflows
        ((1e308, 0.0), (1.5e308, 0.0), 1e308),     # a projected end overflows
    ], ids=["coincident", "normal", "triple"])
    def test_failing_pair_named_with_reference_message(self, core_a, core_b, radius):
        ok = (fg.FuzzyPoint.circular(0, 0, 1), fg.FuzzyPoint.circular(3, 4, 1))
        bad = (fg.FuzzyPoint.circular(*core_a, radius), fg.FuzzyPoint.circular(*core_b, radius))
        with pytest.raises(ValueError) as want:
            hausdorff_reference(*bad)
        with pytest.raises(PairError) as got:
            hausdorff_rows([ok, ok, bad, bad, ok])
        assert (got.value.index, str(got.value)) == (2, str(want.value))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            fg.fuzzy_hausdorff(*bad)

    @pytest.mark.parametrize("k", [-1000, -600, -511, 511, 600, 1000])
    def test_rows_scale_by_powers_of_two(self, rng, k):
        # the pairs scaled by 2^k: every number scales by 2^k, bit for bit,
        # except the line's unit normal (a, b) and theta
        s = 2.0 ** k
        for a, b in _mixed_pairs(rng, 0.0) + _mixed_pairs(rng, 1e3):
            unit = hausdorff_rows([(a, b)])[0]
            [row] = hausdorff_rows([(_scaled(a, s), _scaled(b, s))])
            want = [x * s for x in unit[:9]] + [unit[9], unit[10], unit[11] * s, unit[12]]
            assert _hex(row) == _hex(want), (a, b)

    @pytest.mark.parametrize("core_a, core_b", [
        # a*x + b*y of the unnormalised normal overflowed: c was inf - inf,
        # a core off its line, and c was inf, an infinite anchor
        ((1e200, 1e200), (2e200, 2e200)),
        ((1e300, 0.0), (-1e300, 1e300)),
    ], ids=["off-line", "anchor"])
    def test_huge_coordinates(self, core_a, core_b):
        pair = (fg.FuzzyPoint.circular(*core_a, 1.0), fg.FuzzyPoint.circular(*core_b, 1.0))
        assert _hex(hausdorff_rows([pair])[0]) == _hex(hausdorff_reference(*pair))
        dc = math.dist(core_a, core_b)
        assert fg.fuzzy_hausdorff(*pair).summary.as_tuple() == pytest.approx(
            (dc - 2.0, dc, dc + 2.0), rel=1e-15)
