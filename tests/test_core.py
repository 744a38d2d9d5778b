import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzgeo as fg
from oracles import bisect_membership, random_point, random_separated_pair

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
ordered_triples = st.tuples(finite, finite, finite).map(sorted)


class TestMembership:
    def test_grade_one_at_core(self):
        p = fg.FuzzyPoint.circular(1, 0, 1)
        assert p.membership(fg.Point2(1, 0)) == 1.0

    def test_linear_decay_matches_formula(self):
        # mu = 1 - sqrt((x-1)^2 + y^2) inside the unit support
        p = fg.FuzzyPoint.circular(1, 0, 1)
        assert p.membership(fg.Point2(1.5, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_outside_support(self):
        p = fg.FuzzyPoint.circular(1, 0, 1)
        assert p.membership(fg.Point2(3, 0)) == 0.0

    def test_one_only_at_core_and_zero_outside_on_rays(self, rng):
        for _ in range(20):
            p = random_point(rng)
            for ang in np.linspace(0, 2 * np.pi, 7, endpoint=False):
                for scale in (0.25, 0.5, 0.99):
                    q = fg.Point2(p.core.x + scale * p.spread.p1 * np.cos(ang),
                                  p.core.y + scale * p.spread.p2 * np.sin(ang))
                    assert 0 < p.membership(q) < 1
                q_out = fg.Point2(p.core.x + 1.01 * p.spread.p1 * np.cos(ang),
                                  p.core.y + 1.01 * p.spread.p2 * np.sin(ang))
                assert p.membership(q_out) == 0.0
            assert p.membership(p.core) == 1.0


class TestCutBoundary:
    def test_reference_configuration(self):
        p = fg.FuzzyPoint.circular(1, 0, 1)
        pair = p.cut_boundary(0.4, 0.0)
        assert pair.under.x == pytest.approx(0.4, abs=1e-12)
        assert pair.under.y == 0.0
        assert pair.over.x == pytest.approx(1.6, abs=1e-12)

    def test_alpha_one_collapses_to_core(self, rng):
        p = random_point(rng)
        for theta in (0.0, 1.0, 4.0):
            pair = p.cut_boundary(1.0, theta)
            assert pair.under == p.core
            assert pair.over == p.core

    def test_elliptical_vertical_direction(self):
        p = fg.FuzzyPoint.elliptical(5, 2, 1, 1.5)
        pair = p.cut_boundary(0.0, math.pi / 2)
        assert pair.under.x == pytest.approx(5.0, abs=1e-12)
        assert pair.under.y == pytest.approx(0.5, abs=1e-12)
        assert pair.over.y == pytest.approx(3.5, abs=1e-12)

    def test_alpha_out_of_range_rejected(self):
        p = fg.FuzzyPoint.circular(0, 0, 1)
        with pytest.raises(ValueError):
            p.cut_boundary(1.5, 0.0)


class TestTriples:
    def test_additive_identity(self):
        zero = fg.TriangularTriple(0, 0, 0)
        t = fg.TriangularTriple(1, 2, 3)
        assert fg.tri_add(zero, t) == t
        assert fg.tri_add(fg.TriangularTriple(2.380551, 4.472136, 6.604459), zero) \
            == fg.TriangularTriple(2.380551, 4.472136, 6.604459)

    def test_componentwise_sum(self):
        t = fg.TriangularTriple(1, 2, 3)
        assert fg.tri_add(t, t) == fg.TriangularTriple(2, 4, 6)

    def test_order_examples(self):
        assert fg.fuzzy_leq(fg.TriangularTriple(1, 2, 3), fg.TriangularTriple(1, 2, 3))
        assert fg.fuzzy_leq(fg.TriangularTriple(1, 2, 3), fg.TriangularTriple(2, 3, 4))
        assert not fg.fuzzy_leq(fg.TriangularTriple(1, 5, 6),
                                fg.TriangularTriple(2, 3, 7))

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            fg.TriangularTriple(3, 2, 1)

    def test_fields_stored_as_python_floats(self):
        assert repr(fg.TriangularTriple(np.float64(1.5), 2, 3)) == \
            "TriangularTriple(l=1.5, m=2.0, u=3.0)"
        l = fg.FuzzyNumber.from_triple(1, 2, 4).summary.l
        assert type(l) is float and l == 1.0

    @pytest.mark.parametrize("bad", [math.nan, np.float64(math.inf), -math.inf])
    def test_non_finite_field_rejected(self, bad):
        with pytest.raises(ValueError, match="m must be finite"):
            fg.TriangularTriple(0.0, bad, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(ordered_triples, ordered_triples)
    def test_add_commutative(self, ta, tb):
        a = fg.TriangularTriple(*ta)
        b = fg.TriangularTriple(*tb)
        assert fg.tri_add(a, b).almost_equals(fg.tri_add(b, a), tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(ordered_triples, ordered_triples, ordered_triples)
    def test_add_associative(self, ta, tb, tc):
        a, b, c = (fg.TriangularTriple(*t) for t in (ta, tb, tc))
        left = fg.tri_add(fg.tri_add(a, b), c)
        right = fg.tri_add(a, fg.tri_add(b, c))
        assert left.almost_equals(right, tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(ordered_triples, ordered_triples, ordered_triples)
    def test_leq_partial_order(self, ta, tb, tc):
        a, b, c = (fg.TriangularTriple(*t) for t in (ta, tb, tc))
        assert fg.fuzzy_leq(a, a)
        if fg.fuzzy_leq(a, b) and fg.fuzzy_leq(b, a):
            assert a.as_tuple() == b.as_tuple()
        if fg.fuzzy_leq(a, b) and fg.fuzzy_leq(b, c):
            assert fg.fuzzy_leq(a, c)


class TestFuzzyNumber:
    def test_triple_roundtrip(self):
        num = fg.FuzzyNumber.from_triple(1, 2, 4)
        assert isinstance(num, fg.TriangularNumber)
        assert num.cut(0.0) == (1.0, 4.0)
        assert num.cut(1.0) == (2.0, 2.0)
        assert num.cut(0.5) == (1.5, 3.0)

    def test_membership_of_triangular(self):
        num = fg.FuzzyNumber.from_triple(0, 1, 3)
        assert num.membership(1.0) == 1.0
        assert num.membership(0.5) == pytest.approx(0.5, abs=1e-9)
        assert num.membership(2.0) == pytest.approx(0.5, abs=1e-9)
        assert num.membership(4.0) == 0.0
        assert num.membership(0.0) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-100, 100), st.one_of(st.just(0.0), st.floats(1e-3, 100)),
           st.one_of(st.just(0.0), st.floats(1e-3, 100)), st.floats(-0.2, 1.2))
    @example(l=-1.0, left=1.0, right=2.0, s=0.0)
    @example(l=-1.0, left=1.0, right=2.0, s=1.0)
    @example(l=-1.0, left=1.0, right=2.0, s=1.0 / 3.0)
    @example(l=-1.0, left=1.0, right=2.0, s=0.5)
    @example(l=0.0, left=0.0, right=0.0, s=0.0)
    def test_triangular_membership_matches_bisection(self, l, left, right, s):
        # x at relative position s of the support [l, l + left + right]
        m = l + left
        u = m + right
        num = fg.TriangularNumber(l, m, u)
        x = l + s * (u - l)
        assert num.membership(x) == pytest.approx(bisect_membership(num.cut, x), abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(ordered_triples, st.integers(1, 64))
    def test_triangular_support_ends_exact(self, triple, levels):
        # the summary reads the support cut, so it must return l and u unrounded
        l, m, u = triple
        num = fg.TriangularNumber(l, m, u)
        assert num.cut(0.0) == (l, u)
        assert num.cuts(levels + 1)[0].tolist() == [0.0, l, u]

    def test_nesting_on_random_objects(self, rng):
        """Alpha-cut nesting over a dense grid, for triangular numbers and
        fuzzy distances alike."""
        objects = []
        for _ in range(30):
            l, m, u = np.sort(rng.uniform(-10, 10, size=3))
            objects.append(fg.FuzzyNumber.from_triple(l, m, u))
        for _ in range(30):
            a, b = random_separated_pair(rng)
            objects.append(fg.fuzzy_distance(a, b))
        for num in objects:
            rows = num.cuts(101)
            lo, hi = rows[:, 1], rows[:, 2]
            assert np.all(np.diff(lo) >= -1e-12)
            assert np.all(np.diff(hi) <= 1e-12)
            assert np.all(lo <= hi + 1e-12)


class TestResultsAreFuzzyNumbers:
    """Closeness, Hausdorff and projection results are fuzzy numbers themselves."""

    def test_cut_table_and_membership(self, ex22_pair):
        a, b = ex22_pair
        h = fg.fuzzy_hausdorff(a, b)
        m = fg.metric_md(a, b, 1.0)
        assert isinstance(m, fg.FuzzyCloseness) and m.t == 1.0
        assert isinstance(h, fg.HausdorffResult)
        assert h.projected_a.line is h.line and h.projected_b.line is h.line
        alphas = np.linspace(0.0, 1.0, 5)
        numbers = [m, fg.closeness(fg.fuzzy_distance(a, b), 20.0), h, h.projected_a,
                   h.projected_b]
        for num in numbers:
            assert isinstance(num, fg.FuzzyNumber)
            assert not hasattr(num, "value")
            lo, hi = num.cut_table(alphas)
            assert list(zip(lo.tolist(), hi.tolist())) == [num.cut(x) for x in alphas.tolist()]
            assert num.cut(0.0) == (num.summary.l, num.summary.u)
            assert num.membership(num.summary.m) == pytest.approx(1.0, abs=1e-12)
            assert num.membership(num.summary.u + 1.0) == 0.0
        for proj in (h.projected_a, h.projected_b):
            assert isinstance(proj, fg.ProjectedFuzzyNumber)
            assert isinstance(proj, fg.TriangularNumber)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_closeness_rejects_bad_scale(self, ex22_pair, t):
        d = fg.fuzzy_distance(*ex22_pair)
        with pytest.raises(ValueError, match="scale t must be finite and positive"):
            fg.FuzzyCloseness(d, t)


class TestValidation:
    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            fg.Spread.circular(0.0)
        with pytest.raises(ValueError):
            fg.Spread.elliptical(1.0, -2.0)

    def test_circular_requires_equal_radii(self):
        with pytest.raises(ValueError):
            fg.Spread("circular", 1.0, 2.0)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            fg.Point2(float("nan"), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan"), np.float64("-inf")])
    def test_nonfinite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            fg.Point2(bad, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            fg.Point2(0.0, bad)

    def test_point_coordinates_stored_as_python_floats(self):
        for x, y in ((1, 2), (np.float64(1.5), 2.0), (1.5, np.int64(2)), (1.5, -2.0)):
            p = fg.Point2(x, y)
            assert (type(p.x), type(p.y)) == (float, float)
            assert (p.x, p.y) == (float(x), float(y))
