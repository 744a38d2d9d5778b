import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzgeo as fg
from fuzgeo import distance
from fuzgeo.distance import _extremal_directions, _pair_directions, _poly_roots, _quartic
from oracles import (almost_equals, bisect_membership, bisect_root, distance_cut_reference,
                     distance_membership, distance_membership_reference, endpoint_distances,
                     extremal_directions_reference, general_position_triple,
                     membership_pairs, membership_probes, random_circular,
                     random_elliptical, random_point, random_separated_pair,
                     theta_grid_extrema)

# reference per-alpha endpoint polynomials for the (1,0)/(5,2) pair
LO_SQ = (5.667025, 9.883959, 4.449017)
HI_SQ = (43.618887, -28.497955, 4.879067)


def poly(coeffs, alpha):
    c0, c1, c2 = coeffs
    return c0 + c1 * alpha + c2 * alpha * alpha


class TestEndpointDistances:
    def test_collinear_disks(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        lam_lo, lam_hi = endpoint_distances(a, b, 0.0, 0.0)
        assert lam_lo == pytest.approx(3.0, abs=1e-12)
        assert lam_hi == pytest.approx(7.0, abs=1e-12)

    def test_alpha_one_gives_core_distance(self, ex22_pair):
        a, b = ex22_pair
        for theta in (0.0, 1.3, 4.0):
            lam_lo, lam_hi = endpoint_distances(a, b, 1.0, theta)
            assert lam_lo == pytest.approx(a.core.distance_to(b.core), abs=1e-12)
            assert lam_hi == pytest.approx(lam_lo, abs=1e-12)

    def test_reference_minimizing_angle(self, ex22_pair):
        a, b = ex22_pair
        lam_lo, _ = endpoint_distances(a, b, 0.0, 0.4631)
        assert lam_lo == pytest.approx(2.380551, abs=1e-5)


class TestDistanceAlpha:
    def test_per_alpha_polynomials(self, ex22_pair):
        a, b = ex22_pair
        for alpha in (0.0, 0.25, 0.5, 0.75):
            lo, hi = fg.fuzzy_distance(a, b).cut(alpha)
            assert lo ** 2 == pytest.approx(poly(LO_SQ, alpha), abs=1e-3)
            assert hi ** 2 == pytest.approx(poly(HI_SQ, alpha), abs=1e-3)

    def test_core_only_at_alpha_one(self, ex22_pair):
        a, b = ex22_pair
        d = fg.fuzzy_distance(a, b)
        lo, hi = d.cut(1.0)
        assert (lo, d.params.dc, hi) == pytest.approx(
            (4.472136, 4.472136, 4.472136), abs=1e-6)

    def test_circular_pair_closed_form(self):
        # cores 5 apart, radii 1 and 2: collinear extrema dc +- 3*(1-alpha)
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 2)
        d = fg.fuzzy_distance(a, b)
        d_lo, d_hi = d.cut(0.5)
        assert (d_lo, d.params.dc, d_hi) == pytest.approx((3.5, 5.0, 6.5), abs=1e-9)
        lo, hi, _, _ = theta_grid_extrema(a, b, 0.5)
        assert d_lo == pytest.approx(lo, abs=1e-6)
        assert d_hi == pytest.approx(hi, abs=1e-6)

    def test_ordering_invariant(self, rng):
        for _ in range(20):
            a, b = random_separated_pair(rng)
            for alpha in (0.0, 0.3, 0.7, 1.0):
                d = fg.fuzzy_distance(a, b)
                lo, hi = d.cut(alpha)
                assert 0.0 <= lo <= d.params.dc <= hi


class TestFuzzyDistance:
    def test_reference_summary(self, ex22_pair):
        d = fg.fuzzy_distance(*ex22_pair)
        assert almost_equals(
            d.summary, fg.TriangularTriple(2.380551, 4.472136, 6.604459), tol=1e-4)

    def test_extremal_angles(self, ex22_pair):
        d = fg.fuzzy_distance(*ex22_pair)
        assert d.argmin_theta == pytest.approx(0.4631, abs=2e-3)
        assert d.argmax_theta == pytest.approx(3.8168, abs=2e-3)
        _, _, th_lo, th_hi = theta_grid_extrema(*ex22_pair, alpha=0.0)
        # grid argmin of the pointwise-min profile matches modulo pi
        assert min(abs(d.argmin_theta - th_lo) % math.pi,
                   math.pi - abs(d.argmin_theta - th_lo) % math.pi) < 2e-3
        assert min(abs(d.argmax_theta - th_hi) % math.pi,
                   math.pi - abs(d.argmax_theta - th_hi) % math.pi) < 2e-3

    def test_self_distance_is_fuzzy_zero(self):
        p = fg.FuzzyPoint.circular(2, 3, 1)
        d = fg.fuzzy_distance(p, p)
        assert d.summary.as_tuple() == (0.0, 0.0, 2.0)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            lo, hi = d.cut(alpha)
            assert lo == 0.0
            assert hi == pytest.approx(2.0 * (1 - alpha), abs=1e-12)

    def test_flat_profile_falls_back_to_grid(self):
        # concentric equal spreads make the boundary gap constant in theta;
        # no strict bracket exists and the dense-grid fallback is flagged
        p = fg.FuzzyPoint.circular(0, 0, 1)
        d = fg.fuzzy_distance(p, fg.FuzzyPoint.circular(0, 0, 1))
        assert d.refined is False
        assert d.summary.as_tuple() == (0.0, 0.0, 2.0)

    def test_symmetric_circular_pair(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        d = fg.fuzzy_distance(a, b)
        assert almost_equals(d.summary, fg.TriangularTriple(3, 5, 7), tol=1e-9)
        lo, hi, _, _ = theta_grid_extrema(a, b, 0.0)
        assert (lo, hi) == pytest.approx((3.0, 7.0), abs=1e-6)

    def test_symmetry_of_cuts(self, rng):
        for _ in range(15):
            a, b = random_separated_pair(rng)
            d_ab = fg.fuzzy_distance(a, b)
            d_ba = fg.fuzzy_distance(b, a)
            for alpha in np.linspace(0, 1, 11):
                ab = d_ab.cut(float(alpha))
                ba = d_ba.cut(float(alpha))
                assert ab[0] == pytest.approx(ba[0], abs=1e-9)
                assert ab[1] == pytest.approx(ba[1], abs=1e-9)

    def test_triangle_inequality_on_summaries(self, rng):
        # general position: a fuzzy point between two others provably breaks
        # the lower component (see TestCollinearTriple in test_metric)
        for _ in range(40):
            pts = general_position_triple(rng)
            d_ab = fg.fuzzy_distance(pts[0], pts[1]).summary
            d_ac = fg.fuzzy_distance(pts[0], pts[2]).summary
            d_cb = fg.fuzzy_distance(pts[2], pts[1]).summary
            total = fg.tri_add(d_ac, d_cb)
            assert d_ab.l <= total.l + 1e-9
            assert d_ab.m <= total.m + 1e-9
            assert d_ab.u <= total.u + 1e-9

    def test_monotone_endpoints(self, rng):
        for _ in range(20):
            a, b = random_separated_pair(rng)
            rows = fg.fuzzy_distance(a, b).cuts(101)
            assert np.all(np.diff(rows[:, 1]) >= -1e-12)
            assert np.all(np.diff(rows[:, 2]) <= 1e-12)

    def test_optimizer_matches_grid_oracle(self, rng):
        for _ in range(30):
            a, b = random_separated_pair(rng)
            d = fg.fuzzy_distance(a, b)
            lo, hi, _, _ = theta_grid_extrema(a, b, 0.0)
            assert d.cut(0.0)[0] == pytest.approx(lo, abs=1e-6)
            assert d.cut(0.0)[1] == pytest.approx(hi, abs=1e-6)


class TestDistanceMembership:
    def test_core_value(self, ex22_pair):
        a, b = ex22_pair
        assert distance_membership(a, b, a.core.distance_to(b.core)) == 1.0

    def test_support_endpoint(self, ex22_pair):
        a, b = ex22_pair
        lo0 = fg.fuzzy_distance(a, b).cut(0.0)[0]
        assert distance_membership(a, b, lo0) == pytest.approx(0.0, abs=1e-8)

    def test_outside_support(self, ex22_pair):
        a, b = ex22_pair
        assert distance_membership(a, b, 1.0) == 0.0
        assert distance_membership(a, b, 8.0) == 0.0

    def test_interior_value_against_root_oracle(self, ex22_pair):
        a, b = ex22_pair
        grade = distance_membership(a, b, 3.0)
        # independent oracle: alpha solving the reference lower polynomial = 9
        root = bisect_root(lambda al: poly(LO_SQ, al) - 9.0, 0.0, 1.0)
        assert grade == pytest.approx(root, abs=1e-4)
        assert grade == pytest.approx(0.29744, abs=5e-4)

    def test_negative_rejected(self, ex22_pair):
        with pytest.raises(ValueError):
            distance_membership(*ex22_pair, x=-1.0)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_value_has_grade_zero(self, ex22_pair, x):
        # NaN fails every range test; it must not fall through to grade 1
        a, b = ex22_pair
        d = fg.fuzzy_distance(a, b)
        assert d.membership(x) == 0.0
        assert fg.metric_md(a, b, 1.0).membership(x) == 0.0
        assert fg.fuzzy_hausdorff(a, b).membership(x) == 0.0
        if x < 0.0:
            with pytest.raises(ValueError, match="nonnegative"):
                distance_membership(a, b, x)
        else:
            assert distance_membership(a, b, x) == 0.0

    def test_overlapping_pair_membership(self):
        # supports overlap: the lower branch is linear below the touching
        # level u0 = dc/R, so lo(alpha) = 1 - 4(1 - alpha) here
        a = fg.FuzzyPoint.circular(0, 0, 2)
        b = fg.FuzzyPoint.circular(1, 0, 2)
        d = fg.fuzzy_distance(a, b)
        assert d.membership(0.5) == pytest.approx(0.875, abs=1e-9)
        assert bisect_membership(d.cut, 0.5) == pytest.approx(0.875, abs=1e-9)
        # grade on the flat clamped region is the level where lo leaves zero
        assert d.membership(0.0) == pytest.approx(0.75, abs=1e-9)

    def test_closed_form_cross_check(self, ex22_pair, rng):
        a, b = ex22_pair
        d = fg.fuzzy_distance(a, b)
        lo0, hi0 = d.cut(0.0)
        for x in np.linspace(lo0 + 1e-6, hi0 - 1e-6, 15):
            bisected = bisect_membership(d.cut, float(x))
            closed = d.membership(float(x))
            assert bisected == pytest.approx(closed, abs=1e-8)
        for _ in range(10):
            pa, pb = random_separated_pair(rng)
            dd = fg.fuzzy_distance(pa, pb)
            lo0, hi0 = dd.cut(0.0)
            for x in np.linspace(lo0 + 1e-6, hi0 - 1e-6, 7):
                assert dd.membership(float(x)) == pytest.approx(
                    bisect_membership(dd.cut, float(x)), abs=1e-8)


def _ell(x, y, p1, p2):
    return fg.FuzzyPoint.elliptical(x, y, p1, p2)


# summed spreads R1 = 2, R2 = 1: the evolute of the gap ellipse, where two
# stationary directions merge into a double root, has its cusps at (+-3/2, 0)
# and passes through (3/2, 3) / 2**1.5
_EVOLUTE = 2.0 ** -1.5

# geometries where the quartic loses degree or a root doubles
QUARTIC_GEOMETRIES = {
    "d2 = 0, separated": (_ell(0, 0, 1, 0.5), _ell(3, 0, 0.4, 1.2)),
    "d2 = 0, overlapping": (_ell(0, 0, 1, 0.5), _ell(0.5, 0, 0.4, 1.2)),
    "d2 tiny": (_ell(0, 0, 1, 0.5), _ell(0.5, 1e-30, 0.4, 1.2)),
    "d1 = 0": (_ell(0, 0, 1, 0.5), _ell(0, 2, 0.3, 0.9)),
    "concentric, R1 != R2": (_ell(1, 1, 1, 2), _ell(1, 1, 0.5, 0.2)),
    "cores 1e-25 apart": (_ell(0, 0, 1, 2), _ell(1e-25, -1e-25, 0.5, 0.2)),
    "R1 ~ R2": (_ell(0, 0, 1, 0.5), _ell(2, 1, 0.5, 1 + 1e-9)),
    "concentric, R1 ~ R2": (fg.FuzzyPoint.circular(0, 0, 1), _ell(0, 0, 1, 1 + 1e-12)),
    "evolute cusp": (_ell(0, 0, 1.5, 0.5), _ell(-1.5, 0, 0.5, 0.5)),
    "evolute, off axis": (_ell(0, 0, 1.5, 0.5),
                          _ell(1.5 * _EVOLUTE, 3 * _EVOLUTE, 0.5, 0.5)),
    "cores 1000 from the origin": (_ell(1000, 700, 0.8, 0.3), _ell(1003, 702, 0.2, 0.6)),
    "cores 1000 apart": (_ell(0, 0, 0.8, 0.3), _ell(1000, 5, 0.2, 0.6)),
    "spreads 1e-3": (_ell(0, 0, 1e-3, 2e-3), _ell(0.004, 0.001, 3e-3, 1e-3)),
}


def assert_extrema_match_fan(a, b):
    """The quartic's extremal gaps and the support cut are no worse than a dense fan's.

    Only the flat profile (concentric cores, R1 == R2), whose gap is the
    same in every direction, is solved without the quartic.
    """
    d = fg.fuzzy_distance(a, b)
    fan_lo, fan_hi, _, _ = theta_grid_extrema(a, b, 0.0, samples=200_000)
    [(theta_min, theta_max, refined)] = _extremal_directions([d.params])
    p = d.params
    flat = p.d1 == p.d2 == 0.0 and p.R1 == p.R2
    assert refined == (not flat)
    assert d.params.gap(theta_min, 1.0) <= fan_lo + 1e-9
    assert d.params.gap(theta_max, 1.0) >= fan_hi - 1e-9
    lo0, hi0 = d.cut(0.0)
    assert lo0 <= fan_lo + 1e-9
    assert hi0 >= fan_hi - 1e-9


def _random_pairs(rng):
    """The 20 seeded pairs of the dense-fan test, every fifth concentric."""
    pairs = []
    for i in range(20):
        a, b = random_point(rng), random_point(rng)
        if i % 5 == 0:
            b = fg.FuzzyPoint(a.core, b.spread)
        pairs.append((a, b))
    return pairs


def _scaled_pair(s):
    return _ell(0, 0, 1 * s, 2 * s), _ell(3 * s, 1 * s, 0.5 * s, 0.7 * s)


def _scaled_point(p, s):
    """p with its core coordinates and spread radii multiplied by s."""
    return fg.FuzzyPoint(fg.Point2(p.core.x * s, p.core.y * s),
                         fg.Spread(p.spread.kind, p.spread.p1 * s, p.spread.p2 * s))


# cores (0, 0) and (0, -1.5 sqrt(2)) rounded, summed spreads (2, 1): the
# base direction phi is stationary, so the quartic's constant term A1 + A2
# is exactly 0 and np.roots solves a cubic plus a zero root
ZERO_CONSTANT_PAIR = (_ell(0, -2.121320343559643, 1, 0.5), _ell(0, 0, 1, 0.5))

SPECIAL_PAIRS = {
    "scaled 1e-200": _scaled_pair(1e-200),
    "scaled 1e160": _scaled_pair(1e160),
    "concentric, elliptical": (_ell(1, 2, 1, 0.4), _ell(1, 2, 0.3, 0.9)),
    "flat, circular": (fg.FuzzyPoint.circular(1, 2, 1), fg.FuzzyPoint.circular(1, 2, 0.5)),
    "flat, same point": (_ell(1, 2, 0.5, 0.5), _ell(1, 2, 0.5, 0.5)),
    "zero constant coefficient": ZERO_CONSTANT_PAIR,
}


def _bits(directions):
    """(theta_min, theta_max) as raw float64 bits, and refined, per pair."""
    return ([np.array(d[:2]).view(np.int64).tolist() for d in directions],
            [d[2] for d in directions])


def assert_solver_matches_reference(pairs):
    """Alone, as one batch and by the one-pair solve, every pair's directions
    equal the np.roots solver's bits."""
    params = [fg.DistanceMembershipParams.from_points(a, b) for a, b in pairs]
    reference = [extremal_directions_reference(p) for p in params]
    want = _bits(reference)
    assert _bits([d for p in params for d in _extremal_directions([p])]) == want
    assert _bits(_extremal_directions(params)) == want
    assert _bits([_pair_directions(p) for p in params]) == want
    # FuzzyDistance(a, b) keeps the solve's upper direction; its lower one
    # is the touching angle where the supports overlap
    single = [fg.FuzzyDistance(a, b) for a, b in pairs]
    assert _bits([(d.argmax_theta, 0.0, d.refined) for d in single]) == _bits(
        [(theta_max, 0.0, refined) for _, theta_max, refined in reference])


class TestExtremalDirections:
    @pytest.mark.parametrize("name", sorted(QUARTIC_GEOMETRIES))
    def test_quartic_matches_dense_fan(self, name):
        assert_extrema_match_fan(*QUARTIC_GEOMETRIES[name])

    def test_random_pairs_match_dense_fan(self, rng):
        for a, b in _random_pairs(rng):
            assert_extrema_match_fan(a, b)

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_scale_free(self, scale):
        unit = fg.fuzzy_distance(*_scaled_pair(1.0))
        scaled = fg.fuzzy_distance(*_scaled_pair(scale))
        assert scaled.refined
        for alpha in (0.0, 0.5):
            assert np.array(scaled.cut(alpha)) / scale == pytest.approx(
                unit.cut(alpha), rel=1e-12)
        for x in (2.0, 3.2, 4.5):
            assert scaled.membership(x * scale) == pytest.approx(
                unit.membership(x), abs=1e-12)

    def test_closed_form_membership_matches_bisection(self, rng):
        for i in range(40):
            kind = i % 4
            if kind == 0:
                a, b = random_separated_pair(rng)
            elif kind == 1:
                # cores within [-1, 1]^2 and summed radii >= 3 overlap
                a = random_circular(rng, -1.0, 1.0, 1.5, 2.0)
                b = random_circular(rng, -1.0, 1.0, 1.5, 2.0)
            elif kind == 2:
                a = random_elliptical(rng, -1.0, 1.0, 1.5, 2.0)
                b = random_elliptical(rng, -1.0, 1.0, 1.5, 2.0)
            else:
                a = random_point(rng)
                b = fg.FuzzyPoint(a.core, random_point(rng).spread)
            d = fg.fuzzy_distance(a, b)
            lo0, hi0 = d.cut(0.0)
            xs = np.append(np.linspace(max(0.0, lo0 - 0.1), hi0 + 0.1, 25), d.params.dc)
            for x in xs:
                assert d.membership(float(x)) == pytest.approx(
                    bisect_membership(d.cut, float(x)), abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.05, 3), st.floats(0.05, 3),
           st.floats(0.05, 3), st.floats(0.05, 3))
    # cores a subnormal apart: R2 * u0 underflows to 0 although u0 > 0
    @example(dx=5e-324, dy=0.0, p1=1.0, p2=0.25, q1=0.5, q2=0.25)
    def test_cuts_nested(self, dx, dy, p1, p2, q1, q2):
        d = fg.fuzzy_distance(_ell(0, 0, p1, p2), _ell(dx, dy, q1, q2))
        rows = d.cuts(101)
        lo, hi = rows[:, 1], rows[:, 2]
        tol = 1e-12 * (1.0 + hi[0])
        assert np.all(np.diff(lo) >= -tol)
        assert np.all(np.diff(hi) <= tol)
        assert np.all(lo <= d.params.dc + tol)
        assert np.all(hi >= d.params.dc - tol)


class TestBatchedSolver:
    @pytest.mark.parametrize("name", sorted(QUARTIC_GEOMETRIES))
    def test_quartic_geometries(self, name):
        assert_solver_matches_reference([QUARTIC_GEOMETRIES[name]])

    def test_random_pairs(self, rng):
        assert_solver_matches_reference(_random_pairs(rng))

    @pytest.mark.parametrize("name", sorted(SPECIAL_PAIRS))
    def test_special_pairs(self, name):
        assert_solver_matches_reference([SPECIAL_PAIRS[name]])

    def test_cut_table_pairs(self, rng):
        # separate, overlapping, touching, concentric and flat pairs
        for pairs in _cut_table_pairs(rng).values():
            assert_solver_matches_reference(pairs)

    def test_one_pair_solve_skips_the_batch(self, monkeypatch):
        # a full-degree quartic goes straight to one 4 x 4 eigenvalue call;
        # the flat profile and a zero constant term take the batched path
        batched = []
        monkeypatch.setattr(distance, "_extremal_directions",
                            lambda params: batched.append(params) or _extremal_directions(params))
        for a, b in QUARTIC_GEOMETRIES.values():
            if _quartic(fg.DistanceMembershipParams.from_points(a, b))[1][4] != 0.0:
                fg.FuzzyDistance(a, b)
        assert batched == []
        for name in ("flat, circular", "zero constant coefficient"):
            fg.FuzzyDistance(*SPECIAL_PAIRS[name])
        assert len(batched) == 2

    def test_mixed_batch(self, rng):
        # neighbours of every kind, including flat pairs the solve skips and a
        # cubic among quartics, leave each pair's result unchanged
        pairs = [*QUARTIC_GEOMETRIES.values(), *_random_pairs(rng), *SPECIAL_PAIRS.values()]
        order = rng.permutation(len(pairs))
        assert_solver_matches_reference([pairs[i] for i in order])

    def test_zero_constant_term_is_stripped_like_np_roots(self):
        p = fg.DistanceMembershipParams.from_points(*ZERO_CONSTANT_PAIR)
        quartic = _quartic(p)[1]
        assert quartic[-1] == 0.0 and quartic[-2] != 0.0
        polys = [quartic, (1.0, 2.0, 3.0, 4.0, 5.0), (1.0, -6.0, 11.0, -6.0, 0.0),
                 (1.0, 0.0, -1.0, 0.0, 0.0), (-2.0, 1.0, 0.5, -3.0, 7.0)]
        roots = _poly_roots(polys)
        for row, poly in zip(roots, polys):
            assert np.array_equal(row.view(np.int64), np.roots(poly).real.view(np.int64))

    def test_fuzzy_distances_equal_single_pair_distances(self, rng):
        pairs = [*QUARTIC_GEOMETRIES.values(), *_random_pairs(rng), *SPECIAL_PAIRS.values(),
                 *(pair for kind in _cut_table_pairs(rng).values() for pair in kind)]
        alphas = np.linspace(0.0, 1.0, 11)
        assert fg.fuzzy_distances([]) == []
        for batched, (a, b) in zip(fg.fuzzy_distances(pairs), pairs):
            single = fg.FuzzyDistance(a, b)
            assert batched.params == single.params
            assert (batched.argmin_theta, batched.argmax_theta, batched.refined) == (
                single.argmin_theta, single.argmax_theta, single.refined)
            assert np.array_equal(np.array(batched.cut_table(alphas)),
                                  np.array(single.cut_table(alphas)))


def _edge_values(d):
    """lo0, dc and hi0, one ulp to either side of each, and +-inf."""
    return [v for x in d.summary.as_tuple() for v in (math.nextafter(x, -math.inf), x,
                                                      math.nextafter(x, math.inf))] + [
        -math.inf, math.inf]


class TestMembershipMatchesReference:
    """Grades from the cached inverse terms equal the per-call recomputation exactly."""

    def assert_grades_equal(self, pairs, pad):
        for a, b in pairs:
            d = fg.fuzzy_distance(a, b)
            xs = membership_probes(d, pad) + [0.0] + _edge_values(d)
            assert [d.membership(x) for x in xs] == [
                distance_membership_reference(d, x) for x in xs], (a, b)

    def test_seeded_families(self, rng):
        self.assert_grades_equal(membership_pairs(rng, 40), 0.1)

    @pytest.mark.parametrize("kind", ["separate", "overlapping", "touching", "concentric",
                                      "flat"])
    def test_cut_branches(self, rng, kind):
        self.assert_grades_equal(_cut_table_pairs(rng)[kind], 0.1)

    @pytest.mark.parametrize("name", sorted(QUARTIC_GEOMETRIES))
    def test_quartic_geometries(self, name):
        self.assert_grades_equal([QUARTIC_GEOMETRIES[name]], 1e-3)

    @pytest.mark.parametrize("name", sorted(SPECIAL_PAIRS))
    def test_special_pairs(self, name):
        a, b = SPECIAL_PAIRS[name]
        self.assert_grades_equal([(a, b)], 1e-3 * fg.fuzzy_distance(a, b).summary.u)

    def test_dense_values_across_support(self, rng):
        for a, b in membership_pairs(rng, 8):
            d = fg.fuzzy_distance(a, b)
            lo0, _, hi0 = d.summary.as_tuple()
            xs = np.linspace(lo0, hi0, 2001).tolist()
            assert [d.membership(x) for x in xs] == [
                distance_membership_reference(d, x) for x in xs]

    def test_batched_distances_share_grades(self, rng):
        pairs = membership_pairs(rng, 12)
        for d, (a, b) in zip(fg.fuzzy_distances(pairs), pairs):
            xs = membership_probes(d, 0.1) + _edge_values(d)
            assert [d.membership(x) for x in xs] == [
                distance_membership_reference(fg.FuzzyDistance(a, b), x) for x in xs]


def _cut_table_pairs(rng):
    """Four seeded pairs of each geometry whose cut() takes a different branch."""
    pairs = {"separate": [], "overlapping": [], "touching": [], "concentric": [], "flat": []}
    for _ in range(4):
        pairs["separate"].append(random_separated_pair(rng))
        pairs["overlapping"].append((random_elliptical(rng, -1.0, 1.0, 1.5, 2.0),
                                     random_elliptical(rng, -1.0, 1.0, 1.5, 2.0)))
        # cores one summed spread apart along x: d1 / R1 == 1 and d2 == 0 exactly
        a, b = random_point(rng), random_point(rng)
        pairs["touching"].append((
            fg.FuzzyPoint(fg.Point2(0.0, a.core.y), a.spread),
            fg.FuzzyPoint(fg.Point2(-(a.spread.p1 + b.spread.p1), a.core.y), b.spread)))
        a = random_elliptical(rng)
        pairs["concentric"].append((a, fg.FuzzyPoint(a.core, random_elliptical(rng).spread)))
        a = random_circular(rng)
        pairs["flat"].append((a, fg.FuzzyPoint(a.core, random_circular(rng).spread)))
    return pairs


class TestCutTable:
    def test_pairs_cover_every_branch(self, rng):
        for kind, pairs in _cut_table_pairs(rng).items():
            for a, b in pairs:
                d = fg.fuzzy_distance(a, b)
                u0 = d.params.separation_level
                assert {"separate": u0 > 1.0, "overlapping": 0.0 < u0 < 1.0,
                        "touching": u0 == 1.0, "concentric": u0 == 0.0 and d.refined,
                        "flat": not d.refined}[kind]

    def test_matches_cut_bit_for_bit(self, rng):
        # every kind of fuzzy number: distances, closeness at two scales,
        # Hausdorff numbers and their triangular projections
        alphas = np.concatenate([np.linspace(0.0, 1.0, 101), rng.random(50)])
        numbers = [fg.TriangularNumber(*ends)
                   for ends in np.sort(rng.uniform(-10, 10, size=(10, 3))).tolist()]
        for pairs in _cut_table_pairs(rng).values():
            for a, b in pairs:
                d = fg.fuzzy_distance(a, b)
                numbers += [d, fg.closeness(d, 0.05), fg.closeness(d, 20.0)]
                if a.core != b.core:
                    h = fg.fuzzy_hausdorff(a, b)
                    numbers += [h, h.projected_a, h.projected_b]
        for num in numbers:
            table = np.column_stack(num.cut_table(alphas))
            loop = np.array([num.cut(float(alpha)) for alpha in alphas])
            assert np.array_equal(table.view(np.int64), loop.view(np.int64)), num

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e160])
    def test_matches_scalar_reference(self, rng, scale):
        alphas = np.concatenate([np.linspace(0.0, 1.0, 101), rng.random(50)])
        pairs = [*QUARTIC_GEOMETRIES.values(),
                 *(pair for kind in _cut_table_pairs(rng).values() for pair in kind)]
        for a, b in pairs:
            d = fg.fuzzy_distance(_scaled_point(a, scale), _scaled_point(b, scale))
            table = np.column_stack(d.cut_table(alphas))
            reference = np.array([distance_cut_reference(d, alpha) for alpha in alphas.tolist()])
            assert np.array_equal(table.view(np.int64), reference.view(np.int64)), (a, b)

    def test_cuts_rows_match_scalar_reference(self, ex22_pair):
        d = fg.fuzzy_distance(*ex22_pair)
        rows = np.array([(alpha, *distance_cut_reference(d, alpha))
                         for alpha in np.linspace(0.0, 1.0, 101).tolist()])
        assert np.array_equal(d.cuts().view(np.int64), rows.view(np.int64))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, ex22_pair, bad):
        with pytest.raises(ValueError, match="alpha must be in"):
            fg.fuzzy_distance(*ex22_pair).cut_table([0.0, bad])


def _table_pairs(rng, scale=1.0):
    """The quartic geometries and the seeded pairs of every cut branch, scaled by scale."""
    pairs = [*QUARTIC_GEOMETRIES.values(),
             *(pair for kind in _cut_table_pairs(rng).values() for pair in kind)]
    return [(_scaled_point(a, scale), _scaled_point(b, scale)) for a, b in pairs]


def _shifted(p, x):
    """p with its core moved by x along the first axis."""
    return fg.FuzzyPoint(fg.Point2(p.core.x + x, p.core.y), p.spread)


def assert_rows_equal_single_pair_distances(table, pairs):
    """Each row and column entry of the table equals FuzzyDistance(a, b) bit for bit."""
    alphas = np.linspace(0.0, 1.0, 11)
    columns = zip(table.R1, table.R2, table.d1, table.d2, table.dc, table.u0,
                  table.theta_min, table.theta_max, table.refined)
    for row, column, (a, b) in zip(table.rows(), columns, pairs, strict=True):
        single = fg.FuzzyDistance(a, b)
        p = single.params
        assert row.params == p
        want = (p.R1, p.R2, p.d1, p.d2, p.dc, p.separation_level, single.argmin_theta,
                single.argmax_theta, single.refined)
        assert repr(tuple(np.array(column[:8]).tolist())) == repr(want[:8])
        assert column[8] == want[8]
        assert repr((row.argmin_theta, row.argmax_theta, row.refined)) == repr(want[-3:])
        assert repr((row.summary, row._inverse)) == repr((single.summary, single._inverse))
        assert np.array_equal(np.array(row.cut_table(alphas)),
                              np.array(single.cut_table(alphas)))


class TestDistanceTable:
    """One table for many pairs: its arrays equal the per-pair scalar cuts bit for bit.

    Every table mixes all three lower end branches, so a linear end evaluated
    on a concentric row divides 0 by 0, which the RuntimeWarning filter of
    the test configuration turns into a failure.
    """

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e160])
    def test_cut_table_matches_scalar_reference(self, rng, scale):
        alphas = np.concatenate([np.linspace(0.0, 1.0, 101), rng.random(50)])
        table = fg.DistanceTable(_table_pairs(rng, scale))
        lo, hi = table.cut_table(alphas)
        assert lo.shape == hi.shape == (len(table), len(alphas))
        reference = np.array([[distance_cut_reference(d, alpha) for alpha in alphas.tolist()]
                              for d in table.rows()])
        assert np.array_equal(np.stack((lo, hi), axis=-1).view(np.int64),
                              reference.view(np.int64))

    def test_rows_equal_single_pair_distances(self, rng):
        pairs = _table_pairs(rng) + membership_pairs(rng, 12) + list(SPECIAL_PAIRS.values())
        assert_rows_equal_single_pair_distances(fg.DistanceTable(pairs), pairs)

    def test_all_flat_rows(self, rng):
        # concentric cores and equal summed spreads: nothing to solve
        pairs = [SPECIAL_PAIRS["flat, circular"], SPECIAL_PAIRS["flat, same point"],
                 *_cut_table_pairs(rng)["flat"]]
        table = fg.DistanceTable(pairs)
        assert not table.refined.any()
        assert_rows_equal_single_pair_distances(table, pairs)

    def test_cubic_rows_only(self):
        # every quartic with a zero constant term: one stack of 3 x 3 matrices
        a, b = ZERO_CONSTANT_PAIR
        pairs = [(_shifted(_scaled_point(a, s), x), _shifted(_scaled_point(b, s), x))
                 for s in (2.0 ** -30, 0.25, 1.0, 1024.0) for x in (0.0, 3.0, -7.0)]
        for a, b in pairs:
            quartic = _quartic(fg.DistanceMembershipParams.from_points(a, b))[1]
            assert quartic[4] == 0.0 and quartic[3] != 0.0
        assert_rows_equal_single_pair_distances(fg.DistanceTable(pairs), pairs)

    @pytest.mark.parametrize("name", sorted(QUARTIC_GEOMETRIES) + sorted(SPECIAL_PAIRS))
    def test_one_pair_table(self, name):
        pair = {**QUARTIC_GEOMETRIES, **SPECIAL_PAIRS}[name]
        assert_rows_equal_single_pair_distances(fg.DistanceTable([pair]), [pair])

    def test_square_table_with_self_pairs(self, rng):
        # as the axiom reports build it: flat circular and concentric
        # elliptical self-pairs on the diagonal
        points = [a for pair in membership_pairs(rng, 3) for a in pair]
        pairs = [(a, b) for a in points for b in points]
        table = fg.DistanceTable(pairs)
        assert not table.refined.all()
        assert_rows_equal_single_pair_distances(table, pairs)

    def test_support_and_summary_match_rows(self, rng):
        table = fg.DistanceTable(_table_pairs(rng))
        rows = table.rows()
        lo0, hi0 = table.support()
        assert np.array_equal(np.column_stack((lo0, hi0)).view(np.int64),
                              np.array([d.cut(0.0) for d in rows]).view(np.int64))
        assert np.array_equal(table.summary().view(np.int64),
                              np.array([d.summary.as_tuple() for d in rows]).view(np.int64))

    @pytest.mark.parametrize("far", [
        # cores 3.4e308 apart: the offset overflows to inf
        (fg.FuzzyPoint.circular(-1.7e308, 0, 1), fg.FuzzyPoint.circular(1.7e308, 0, 1)),
        # summed spreads overflow to inf
        (fg.FuzzyPoint.circular(0, 0, 1e308), fg.FuzzyPoint.circular(3, 0, 1e308)),
    ], ids=["offset", "spreads"])
    # the array solve's arithmetic on inf and NaN warns nothing
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_geometry_rejected_before_the_solve(self, far, capfd):
        # as np.linalg.eigvals rejects it, and LAPACK never sees it
        near = (fg.FuzzyPoint.circular(0, 0, 1), fg.FuzzyPoint.circular(3, 0, 1))
        for build in (lambda: fg.FuzzyDistance(*far), lambda: fg.DistanceTable([near, far])):
            with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                build()
        assert capfd.readouterr() == ("", "")

    def test_empty_table(self):
        table = fg.DistanceTable([])
        assert len(table) == 0 and table.rows() == []
        lo, hi = table.cut_table([0.0, 0.5])
        assert lo.shape == hi.shape == (0, 2)
        assert table.summary().shape == (0, 3)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, ex22_pair, bad):
        with pytest.raises(ValueError, match="alpha must be in"):
            fg.DistanceTable([ex22_pair]).cut_table([0.0, bad])


class TestCoreAngleProposition:
    def test_horizontal(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(5, 0, 1)
        assert fg.prop_core_angle(a, b) == 0.0

    def test_reference_slope(self):
        a = fg.FuzzyPoint.circular(1, 0, 1)
        b = fg.FuzzyPoint.circular(5, 2, 1)
        assert fg.prop_core_angle(a, b) == pytest.approx(0.46365, abs=1e-5)

    def test_vertical(self):
        a = fg.FuzzyPoint.circular(0, 0, 1)
        b = fg.FuzzyPoint.circular(0, 3, 1)
        assert fg.prop_core_angle(a, b) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_coincident_cores_rejected(self):
        p = fg.FuzzyPoint.circular(0, 0, 1)
        with pytest.raises(ValueError):
            fg.prop_core_angle(p, fg.FuzzyPoint.circular(0, 0, 2))

    def test_elliptical_rejected(self):
        a = fg.FuzzyPoint.elliptical(0, 0, 1, 2)
        with pytest.raises(ValueError):
            fg.prop_core_angle(a, fg.FuzzyPoint.circular(5, 0, 1))

    def test_argmin_matches_slope_for_circular_pairs(self, rng):
        for _ in range(25):
            a, b = random_separated_pair(rng)
            a = fg.FuzzyPoint(a.core, fg.Spread.circular(a.spread.p1))
            b = fg.FuzzyPoint(b.core, fg.Spread.circular(b.spread.p1))
            psi = fg.prop_core_angle(a, b)
            for alpha in (0.0, 0.5):
                theta = fg.fuzzy_distance(a, b).argmin_theta % math.pi
                delta = abs(theta - psi)
                assert min(delta, math.pi - delta) < 1e-6
