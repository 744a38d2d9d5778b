import numpy as np
import pytest

import fuzgeo as fg
from oracles import (bisect_membership, general_position_points, general_position_triple,
                     ks_axioms_reference, membership_pairs, membership_probes,
                     metric_axioms_reference, support_width)


def assert_reports_equal(got, want):
    """Same checks, case counts, failure lists (order included) and identity notes."""
    assert got.tnorm == want.tnorm
    assert len(got.checks) == len(want.checks)
    for g, w in zip(got.checks, want.checks):
        assert (g.name, g.checked, g.failures) == (w.name, w.checked, w.failures)
    assert got.identity.notes == want.identity.notes


class TestTNorms:
    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM])
    def test_monoid_laws_on_grid(self, tnorm):
        grid = np.linspace(0, 1, 11)
        for x in grid:
            assert tnorm(x, 1.0) == pytest.approx(x, abs=1e-12)
            for y in grid:
                assert tnorm(x, y) == pytest.approx(tnorm(y, x), abs=1e-12)
                assert 0.0 <= tnorm(x, y) <= 1.0
                for z in grid:
                    assert tnorm(tnorm(x, y), z) == pytest.approx(
                        tnorm(x, tnorm(y, z)), abs=1e-12)

    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM])
    def test_monotone(self, tnorm):
        grid = np.linspace(0, 1, 9)
        for x1 in grid:
            for x2 in grid:
                if x1 > x2:
                    continue
                for y1 in grid:
                    for y2 in grid:
                        if y1 <= y2:
                            assert tnorm(x1, y1) <= tnorm(x2, y2) + 1e-12


class TestMetricMd:
    def test_core_value(self, ex22_pair):
        for t in (0.5, 1.0, 3.0):
            m = fg.metric_md(*ex22_pair, t=t)
            assert m.summary.m == pytest.approx(t / (t + 4.472136), abs=1e-6)

    def test_crisp_identical_points_give_one(self):
        # tiny spreads stand in for crisp points; the core value is exactly 1
        p = fg.FuzzyPoint.circular(1, 1, 1e-9)
        m = fg.metric_md(p, p, t=1.0)
        assert m.summary.m == 1.0
        lo, hi = m.cut(0.0)
        assert hi == 1.0
        assert lo == pytest.approx(1.0, abs=1e-8)

    def test_one_distance_serves_every_scale(self, ex22_pair):
        dist = fg.fuzzy_distance(*ex22_pair)
        for t in (0.1, 1.0, 30.0):
            shared = fg.closeness(dist, t)
            fresh = fg.metric_md(*ex22_pair, t=t)
            assert shared.summary == fresh.summary
            for alpha in (0.0, 0.4, 1.0):
                assert shared.cut(alpha) == fresh.cut(alpha)

    def test_support_cut_is_interval_image(self, ex22_pair):
        m = fg.metric_md(*ex22_pair, t=1.0)
        lo, hi = m.cut(0.0)
        # oracle: image of the reference support (2.380551, 6.604459)
        assert lo == pytest.approx(1.0 / 7.604459, abs=1e-5)
        assert hi == pytest.approx(1.0 / 3.380551, abs=1e-5)

    def test_cuts_inside_unit_interval(self, rng):
        for _ in range(10):
            pts = general_position_triple(rng)
            m = fg.metric_md(pts[0], pts[1], t=float(rng.uniform(0.1, 5)))
            for alpha in np.linspace(0, 1, 7):
                lo, hi = m.cut(float(alpha))
                assert 0.0 < lo <= hi < 1.0

    def test_nonpositive_t_rejected(self, ex22_pair):
        with pytest.raises(ValueError):
            fg.metric_md(*ex22_pair, t=0.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_t_rejected(self, ex22_pair, t):
        with pytest.raises(ValueError, match="scale t must be finite"):
            fg.closeness(fg.fuzzy_distance(*ex22_pair), t)

    def test_monotone_in_t(self, ex22_pair):
        a, b = ex22_pair
        prev = None
        for t in np.geomspace(0.01, 100, 25):
            lo, hi = fg.metric_md(a, b, float(t)).cut(0.0)
            if prev is not None:
                assert lo > prev[0] and hi > prev[1]
            prev = (lo, hi)

    def test_distance_dominance_flips(self, rng):
        # componentwise smaller distance summary -> larger closeness summary
        a = fg.FuzzyPoint.circular(0, 0, 0.5)
        near = fg.FuzzyPoint.circular(3, 0, 0.5)
        far = fg.FuzzyPoint.circular(7, 0, 0.5)
        d_near = fg.fuzzy_distance(a, near).summary
        d_far = fg.fuzzy_distance(a, far).summary
        assert d_near <= d_far
        m_near = fg.metric_md(a, near, 1.0).summary
        m_far = fg.metric_md(a, far, 1.0).summary
        assert m_far <= m_near


class TestClosenessMembership:
    @pytest.mark.parametrize("t", [0.05, 1.0, 20.0])
    def test_matches_bisection(self, rng, t):
        for a, b in membership_pairs(rng, 24):
            value = fg.metric_md(a, b, t)
            for y in membership_probes(value, 0.05) + [1.0, 1.5]:
                assert value.membership(y) == pytest.approx(
                    bisect_membership(value.cut, y), abs=1e-8)

    def test_core_grade_is_one(self, ex22_pair):
        value = fg.metric_md(*ex22_pair, 1.0)
        assert value.membership(value.summary.m) == pytest.approx(1.0, abs=1e-12)
        assert value.membership(0.0) == 0.0


class TestClosenessSpread:
    def test_limits(self, ex22_pair):
        a, b = ex22_pair
        assert support_width(fg.metric_md(a, b, 1e-4)) < 1e-3
        assert support_width(fg.metric_md(a, b, 1e4)) < 1e-2

    def test_reference_value_at_one(self, ex22_pair):
        assert support_width(fg.metric_md(*ex22_pair, t=1.0)) == pytest.approx(
            0.164308, abs=1e-4)

    def test_peaks_in_unit_decade(self, ex22_pair):
        a, b = ex22_pair
        peak = max(support_width(fg.metric_md(a, b, float(t)))
                   for t in np.geomspace(1, 10, 30))
        assert peak > 0.15


class TestMetricAxioms:
    def test_crisp_345_triangle_product(self):
        pts = [fg.FuzzyPoint.circular(0, 0, 1e-9),
               fg.FuzzyPoint.circular(3, 0, 1e-9),
               fg.FuzzyPoint.circular(3, 4, 1e-9)]
        report = fg.check_metric_axioms(pts, (0.5, 1.0, 2.0), fg.PRODUCT)
        assert report.passed

    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM])
    def test_random_points_pass(self, rng, tnorm):
        pts = general_position_points(rng, 6)
        report = fg.check_metric_axioms(pts, (0.5, 1.0, 2.0), tnorm)
        assert report.passed, [c.name for c in report.checks if not c.passed]

    def test_identical_core_different_spread_noted(self):
        pts = [fg.FuzzyPoint.circular(0, 0, 1),
               fg.FuzzyPoint.circular(0, 0, 2),
               fg.FuzzyPoint.circular(5, 0, 1)]
        report = fg.check_metric_axioms(pts, (1.0,), fg.PRODUCT)
        note = next(n for n in report.identity.notes if n["pair"] == (0, 1))
        assert note["core_equal"] is True
        assert note["spread_equal"] is False
        assert note["closeness_core_is_one"] is True
        assert report.identity.passed

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fg.check_metric_axioms([fg.FuzzyPoint.circular(0, 0, 1)] * 2,
                                   (1.0,), fg.PRODUCT)


LUKASIEWICZ = fg.TNorm("lukasiewicz", lambda x, y: np.maximum(0.0, x + y - 1.0))


def assert_report_matches_loop(pts, tnorm, tol):
    """The array report equals the scalar loop's; returns it."""
    report = fg.check_metric_axioms(pts, (0.5, 1.0, 2.0), tnorm, tol=tol)
    assert_reports_equal(report, metric_axioms_reference(pts, (0.5, 1.0, 2.0),
                                                         tnorm, tol=tol))
    if tol < 0:
        # a negative tolerance fails every case of the tolerance checks
        assert len(report.symmetry.failures) == report.symmetry.checked
        assert len(report.continuity.failures) == report.continuity.checked
    return report


class TestMetricAxiomsAgainstLoop:
    """The array checks against the scalar loop they replaced."""

    @pytest.mark.parametrize("tol", [1e-9, -0.01, -0.1])
    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM, LUKASIEWICZ])
    def test_random_points(self, rng, tnorm, tol):
        report = assert_report_matches_loop(general_position_points(rng, 6), tnorm, tol)
        if tol == -0.1:
            # it fails some, not all, quadrangle cases
            for check in (report.quadrangle, report.quadrangle_cuts):
                assert 0 < len(check.failures) < check.checked

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("tol", [1e-9, -0.01, -0.1])
    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM, LUKASIEWICZ])
    def test_point_counts(self, rng, tnorm, tol, n):
        # 2 and 72 (j, k) pairs per first index: the failure lists' order
        # along the pair axis and across first indices
        assert_report_matches_loop(general_position_points(rng, n), tnorm, tol)

    @pytest.mark.parametrize("tol", [1e-9, -0.01])
    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM])
    def test_identical_cores(self, tnorm, tol):
        pts = [fg.FuzzyPoint.circular(0, 0, 1),
               fg.FuzzyPoint.circular(0, 0, 2),
               fg.FuzzyPoint.circular(5, 0, 1)]
        assert_reports_equal(
            fg.check_metric_axioms(pts, (0.5, 1.0, 2.0), tnorm, tol=tol),
            metric_axioms_reference(pts, (0.5, 1.0, 2.0), tnorm, tol=tol))

    def test_positivity_failures(self):
        # t / (t + hi) underflows to 0 for the distinct pairs at t = 1e-320
        pts = [fg.FuzzyPoint.circular(0, 0, 1),
               fg.FuzzyPoint.circular(1e5, 0, 2),
               fg.FuzzyPoint.circular(0, 3e5, 1)]
        report = fg.check_metric_axioms(pts, (1e-320, 1.0), fg.PRODUCT)
        assert len(report.positivity.failures) == 6
        assert_reports_equal(report, metric_axioms_reference(pts, (1e-320, 1.0),
                                                             fg.PRODUCT))


class TestIdentityCanFail:
    """Cores 1e-17 apart: at t = 1 their closeness core rounds to exactly 1."""

    pts = [fg.FuzzyPoint.circular(0, 0, 1),
           fg.FuzzyPoint.circular(1e-17, 0, 1),
           fg.FuzzyPoint.circular(5, 0, 1)]

    @pytest.mark.parametrize("tnorm", [fg.PRODUCT, fg.MINIMUM])
    def test_metric_identity_fails(self, tnorm):
        report = fg.check_metric_axioms(self.pts, (1.0,), tnorm)
        assert report.identity.failures == [(0, 1), (1, 0)]
        note = next(n for n in report.identity.notes if n["pair"] == (0, 1))
        assert note["core_equal"] is False
        assert note["closeness_core_is_one"] is True
        assert_reports_equal(report, metric_axioms_reference(self.pts, (1.0,), tnorm))

    def test_separating_scale_passes_identity(self):
        # at t = 1e-17 the closeness core is 1/2
        report = fg.check_metric_axioms(self.pts, (1e-17, 1.0), fg.PRODUCT)
        assert report.identity.passed
        assert_reports_equal(report, metric_axioms_reference(self.pts, (1e-17, 1.0),
                                                             fg.PRODUCT))

    def test_ks_zero_core_fails(self):
        report = fg.check_ks_axioms(self.pts)
        assert report.zero_core.failures == [(0, 1), (1, 0)]
        assert report.zero_core.checked == 9


class TestMetricAxiomArguments:
    @pytest.mark.parametrize("t_samples", [(), (0.0,), (-1.0, 1.0), (1.0, float("nan")),
                                           (float("inf"),)])
    def test_bad_t_samples_rejected(self, t_samples):
        pts = general_position_points(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="t_samples"):
            fg.check_metric_axioms(pts, t_samples, fg.PRODUCT)

    @pytest.mark.parametrize("alpha_samples", [0, -3])
    def test_bad_alpha_samples_rejected(self, alpha_samples):
        pts = general_position_points(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="alpha_samples"):
            fg.check_metric_axioms(pts, (1.0,), fg.PRODUCT, alpha_samples=alpha_samples)

    def test_grid_without_core_level_rejected(self):
        # one sample is the level 0 alone; the identity check reads level 1
        pts = general_position_points(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="alpha_samples must be at least 2"):
            fg.check_metric_axioms(pts, (1.0,), fg.PRODUCT, alpha_samples=1)


class TestKSAxioms:
    def test_random_triples_pass(self, rng):
        for _ in range(10):
            pts = general_position_triple(rng)
            report = fg.check_ks_axioms(pts)
            assert report.passed

    def test_self_distance_core_zero(self, rng):
        pts = general_position_triple(rng)
        report = fg.check_ks_axioms(pts)
        assert report.zero_core.passed


def assert_ks_reports_equal(got, want):
    """Same checks, case counts and failure lists, order and payload types included."""
    for g, w in zip(got.checks, want.checks, strict=True):
        assert (g.name, g.checked, g.failures) == (w.name, w.checked, w.failures)
    for failure in got.triangle.failures:
        assert all(type(v) is float for v in failure["lhs"] + failure["rhs"])


class TestKSAxiomsAgainstLoop:
    """The broadcast triangle check against the scalar loop it replaced."""

    @pytest.mark.parametrize("tol", [1e-9, -0.01, -4.0])
    def test_random_points(self, rng, tol):
        pts = general_position_points(rng, 6)
        report = fg.check_ks_axioms(pts, tol=tol)
        assert_ks_reports_equal(report, ks_axioms_reference(pts, tol=tol))
        if tol == -4.0:
            # some, not all, triangle cases fail
            assert 0 < len(report.triangle.failures) < report.triangle.checked

    @pytest.mark.parametrize("tol", [1e-9, -0.01, -4.0])
    def test_ten_points(self, rng, tol):
        pts = general_position_points(rng, 10)
        assert_ks_reports_equal(fg.check_ks_axioms(pts, tol=tol),
                                ks_axioms_reference(pts, tol=tol))

    @pytest.mark.parametrize("pts", [
        [(0, 0, 1), (2, 0, 1), (5, 0, 1)],
        [(0, 0, 1), (0, 0, 2), (5, 0, 1)],
        [(0, 0, 1), (1e-17, 0, 1), (5, 0, 1)],
        [(0, 0, 3), (1, 0, 0.5), (2, 0, 3), (1, 1, 0.1)],
    ], ids=["collinear", "identical-cores", "near-coincident", "large-middle-spread"])
    def test_fixed_points(self, pts):
        pts = [fg.FuzzyPoint.circular(*p) for p in pts]
        report = fg.check_ks_axioms(pts)
        assert_ks_reports_equal(report, ks_axioms_reference(pts))

    def test_random_triples(self, rng):
        for _ in range(10):
            pts = general_position_triple(rng)
            assert_ks_reports_equal(fg.check_ks_axioms(pts), ks_axioms_reference(pts))

    def test_overflowing_sum_raises(self):
        # d(A, B) + d(B, C) is about 2.9e308
        pts = [fg.FuzzyPoint.circular(0, 0, 1), fg.FuzzyPoint.circular(1.2e308, 0, 1),
               fg.FuzzyPoint.circular(0, 1.2e308, 1)]
        with pytest.raises(ValueError, match="must be finite") as got:
            fg.check_ks_axioms(pts)
        with pytest.raises(ValueError, match="must be finite") as want:
            ks_axioms_reference(pts)
        assert str(got.value) == str(want.value)


class TestCollinearTriple:
    """The spec's collinear example: (0,0), (2,0), (5,0), all with radius 1.

    The middle components are exactly additive.  The lower endpoints
    genuinely violate the componentwise comparison (3 > 0 + 1): a fuzzy
    point between two others loses its spread twice, the classic failure
    of inf-distances; the checker reports it instead of hiding it.
    """

    def setup_method(self):
        self.pts = [fg.FuzzyPoint.circular(0, 0, 1),
                    fg.FuzzyPoint.circular(2, 0, 1),
                    fg.FuzzyPoint.circular(5, 0, 1)]

    def test_middle_component_equality(self):
        d_xy = fg.fuzzy_distance(self.pts[0], self.pts[2]).summary
        d_xz = fg.fuzzy_distance(self.pts[0], self.pts[1]).summary
        d_zy = fg.fuzzy_distance(self.pts[1], self.pts[2]).summary
        assert d_xy.m == pytest.approx(d_xz.m + d_zy.m, abs=1e-12)
        assert d_xy.u <= d_xz.u + d_zy.u + 1e-12

    def test_lower_component_violation_is_reported(self):
        report = fg.check_ks_axioms(self.pts)
        assert report.zero_core.passed
        assert report.symmetry.passed
        assert not report.triangle.passed
        failing = report.triangle.failures[0]
        assert failing["lhs"][0] > failing["rhs"][0]


def test_general_position_search_is_bounded(rng):
    # even the regular 12-gon misses the slack bound, so no draw can pass
    with pytest.raises(ValueError, match="12 points"):
        general_position_points(rng, 12, max_draws=5)
