"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test name carries its criterion number; the conftest summary hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import math

import numpy as np
import pytest

import fuzgeo as fg
from fuzgeo import Branch, OverlapCase
from conftest import env_seed
from oracles import (general_position_points, general_position_triple,
                     random_separated_pair, theta_grid_extrema)

LO_SQ = (5.667025, 9.883959, 4.449017)
HI_SQ = (43.618887, -28.497955, 4.879067)


@pytest.fixture(scope="module")
def ex22():
    return (fg.FuzzyPoint.circular(1, 0, 1),
            fg.FuzzyPoint.elliptical(5, 2, 1, 1.5))


@pytest.fixture(scope="module")
def ex41():
    return (fg.FuzzyPoint.circular(0, 0, 2), fg.FuzzyPoint.circular(5, 0, 2))


@pytest.fixture(scope="module")
def ex42():
    return (fg.FuzzyPoint.circular(0, 0, 1), fg.FuzzyPoint.circular(5, 0, 2))


def test_criterion_1_distance_reproduction(ex22):
    """distance summary (2.380551, 4.472136, 6.604459) within 1e-4"""
    summary = fg.fuzzy_distance(*ex22).summary
    assert summary.l == pytest.approx(2.380551, abs=1e-4)
    assert summary.m == pytest.approx(4.472136, abs=1e-4)
    assert summary.u == pytest.approx(6.604459, abs=1e-4)


def test_criterion_2_per_alpha_polynomials(ex22):
    """per-alpha endpoint polynomials reproduced within 1e-3"""
    dist = fg.fuzzy_distance(*ex22)
    for alpha in (0.0, 0.25, 0.5, 0.75):
        lo, hi = dist.cut(alpha)
        lo_expected = LO_SQ[0] + LO_SQ[1] * alpha + LO_SQ[2] * alpha ** 2
        hi_expected = HI_SQ[0] + HI_SQ[1] * alpha + HI_SQ[2] * alpha ** 2
        assert lo ** 2 == pytest.approx(lo_expected, abs=1e-3)
        assert hi ** 2 == pytest.approx(hi_expected, abs=1e-3)


def test_criterion_3_extremal_angles(ex22):
    """argmin 0.4631 and argmax 3.8168 within 2e-3, grid cross-validated"""
    dist = fg.fuzzy_distance(*ex22)
    assert dist.argmin_theta == pytest.approx(0.4631, abs=2e-3)
    assert dist.argmax_theta == pytest.approx(3.8168, abs=2e-3)
    lo, hi, th_lo, th_hi = theta_grid_extrema(*ex22, alpha=0.0, samples=10_000)
    assert dist.cut(0.0)[0] == pytest.approx(lo, abs=1e-6)
    assert dist.cut(0.0)[1] == pytest.approx(hi, abs=1e-6)
    step = 2 * math.pi / 10_000
    for mine, grid in ((dist.argmin_theta, th_lo), (dist.argmax_theta, th_hi)):
        dd = abs(mine - grid) % math.pi
        assert min(dd, math.pi - dd) < 2e-3 + step


def test_criterion_4_core_slope_proposition(rng):
    """argmin equals the core slope (mod pi) within 1e-6, 50 circular pairs"""
    for _ in range(50):
        a, b = random_separated_pair(rng)
        a = fg.FuzzyPoint(a.core, fg.Spread.circular(a.spread.p1))
        b = fg.FuzzyPoint(b.core, fg.Spread.circular(b.spread.p1))
        psi = fg.prop_core_angle(a, b)
        for alpha in (0.0, 0.5):
            theta = fg.fuzzy_distance(a, b).argmin_theta % math.pi
            dd = abs(theta - psi)
            assert min(dd, math.pi - dd) < 1e-6


def test_criterion_5_hausdorff_reproduction(ex22):
    """fuzzy Hausdorff (2.35379606, 4.47213595, 6.59016994) reproduced"""
    res = fg.fuzzy_hausdorff(*ex22)
    assert res.summary.m == pytest.approx(4.47213595, abs=1e-6)
    assert res.summary.u == pytest.approx(6.59016994, abs=1e-6)
    assert res.summary.l == pytest.approx(2.35379606, abs=1e-3)
    # the reference lower digit is inconsistent with the projected triples
    # it derives from; the exact construction value is logged here
    construction = res.summary.l
    print(f"\nexact construction lower endpoint: {construction:.9f} "
          f"(reference 2.35379606)")
    assert construction == pytest.approx(2.354102, abs=1e-6)
    assert abs(construction - 2.35379606) < 5e-4


def test_criterion_6_projected_triples(ex22):
    """projected fuzzy numbers along the core line reproduced within 1e-6"""
    res = fg.fuzzy_hausdorff(*ex22)
    expected_a = (0.118033989, 1.118033989, 2.118033989)
    expected_b = (4.472135955, 5.59016994, 6.708203932)
    for got, want in zip(res.projected_a.summary.as_tuple(), expected_a):
        assert got == pytest.approx(want, abs=1e-6)
    for got, want in zip(res.projected_b.summary.as_tuple(), expected_b):
        assert got == pytest.approx(want, abs=1e-6)


def test_criterion_7_equal_spread_midset(ex41):
    """equal spreads give the crisp bisector line x = 2.5 at every level"""
    bbox = (-1.0, -4.0, 6.0, 4.0)
    resolution = 512
    cell = max(bbox[2] - bbox[0], bbox[3] - bbox[1]) / (resolution - 1)
    for alpha in (0.0, 0.5, 1.0):
        polys = fg.sample_midset(*ex41, alpha=alpha, bbox=bbox,
                                 resolution=resolution)
        pts = np.vstack(polys[Branch.INVERSE])
        assert len(pts) > 100
        assert np.max(np.abs(pts[:, 0] - 2.5)) < 2 * cell
        conic = fg.conic_coefficients(*ex41, alpha=alpha, branch=Branch.INVERSE)
        assert fg.classify_conic(conic) == "line"


def test_criterion_8_hyperbola_midset(ex42):
    """analytic conic and sampled curves match the reference hyperbola"""
    conic = fg.conic_coefficients(*ex42, alpha=0.0, branch=Branch.INVERSE)
    reference = fg.ConicCoefficients(4.0, 0.0, -1.0 / 6.0, -10.0, 0.0, 24.0)
    for got, want in zip(conic.as_tuple(), reference.normalized().as_tuple()):
        assert got == pytest.approx(want, abs=1e-9)
    bbox = (-1.0, -4.0, 6.0, 4.0)
    for alpha in (0.0, 0.25, 0.5):
        u = 1.0 - alpha
        polys = fg.sample_midset(*ex42, alpha=alpha, bbox=bbox, resolution=512)
        pts = np.vstack(polys[Branch.INVERSE])
        assert len(pts) > 100
        residual = ((2 * pts[:, 0] - 5) ** 2 / u ** 2
                    - 4 * pts[:, 1] ** 2 / (25 - u ** 2) - 1.0)
        assert np.max(np.abs(residual)) < 1e-2


# one configuration per row of the overlap-case table: (point A, point B,
# expected (case, {branch: class}) per band delimited by the thresholds)
_HYP = {Branch.INVERSE: "hyperbola"}
_ELL = {Branch.SAME: "ellipse"}
_BOTH = {Branch.INVERSE: "hyperbola", Branch.SAME: "ellipse"}
TABLE_ROWS = [
    ("non_overlapping", (0, 0, 1), (5, 0, 2),
     [(OverlapCase.NON_OVERLAPPING, _HYP)]),
    ("externally_tangent", (0, 0, 1), (3, 0, 2),
     [(OverlapCase.NON_OVERLAPPING, _HYP)]),
    ("partially_overlapping", (0, 0, 1), (2, 0, 2),
     [(OverlapCase.PARTIALLY_OVERLAPPING, _BOTH),
      (OverlapCase.NON_OVERLAPPING, _HYP)]),
    ("internally_tangent", (0, 0, 1), (2, 0, 3),
     [(OverlapCase.PARTIALLY_OVERLAPPING, _BOTH),
      (OverlapCase.NON_OVERLAPPING, _HYP)]),
    ("fully_overlapping", (0, 0, 2), (1, 0, 4),
     [(OverlapCase.FULLY_OVERLAPPING, _ELL),
      (OverlapCase.PARTIALLY_OVERLAPPING, _BOTH),
      (OverlapCase.NON_OVERLAPPING, _HYP)]),
    ("concentric", (0, 0, 1), (0, 0, 2),
     [(OverlapCase.CONCENTRIC, _ELL)]),
]


def test_criterion_9_case_table_sweep():
    """six table rows classify as predicted in every alpha band"""
    for row, spec_a, spec_b, expected_bands in TABLE_ROWS:
        a = fg.FuzzyPoint.circular(*spec_a)
        b = fg.FuzzyPoint.circular(*spec_b)
        th = fg.alpha_thresholds(a, b)
        edges = sorted({0.0, 1.0} | {v for v in (th.n1, th.n2)
                                     if v is not None and 0.0 < v < 1.0})
        bands = list(zip(edges[:-1], edges[1:]))
        assert len(bands) == len(expected_bands), row
        for (lo, hi), (case, classes) in zip(bands, expected_bands):
            mid = 0.5 * (lo + hi)
            assert fg.overlap_case(a, b, mid) == case, (row, mid)
            active = fg.active_branches(fg.overlap_case(a, b, mid))
            assert set(active) == set(classes), (row, mid)
            for branch, conic_class in classes.items():
                conic = fg.conic_coefficients(a, b, mid, branch)
                assert fg.classify_conic(conic) == conic_class, (row, mid, branch)
        # tangent rows carry their tag exactly at the support level
        if row == "externally_tangent":
            assert fg.overlap_case(a, b, 0.0) == OverlapCase.EXTERNALLY_TANGENT
        if row == "internally_tangent":
            assert fg.overlap_case(a, b, 0.0) == OverlapCase.INTERNALLY_TANGENT
    # the reference thresholds of the fully-overlapping configuration
    th = fg.alpha_thresholds(fg.FuzzyPoint.circular(0, 0, 2),
                             fg.FuzzyPoint.circular(1, 0, 4))
    assert th.n1 == pytest.approx(0.5, abs=1e-9)
    assert th.n2 == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_criterion_10_metric_axioms():
    """metric axioms pass for both t-norms; componentwise triangle holds"""
    rng = np.random.default_rng(env_seed())
    points = general_position_points(rng, 10)
    for tnorm in (fg.PRODUCT, fg.MINIMUM):
        report = fg.check_metric_axioms(points, (0.5, 1.0, 2.0), tnorm)
        assert report.passed, (tnorm.name,
                               [c.name for c in report.checks if not c.passed])
    for _ in range(100):
        triple = general_position_triple(rng)
        report = fg.check_ks_axioms(triple)
        assert report.triangle.passed, report.triangle.failures[:1]
        assert report.passed


def test_criterion_11_closeness_curve_shape(ex22):
    """closeness spread is small at extreme t and peaks above 0.15"""
    a, b = ex22
    assert fg.closeness_spread(a, b, 1e-4) < 1e-3
    assert fg.closeness_spread(a, b, 1e4) < 1e-2
    peak = max(fg.closeness_spread(a, b, float(t))
               for t in np.geomspace(1.0, 10.0, 40))
    assert peak > 0.15
    lo, hi = fg.metric_md(a, b, 1.0).cut(0.0)
    assert lo == pytest.approx(0.131502, abs=1e-4)
    assert hi == pytest.approx(0.295810, abs=1e-4)


def test_criterion_12_invariance(ex41, ex42):
    """distance-form and closeness-form zero sets agree on 512^2 grids"""
    rng = np.random.default_rng(env_seed())
    configs = [ex41, ex42]
    while len(configs) < 12:
        a = fg.FuzzyPoint.circular(*rng.uniform(-4, 4, size=2),
                                   rng.uniform(0.3, 2.5))
        b = fg.FuzzyPoint.circular(*rng.uniform(-4, 4, size=2),
                                   rng.uniform(0.3, 2.5))
        if a.core.distance_to(b.core) > 1e-3:
            configs.append((a, b))
    for a, b in configs:
        report = fg.invariance_check(a, b, t_values=(0.5, 1.0, 10.0),
                                     resolution=512)
        assert report.disagreements == 0
        assert report.checked > 0


def test_criterion_13_property_suites(rng):
    """nesting, symmetry, triangle and optimizer-oracle equivalence"""
    # alpha-cut nesting over 101 levels on 100 random objects
    objects = []
    for _ in range(50):
        l, m, u = np.sort(rng.uniform(-10, 10, size=3))
        objects.append(fg.FuzzyNumber.from_triple(l, m, u))
    for _ in range(25):
        objects.append(fg.fuzzy_distance(*random_separated_pair(rng)))
    for _ in range(25):
        # overlapping pairs exercise the clamped lower branch
        a = fg.FuzzyPoint.circular(*rng.uniform(-2, 2, size=2),
                                   rng.uniform(0.5, 3))
        b = fg.FuzzyPoint.circular(*rng.uniform(-2, 2, size=2),
                                   rng.uniform(0.5, 3))
        objects.append(fg.fuzzy_distance(a, b))
    for num in objects:
        rows = num.cuts(101)
        assert np.all(np.diff(rows[:, 1]) >= -1e-12)
        assert np.all(np.diff(rows[:, 2]) <= 1e-12)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-12)

    # symmetry of the distance cuts
    for _ in range(20):
        a, b = random_separated_pair(rng)
        d_ab, d_ba = fg.fuzzy_distance(a, b), fg.fuzzy_distance(b, a)
        for alpha in np.linspace(0, 1, 11):
            ab, ba = d_ab.cut(float(alpha)), d_ba.cut(float(alpha))
            assert ab[0] == pytest.approx(ba[0], abs=1e-9)
            assert ab[1] == pytest.approx(ba[1], abs=1e-9)

    # componentwise triangle inequality on summaries
    for _ in range(30):
        pts = general_position_triple(rng)
        lhs = fg.fuzzy_distance(pts[0], pts[1]).summary
        rhs = fg.tri_add(fg.fuzzy_distance(pts[0], pts[2]).summary,
                         fg.fuzzy_distance(pts[2], pts[1]).summary)
        assert fg.fuzzy_leq(lhs, fg.TriangularTriple(
            rhs.l + 1e-9, rhs.m + 1e-9, rhs.u + 1e-9))

    # optimizer extrema match the dense grid oracle
    for _ in range(100):
        a, b = random_separated_pair(rng)
        dist = fg.fuzzy_distance(a, b)
        lo, hi, _, _ = theta_grid_extrema(a, b, 0.0)
        assert dist.cut(0.0)[0] == pytest.approx(lo, abs=1e-6)
        assert dist.cut(0.0)[1] == pytest.approx(hi, abs=1e-6)
