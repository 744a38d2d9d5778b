"""The scale-indexed fuzzy closeness of fuzzy points and axiom checks.

The closeness of two fuzzy points at scale t > 0 is the image of their
fuzzy distance under x -> t / (t + x).  The map is strictly decreasing,
so an alpha-cut [lo, hi] of the distance maps exactly to the closeness
cut [t/(t+hi), t/(t+lo)]; no closed-form approximation is involved.

Axiom checking is reporting machinery: violations are collected and
returned, never raised, so degenerate configurations can be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple, tri_add
from .distance import FuzzyDistance, fuzzy_distance


@dataclass(frozen=True)
class TNorm:
    """Commutative, associative, monotone binary operation on [0,1] with unit 1."""

    name: str
    fn: Callable[[float, float], float]

    def __call__(self, x: float, y: float) -> float:
        return self.fn(x, y)


PRODUCT = TNorm("product", lambda x, y: x * y)
MINIMUM = TNorm("minimum", min)


@dataclass(frozen=True)
class FuzzyCloseness:
    """Degree of closeness at scale t, as a fuzzy number inside [0, 1]."""

    t: float
    value: FuzzyNumber

    @property
    def summary(self) -> TriangularTriple:
        return self.value.summary


def metric_md(a: FuzzyPoint, b: FuzzyPoint, t: float) -> FuzzyCloseness:
    return closeness(fuzzy_distance(a, b), t)


def closeness(dist: FuzzyDistance, t: float) -> FuzzyCloseness:
    """Image of a fuzzy distance under x -> t / (t + x), cut by cut."""
    if t <= 0:
        raise ValueError(f"scale t must be positive, got {t}")

    def cut(alpha: float) -> tuple[float, float]:
        lo_d, hi_d = dist.cut(alpha)
        return (t / (t + hi_d), t / (t + lo_d))

    value = FuzzyNumber(cut)
    lo0, hi0 = cut(0.0)
    value._summary = TriangularTriple(lo0, t / (t + dist.params.dc), hi0)
    return FuzzyCloseness(t=t, value=value)


def closeness_spread(a: FuzzyPoint, b: FuzzyPoint, t: float) -> float:
    """Width of the closeness support; charts uncertainty against t."""
    lo, hi = metric_md(a, b, t).value.cut(0.0)
    return hi - lo


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, ok: bool, detail=None):
        self.checked += 1
        if not ok:
            self.failures.append(detail)


@dataclass
class MetricAxiomReport:
    tnorm: str
    positivity: CheckResult
    identity: CheckResult
    symmetry: CheckResult
    quadrangle: CheckResult
    quadrangle_cuts: CheckResult
    continuity: CheckResult

    @property
    def checks(self) -> list[CheckResult]:
        return [self.positivity, self.identity, self.symmetry,
                self.quadrangle, self.quadrangle_cuts, self.continuity]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _points_equal(a: FuzzyPoint, b: FuzzyPoint) -> tuple[bool, bool]:
    cores = a.core.x == b.core.x and a.core.y == b.core.y
    spreads = a.spread.p1 == b.spread.p1 and a.spread.p2 == b.spread.p2
    return cores, spreads


def check_metric_axioms(points: Sequence[FuzzyPoint],
                        t_samples: Sequence[float],
                        tnorm: TNorm,
                        alpha_samples: int = 11,
                        tol: float = 1e-9) -> MetricAxiomReport:
    """Verify the closeness-metric axioms on all pairs and triples.

    'Almost equals 1' is operationalized as: the core of the closeness is
    exactly 1 if and only if the cores coincide; spread equality is noted
    separately rather than folded into the identity verdict.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")
    alphas = np.linspace(0.0, 1.0, alpha_samples)
    n = len(points)
    dists = {}

    def dist(i: int, j: int) -> FuzzyDistance:
        if (i, j) not in dists:
            dists[(i, j)] = fuzzy_distance(points[i], points[j])
        return dists[(i, j)]

    positivity = CheckResult("positivity")
    identity = CheckResult("identity")
    symmetry = CheckResult("symmetry")
    quadrangle = CheckResult("quadrangle_summary")
    quadrangle_cuts = CheckResult("quadrangle_cuts")
    continuity = CheckResult("continuity")

    for i in range(n):
        for j in range(n):
            d_ij = dist(i, j)
            for t in t_samples:
                m = closeness(d_ij, t)
                lo0, _ = m.value.cut(0.0)
                positivity.count(lo0 > 0.0, (i, j, t, lo0))

            cores_eq, spreads_eq = _points_equal(points[i], points[j])
            core_grade_one = d_ij.params.dc == 0.0
            identity.count(core_grade_one == cores_eq, (i, j))
            identity.notes.append(
                {"pair": (i, j), "core_equal": cores_eq,
                 "spread_equal": spreads_eq, "closeness_core_is_one": core_grade_one})

            if i < j:
                d_ji = dist(j, i)
                for t in t_samples:
                    m_ij = closeness(d_ij, t)
                    m_ji = closeness(d_ji, t)
                    worst = max(
                        max(abs(x - y) for x, y in
                            zip(m_ij.value.cut(float(a)), m_ji.value.cut(float(a))))
                        for a in alphas)
                    symmetry.count(worst <= tol, (i, j, t, worst))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                for t in t_samples:
                    for s in t_samples:
                        m_ab = closeness(dist(i, j), t).summary
                        m_bc = closeness(dist(j, k), s).summary
                        m_ac = closeness(dist(i, k), t + s).summary
                        ok = (tnorm(m_ab.l, m_bc.l) <= m_ac.l + tol
                              and tnorm(m_ab.m, m_bc.m) <= m_ac.m + tol
                              and tnorm(m_ab.u, m_bc.u) <= m_ac.u + tol)
                        quadrangle.count(ok, (i, j, k, t, s))

                        cl_ab = closeness(dist(i, j), t).value
                        cl_bc = closeness(dist(j, k), s).value
                        cl_ac = closeness(dist(i, k), t + s).value
                        cuts_ok = True
                        for a in alphas:
                            lo1, hi1 = cl_ab.cut(float(a))
                            lo2, hi2 = cl_bc.cut(float(a))
                            lo3, hi3 = cl_ac.cut(float(a))
                            if (tnorm(lo1, lo2) > lo3 + tol
                                    or tnorm(hi1, hi2) > hi3 + tol):
                                cuts_ok = False
                                break
                        quadrangle_cuts.count(cuts_ok, (i, j, k, t, s))

    t_grid = np.geomspace(min(t_samples) / 2.0, max(t_samples) * 2.0, 64)
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = dist(i, j)
            lo_d, hi_d = d_ij.cut(0.0)
            worst_excess = 0.0
            for t1, t2 in zip(t_grid[:-1], t_grid[1:]):
                m1 = closeness(d_ij, float(t1)).summary
                m2 = closeness(d_ij, float(t2)).summary
                dt = float(t2 - t1)
                for v1, v2, d in ((m1.l, m2.l, hi_d), (m1.m, m2.m, d_ij.params.dc),
                                  (m1.u, m2.u, lo_d)):
                    bound = dt * d / ((t1 + d) * (t2 + d)) if d > 0 else 0.0
                    worst_excess = max(worst_excess, abs(v2 - v1) - bound)
            continuity.count(worst_excess <= tol, (i, j, worst_excess))

    return MetricAxiomReport(
        tnorm=tnorm.name, positivity=positivity, identity=identity,
        symmetry=symmetry, quadrangle=quadrangle,
        quadrangle_cuts=quadrangle_cuts, continuity=continuity)


@dataclass
class KSAxiomReport:
    zero_core: CheckResult
    symmetry: CheckResult
    triangle: CheckResult

    @property
    def checks(self) -> list[CheckResult]:
        return [self.zero_core, self.symmetry, self.triangle]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_ks_axioms(points: Sequence[FuzzyPoint],
                    L: Callable[[float, float], float] = min,
                    R: Callable[[float, float], float] = max,
                    tol: float = 1e-9) -> KSAxiomReport:
    """Verify the interval-valued metric axioms in their componentwise form.

    With L = Min and R = Max the triangle condition is equivalent to the
    componentwise comparison of summary triples; other (L, R) pairs are
    not supported.  Violations of the lower-endpoint comparison are
    genuinely possible when a large-spread point lies between the other
    two, and are reported rather than raised.
    """
    probes = [(0.2, 0.7), (0.0, 1.0), (0.5, 0.5)]
    if any(L(x, y) != min(x, y) or R(x, y) != max(x, y) for x, y in probes):
        raise ValueError("only L = Min and R = Max are supported")
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")

    n = len(points)
    zero_core = CheckResult("zero_core")
    symmetry = CheckResult("symmetry")
    triangle = CheckResult("triangle")

    summaries = {}

    def summary(i: int, j: int) -> TriangularTriple:
        if (i, j) not in summaries:
            summaries[(i, j)] = fuzzy_distance(points[i], points[j]).summary
        return summaries[(i, j)]

    for i in range(n):
        for j in range(n):
            cores_eq, _ = _points_equal(points[i], points[j])
            zero_core.count((summary(i, j).m == 0.0) == cores_eq, (i, j))
            if i < j:
                s_ij, s_ji = summary(i, j), summary(j, i)
                worst = max(abs(x - y) for x, y in
                            zip(s_ij.as_tuple(), s_ji.as_tuple()))
                symmetry.count(worst <= tol, (i, j, worst))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                lhs = summary(i, j)
                rhs = tri_add(summary(i, k), summary(k, j))
                ok = (lhs.l <= rhs.l + tol and lhs.m <= rhs.m + tol
                      and lhs.u <= rhs.u + tol)
                triangle.count(ok, {"triple": (i, j, k),
                                    "lhs": lhs.as_tuple(), "rhs": rhs.as_tuple()})

    return KSAxiomReport(zero_core=zero_core, symmetry=symmetry, triangle=triangle)
