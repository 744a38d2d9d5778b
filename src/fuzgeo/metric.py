"""The scale-indexed fuzzy closeness of fuzzy points and axiom checks.

The closeness M(A, B, t) of two fuzzy points at scale t > 0 is the image
of their fuzzy distance under x -> t / (t + x).  The map is strictly
decreasing, so an alpha-cut [lo, hi] of the distance maps exactly to the
closeness cut [t/(t+hi), t/(t+lo)]; no closed-form approximation is
involved.  FuzzyCloseness is that image as a fuzzy number; closeness()
builds it from a distance and metric_md() from two points.

Axiom checking is reporting machinery: violations are collected and
returned, never raised, so degenerate configurations can be inspected.
check_metric_axioms audits the George-Veeramani axioms of the closeness
(positivity, identity, symmetry, the t-norm quadrangle inequality on
summaries and cuts, continuity in t).  It cuts every pair's distance in
one DistanceTable broadcast over the alpha grid and evaluates every check
as numpy comparisons over whole arrays with the pair axis innermost, the
quadrangle one first index at a time, so a t-norm's fn must work
elementwise on arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, Record, TriangularTriple, Value, _set
from .distance import DistanceTable, FuzzyDistance, fuzzy_distance


class TNorm(Value):
    """Commutative, associative, monotone binary operation on [0,1] with unit 1.

    fn must work elementwise on numpy arrays: the axiom checks apply it to
    whole arrays of closeness values at once.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[float, float], float]):
        _set(self, "name", name)
        _set(self, "fn", fn)

    def __call__(self, x: float, y: float) -> float:
        return self.fn(x, y)


PRODUCT = TNorm("product", lambda x, y: x * y)
MINIMUM = TNorm("minimum", np.minimum)


class FuzzyCloseness(FuzzyNumber):
    """Degree of closeness M(A, B, t) at scale t, a fuzzy number inside [0, 1].

    The image of the fuzzy distance dist under x -> t / (t + x), cut by cut;
    t must be finite and positive.
    """

    def __init__(self, dist: FuzzyDistance, t: float):
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"scale t must be finite and positive, got {t}")
        self.dist, self.t = dist, t
        lo0, hi0 = self.cut(0.0)
        self.summary = TriangularTriple(lo0, t / (t + dist.dc), hi0)

    def _ends(self, alphas):
        t = self.t
        lo_d, hi_d = self.dist._ends(alphas)
        return (t / (t + hi_d), t / (t + lo_d))

    def membership(self, y: float) -> float:
        """Grade of y: the distance grade of t/y - t, the x that t/(t + x) maps to y."""
        if not y > 0.0:
            return 0.0
        return self.dist.membership(self.t / y - self.t)


def metric_md(a: FuzzyPoint, b: FuzzyPoint, t: float) -> FuzzyCloseness:
    return closeness(fuzzy_distance(a, b), t)


def closeness(dist: FuzzyDistance, t: float) -> FuzzyCloseness:
    """Image of a fuzzy distance under x -> t / (t + x), cut by cut."""
    return FuzzyCloseness(dist, t)


class CheckResult(Record):
    """Cases checked and the failures found; failures and notes are fresh lists by default."""

    __slots__ = ("name", "checked", "failures", "notes")

    def __init__(self, name: str, checked: int = 0, failures: Optional[list] = None,
                 notes: Optional[list] = None):
        self.name, self.checked = name, checked
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, ok: bool, detail=None):
        self.checked += 1
        if not ok:
            self.failures.append(detail)


class MetricAxiomReport(Record):
    __slots__ = ("tnorm", "positivity", "identity", "symmetry", "quadrangle",
                 "quadrangle_cuts", "continuity")

    def __init__(self, tnorm: str, positivity: CheckResult, identity: CheckResult,
                 symmetry: CheckResult, quadrangle: CheckResult,
                 quadrangle_cuts: CheckResult, continuity: CheckResult):
        self.tnorm, self.positivity, self.identity = tnorm, positivity, identity
        self.symmetry, self.quadrangle = symmetry, quadrangle
        self.quadrangle_cuts, self.continuity = quadrangle_cuts, continuity

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


def _record(check: CheckResult, ok: np.ndarray, detail) -> None:
    """Count every case of the boolean array ok; detail(*index) describes a failure."""
    check.checked += ok.size
    check.failures.extend(detail(*map(int, idx)) for idx in zip(*np.nonzero(~ok)))


def _scaled(d, t):
    """Closeness t / (t + d) of distance values d at scales t, broadcast."""
    return t / (t + d)


def check_metric_axioms(points: Sequence[FuzzyPoint],
                        t_samples: Sequence[float],
                        tnorm: TNorm,
                        alpha_samples: int = 11,
                        tol: float = 1e-9) -> MetricAxiomReport:
    """Verify the closeness-metric axioms on all pairs and triples.

    'Almost equals 1' is operationalized as: the closeness core
    t/(t + hi(alpha = 1)) is within tol of 1 at every sampled t if and only
    if the cores coincide, so identity fails when no sampled scale tells
    two distinct cores apart; spread equality is noted separately rather
    than folded into the identity verdict.

    Each distance is cut once over the alpha grid; every check is then an
    array comparison of closeness cuts t/(t + hi), t/(t + lo) over the
    cases, with the arithmetic of closeness() case by case.  Failures are
    listed in (i, j, k, t, s) order.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")
    ts = tuple(t_samples)
    t = np.array(ts, dtype=float)
    if t.ndim != 1 or not t.size or not np.all(np.isfinite(t) & (t > 0.0)):
        raise ValueError(
            f"t_samples must be a nonempty sequence of finite positive scales, got {ts}")
    if alpha_samples < 2:
        # the grid must reach the core level alpha = 1 the identity check reads
        raise ValueError(f"alpha_samples must be at least 2, got {alpha_samples}")
    alphas = np.linspace(0.0, 1.0, alpha_samples)
    n = len(points)
    table = DistanceTable([(a, b) for a in points for b in points])
    lo, hi = table.cut_table(alphas)
    # distances whose images t/(t + d) are the closeness cut ends (lo, hi),
    # i.e. the distance cut ends reversed, per (end, alpha, pair), and the
    # closeness summary (l, m, u) per (component, pair), pair i*n + j;
    # alphas[0] is 0
    ends_d = np.stack((hi.T, lo.T))
    summary_d = np.stack((hi[:, 0], table.dc, lo[:, 0]))
    upper_i, upper_j = np.triu_indices(n, 1)
    upper, lower = upper_i * n + upper_j, upper_j * n + upper_i

    positivity = CheckResult("positivity")
    identity = CheckResult("identity")
    symmetry = CheckResult("symmetry")
    quadrangle = CheckResult("quadrangle_summary")
    quadrangle_cuts = CheckResult("quadrangle_cuts")
    continuity = CheckResult("continuity")

    # closeness cut ends per (end, alpha, t, pair) and summaries per
    # (component, t, pair) at the scale t, the pair axis innermost, and the
    # quadrangle's right sides M(i, k, t + s) + tol of both per
    # (..., t, s, pair): every value the checks compare, computed once
    t_, ts_ = t[:, None], (t[:, None] + t[None, :])[..., None]
    cl, sm = _scaled(ends_d[:, :, None], t_), _scaled(summary_d[:, None], t_)
    cl_bound = _scaled(ends_d[:, :, None, None], ts_) + tol
    sm_bound = _scaled(summary_d[:, None, None], ts_) + tol

    # support lower end per (i, j, t)
    lo0 = sm[0].T.reshape(n, n, -1)
    _record(positivity, lo0 > 0.0, lambda i, j, a: (i, j, ts[a], float(lo0[i, j, a])))

    # closeness core t/(t + hi(alpha = 1)) within tol of 1, per (i, j) at every t
    core_one = np.all(np.abs(cl[0, -1] - 1.0) <= tol, axis=0).reshape(n, n).tolist()
    for i in range(n):
        for j in range(n):
            cores_eq, spreads_eq = _points_equal(points[i], points[j])
            core_grade_one = core_one[i][j]
            identity.count(core_grade_one == cores_eq, (i, j))
            identity.notes.append(
                {"pair": (i, j), "core_equal": cores_eq,
                 "spread_equal": spreads_eq, "closeness_core_is_one": core_grade_one})

    # worst cut end gap per (i < j, t)
    worst = np.abs(cl[..., upper] - cl[..., lower]).max(axis=(0, 1)).T
    _record(symmetry, worst <= tol, lambda p, a: (int(upper_i[p]), int(upper_j[p]),
                                                   ts[a], float(worst[p, a])))

    # distinct triples (i, j, k) in (i, j, k) order, q = (n - 1)(n - 2) of
    # them per first index i, and the pairs they compare
    i_, j_, k_ = np.indices((n, n, n)).reshape(3, -1)
    distinct = (i_ != j_) & (j_ != k_) & (i_ != k_)
    i_, j_, k_ = i_[distinct], j_[distinct], k_[distinct]
    ij, jk, ik = i_ * n + j_, j_ * n + k_, i_ * n + k_
    q = len(i_) // n

    def detail(p, a, b):
        return (int(i_[p]), int(j_[p]), int(k_[p]), ts[a], ts[b])

    # T(M(i, j, t), M(j, k, s)) against M(i, k, t + s) + tol per
    # (..., t, s, triple); ok per (t, s, triple), recorded per (triple, t, s).
    # np.take gathers each operand as a contiguous array, the triple axis
    # innermost.  Summaries take every triple at once; the cut sides, with
    # the end and alpha axes, one first index i at a time:
    # (end, alpha, t, s, q) arrays, 2 * 11 * 3 * 3 * 56 values for 9
    # points, 11 levels and 3 scales
    lhs = tnorm(np.take(sm, ij, axis=-1)[:, :, None], np.take(sm, jk, axis=-1)[:, None])
    ok = np.all(lhs <= np.take(sm_bound, ik, axis=-1), axis=0)
    _record(quadrangle, ok.transpose(2, 0, 1), detail)
    for first in range(0, len(i_), q):
        rows = slice(first, first + q)
        lhs = tnorm(np.take(cl, ij[rows], axis=-1)[:, :, :, None],
                    np.take(cl, jk[rows], axis=-1)[:, :, None])
        ok = ~np.any(lhs > np.take(cl_bound, ik[rows], axis=-1), axis=(0, 1))
        _record(quadrangle_cuts, ok.transpose(2, 0, 1),
                lambda p, a, b: detail(first + p, a, b))

    # summary change between t-grid neighbours against the Lipschitz bound
    # of t/(t + d), per (component, i < j, grid step)
    t_grid = np.geomspace(min(ts) / 2.0, max(ts) * 2.0, 64)
    d = summary_d[:, upper, None]
    v = _scaled(d, t_grid)
    t1, t2 = t_grid[:-1], t_grid[1:]
    bound = (t2 - t1) * d / ((t1 + d) * (t2 + d))
    excess = np.maximum(0.0, (np.abs(v[..., 1:] - v[..., :-1]) - bound).max(axis=(0, 2)))
    _record(continuity, excess <= tol, lambda p: (int(upper_i[p]), int(upper_j[p]),
                                                  float(excess[p])))

    return MetricAxiomReport(
        tnorm=tnorm.name, positivity=positivity, identity=identity,
        symmetry=symmetry, quadrangle=quadrangle,
        quadrangle_cuts=quadrangle_cuts, continuity=continuity)


class KSAxiomReport(Record):
    __slots__ = ("zero_core", "symmetry", "triangle")

    def __init__(self, zero_core: CheckResult, symmetry: CheckResult, triangle: CheckResult):
        self.zero_core, self.symmetry, self.triangle = zero_core, symmetry, triangle

    @property
    def checks(self) -> list[CheckResult]:
        return [self.zero_core, self.symmetry, self.triangle]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_ks_axioms(points: Sequence[FuzzyPoint], tol: float = 1e-9) -> KSAxiomReport:
    """Verify the interval-valued metric axioms in their componentwise form.

    zero_core holds for a pair when the distance core hi(alpha = 1) is
    within tol of 0 if and only if the cores coincide.

    The triangle condition takes L = Min and R = Max, with which it is
    equivalent to the componentwise comparison of summary triples.
    Violations of the lower-endpoint comparison are genuinely possible when
    a large-spread point lies between the other two, and are reported
    rather than raised.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")

    n = len(points)
    zero_core = CheckResult("zero_core")
    symmetry = CheckResult("symmetry")
    triangle = CheckResult("triangle")

    # one pass cuts every pair at the support and the core level
    dists = DistanceTable([(a, b) for a in points for b in points])
    lo, hi = dists.cut_table([0.0, 1.0])
    # distance core hi(alpha = 1) within tol of 0, per (i, j)
    core_zero = (hi[:, 1] <= tol).reshape(n, n).tolist()
    for i in range(n):
        for j in range(n):
            cores_eq, _ = _points_equal(points[i], points[j])
            zero_core.count(core_zero[i][j] == cores_eq, (i, j))

    # the (l, m, u) summary per (i, j, component); worst gap per pair i < j
    table = np.column_stack((lo[:, 0], dists.dc, hi[:, 0])).reshape(n, n, 3)
    upper_i, upper_j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    worst = np.abs(table[upper_i, upper_j] - table[upper_j, upper_i]).max(axis=1)
    _record(symmetry, worst <= tol, lambda p: (int(upper_i[p]), int(upper_j[p]),
                                               float(worst[p])))

    # d(i, j) against d(i, k) + d(k, j) per distinct triple in (i, j, k)
    # order, componentwise
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    distinct = (i != j) & (j != k) & (i != k)
    i, j, k = i[distinct], j[distinct], k[distinct]
    lhs = table[i, j]
    with np.errstate(over="ignore"):
        rhs = table[i, k] + table[k, j]
    if not np.isfinite(rhs).all():
        # the first overflowing sum, as adding the summary triples reports it
        p, c = np.argwhere(~np.isfinite(rhs))[0]
        raise ValueError(f"{'lmu'[c]} must be finite, got {float(rhs[p, c])!r}")
    _record(triangle, np.all(lhs <= rhs + tol, axis=1),
            lambda p: {"triple": (int(i[p]), int(j[p]), int(k[p])),
                       "lhs": tuple(lhs[p].tolist()), "rhs": tuple(rhs[p].tolist())})

    return KSAxiomReport(zero_core=zero_core, symmetry=symmetry, triangle=triangle)
