"""Fuzzy equidistant sets (midsets) of two circular fuzzy points.

Per alpha level the midset is the zero set of a signed residual.  With
d_i the distance from the query point to core i and c_i = r_i * (1 - alpha)
the cut radius, the inverse-points branch solves

    (d1 - c1) - (d2 - c2) = 0        (hyperbolic type, the accepted set)

and the same-points branch solves

    (d1 - c1) - (c2 - d2) = 0        (elliptic type).

Both are two-focus conics d1 -+ d2 = k with foci at the cores, one sheet
of a hyperbola (the bisector when k = 0) and an ellipse, which
``sample_branch`` evaluates in closed form; ``conic_coefficients`` gives
the second-degree equation, by double squaring, and ``conic_class`` tags it
in the frame centred between the cores.  Which branches are active
at a level follows from the overlap configuration of the two cut disks.

Focal sets are restricted to circular spreads; elliptical spreads would
need a direction-dependent cut radius and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import FuzzyPoint, Point2

DEFAULT_RESOLUTION = 512
_ZERO_TOL = 1e-9


class Branch(Enum):
    INVERSE = "inverse_points"
    SAME = "same_points"


class OverlapCase(Enum):
    NON_OVERLAPPING = "non_overlapping"
    EXTERNALLY_TANGENT = "externally_tangent"
    PARTIALLY_OVERLAPPING = "partially_overlapping"
    INTERNALLY_TANGENT = "internally_tangent"
    FULLY_OVERLAPPING = "fully_overlapping"
    CONCENTRIC = "concentric"


_ACTIVE_BRANCHES = {
    OverlapCase.NON_OVERLAPPING: (Branch.INVERSE,),
    OverlapCase.EXTERNALLY_TANGENT: (Branch.INVERSE,),
    OverlapCase.PARTIALLY_OVERLAPPING: (Branch.INVERSE, Branch.SAME),
    OverlapCase.INTERNALLY_TANGENT: (Branch.INVERSE, Branch.SAME),
    OverlapCase.FULLY_OVERLAPPING: (Branch.SAME,),
    OverlapCase.CONCENTRIC: (Branch.SAME,),
}


def _require_circular(p: FuzzyPoint, name: str) -> float:
    spread = p.spread
    if not spread.is_circular:
        raise ValueError(f"midset focal point {name} must have a circular spread")
    return spread.p1


def _pair_radii(a: FuzzyPoint, b: FuzzyPoint) -> tuple[float, float, float]:
    r1 = _require_circular(a, "A")
    r2 = _require_circular(b, "B")
    dc = a.core.distance_to(b.core)
    return r1, r2, dc


def _branch_terms(d1, d2, r1: float, r2: float, u: float, branch: Branch):
    """The terms (d1 - r1 u, +-(d2 - r2 u)) whose difference is the branch residual.

    d1 and d2 are the distances to the cores, as floats or arrays.
    """
    fb = d2 - r2 * u
    return d1 - r1 * u, (fb if branch is Branch.INVERSE else -fb)


def branch_residual(q: Point2, a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                    branch: Branch) -> float:
    r1, r2, _ = _pair_radii(a, b)
    fa, fb = _branch_terms(q.distance_to(a.core), q.distance_to(b.core), r1, r2,
                           1.0 - alpha, branch)
    return fa - fb


def overlap_case(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                 tol: float = _ZERO_TOL) -> OverlapCase:
    """Relative position of the two alpha-cut disks, tangencies within tol."""
    r1, r2, dc = _pair_radii(a, b)
    return _overlap_case(r1, r2, dc, 1.0 - alpha, tol)


def _overlap_case(r1: float, r2: float, dc: float, u: float,
                  tol: float = _ZERO_TOL) -> OverlapCase:
    """overlap_case of disks of radii r1 u and r2 u whose centres are dc apart."""
    if dc <= tol:
        return OverlapCase.CONCENTRIC
    sum_r = (r1 + r2) * u
    diff_r = abs(r1 - r2) * u
    if abs(dc - sum_r) <= tol:
        return OverlapCase.EXTERNALLY_TANGENT
    if dc > sum_r:
        return OverlapCase.NON_OVERLAPPING
    if abs(dc - diff_r) <= tol:
        return OverlapCase.INTERNALLY_TANGENT
    if dc < diff_r:
        return OverlapCase.FULLY_OVERLAPPING
    return OverlapCase.PARTIALLY_OVERLAPPING


def active_branches(case: OverlapCase) -> tuple[Branch, ...]:
    return _ACTIVE_BRANCHES[case]


@dataclass(frozen=True)
class Thresholds:
    """Alpha levels at which the cut disks change overlap regime.

    n2 == n is the separation threshold; n1 the full-overlap threshold.
    None means the regime never occurs (or, for concentric cores, that the
    configuration is the same at all levels).
    """

    n: Optional[float]
    n1: Optional[float]
    n2: Optional[float]


def alpha_thresholds(a: FuzzyPoint, b: FuzzyPoint) -> Thresholds:
    r1, r2, dc = _pair_radii(a, b)
    if dc <= _ZERO_TOL:
        return Thresholds(n=None, n1=None, n2=None)
    n = min(1.0, max(0.0, 1.0 - dc / (r1 + r2)))
    n1 = None
    if r1 != r2:
        n1 = min(1.0, max(0.0, 1.0 - dc / abs(r1 - r2)))
    return Thresholds(n=n, n1=n1, n2=n)


@dataclass(frozen=True)
class ConicCoefficients:
    """General second-degree curve A x^2 + 2H xy + B y^2 + 2G x + 2F y + C = 0."""

    A: float
    H: float
    B: float
    G: float
    F: float
    C: float

    @property
    def Delta(self) -> float:
        return (self.A * self.B * self.C + 2 * self.F * self.G * self.H
                - self.A * self.F ** 2 - self.B * self.G ** 2 - self.C * self.H ** 2)

    @property
    def delta(self) -> float:
        return self.A * self.B - self.H ** 2

    def normalized(self) -> "ConicCoefficients":
        coeffs = (self.A, self.H, self.B, self.G, self.F, self.C)
        pivot = max(coeffs, key=abs)
        if pivot == 0.0:
            return self
        return ConicCoefficients(*(v / pivot for v in coeffs))

    def evaluate(self, x, y):
        return (self.A * x * x + 2 * self.H * x * y + self.B * y * y
                + 2 * self.G * x + 2 * self.F * y + self.C)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.A, self.H, self.B, self.G, self.F, self.C)


def conic_coefficients(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                       branch: Branch) -> ConicCoefficients:
    """Analytic conic of a midset branch, by double squaring of d1 -+ d2 = k.

    The equal-radii inverse branch degenerates to the perpendicular
    bisector and is returned directly as line coefficients.
    """
    r1, r2, _ = _pair_radii(a, b)
    u = 1.0 - alpha
    k = (r1 - r2) * u if branch is Branch.INVERSE else (r1 + r2) * u

    a1, a2 = a.core.x, a.core.y
    b1, b2 = b.core.x, b.core.y
    # linear form d1^2 - d2^2 = l1 x + l2 y + l0
    l1 = 2.0 * (b1 - a1)
    l2 = 2.0 * (b2 - a2)
    l0 = (a1 * a1 + a2 * a2) - (b1 * b1 + b2 * b2)

    if branch is Branch.INVERSE and abs(k) <= 1e-12:
        return ConicCoefficients(0.0, 0.0, 0.0, l1 / 2.0, l2 / 2.0, l0).normalized()

    k2 = k * k
    coeffs = ConicCoefficients(
        A=l1 * l1 - 4.0 * k2,
        H=l1 * l2,
        B=l2 * l2 - 4.0 * k2,
        G=l1 * (l0 - k2) + 4.0 * k2 * b1,
        F=l2 * (l0 - k2) + 4.0 * k2 * b2,
        C=(l0 - k2) ** 2 - 4.0 * k2 * (b1 * b1 + b2 * b2),
    )
    return coeffs.normalized()


def classify_conic(c: ConicCoefficients, tol: float = _ZERO_TOL) -> str:
    """Tag by the discriminants after scaling the quadratic part to unit norm.

    The Frobenius norm sqrt(A^2 + 2H^2 + B^2) keeps Delta and delta unchanged
    under translation and rotation; a zero quadratic part is the bisector.
    Conics near degenerating (|k| within about 1e-6 of dc or of 0) stay
    tolerance-bound and may be tagged either way.
    """
    norm = math.sqrt(c.A ** 2 + 2.0 * c.H ** 2 + c.B ** 2)
    if norm == 0.0:
        return "line" if (c.G, c.F) != (0.0, 0.0) else "degenerate"
    c = ConicCoefficients(*(v / norm for v in c.as_tuple()))
    if abs(c.Delta) <= tol:
        return "line" if abs(c.delta) <= tol else "degenerate"
    if c.delta > tol:
        return "ellipse"
    if c.delta < -tol:
        return "hyperbola"
    return "degenerate"


def conic_class(a: FuzzyPoint, b: FuzzyPoint, alpha: float, branch: Branch) -> str:
    """classify_conic of the branch's conic in the frame centred between the cores.

    Translation keeps the class.  In world coordinates the double-squared
    coefficients grow with the distance from the origin, and C, about
    (|a|^2 - |b|^2)^2, cancels catastrophically far from it; centred, they
    scale with the core distance.
    """
    mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
    a, b = (FuzzyPoint(Point2(p.core.x - mx, p.core.y - my), p.spread) for p in (a, b))
    return classify_conic(conic_coefficients(a, b, alpha, branch))


def support_bbox(a: FuzzyPoint, b: FuzzyPoint) -> tuple[float, float, float, float]:
    """Union of the two support boxes, grown by half about its center, as a square."""
    xmin = min(a.core.x - a.spread.p1, b.core.x - b.spread.p1)
    xmax = max(a.core.x + a.spread.p1, b.core.x + b.spread.p1)
    ymin = min(a.core.y - a.spread.p2, b.core.y - b.spread.p2)
    ymax = max(a.core.y + a.spread.p2, b.core.y + b.spread.p2)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    hx = 0.5 * (xmax - xmin) * 1.5
    hy = 0.5 * (ymax - ymin) * 1.5
    half = max(hx, hy, 1e-6)
    return (cx - half, cy - half, cx + half, cy + half)


def sample_branch(a: FuzzyPoint, b: FuzzyPoint, alpha: float, branch: Branch,
                  bbox: Optional[tuple] = None,
                  resolution: int = DEFAULT_RESOLUTION) -> list[np.ndarray]:
    """Polylines of one branch's zero set inside the bounding box.

    In the frame centred between the cores, x along the core line, c = dc/2
    and t = sinh s, d1 - d2 = k is the hyperbola sheet (k/2 sqrt(1 + t^2),
    sqrt(c^2 - k^2/4) t): the bisector when k = 0 and the ray from the
    nearer core away from the other at internal tangency.  d1 + d2 = k is
    the ellipse (k/2 cos s, sqrt(k^2/4 - c^2) sin s), a circle for
    concentric cores.  A branch inactive at this level gives [].  Only the
    parameters whose points can lie in the bbox are sampled: for the
    hyperbola the t between the bbox's nearest and farthest distance from
    the centre, for the ellipse, when the bbox excludes the centre, the arc
    of s whose rays from the centre cross it.  x and y are sampled densely
    as two 1-d arrays; exact vertices at equal arc-length steps of at most
    one cell max(w, h)/(resolution - 1) are picked from them and split into
    the runs inside the bbox.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"empty bounding box {bbox}")
    cell = max(xmax - xmin, ymax - ymin) / (resolution - 1)
    case = overlap_case(a, b, alpha)
    if branch not in active_branches(case):
        return []
    r1, r2, dc = _pair_radii(a, b)
    k = ((r1 - r2) if branch is Branch.INVERSE else (r1 + r2)) * (1.0 - alpha)
    c = dc / 2.0
    mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
    ex, ey = ((b.core.x - mx) / c, (b.core.y - my) / c) if dc > 0.0 else (1.0, 0.0)
    # the bbox lies in the annulus near <= |P - centre| <= far
    far = max(math.hypot(x - mx, y - my) for x in (xmin, xmax) for y in (ymin, ymax))
    near = math.hypot(max(xmin - mx, 0.0, mx - xmax), max(ymin - my, 0.0, my - ymax))
    if branch is Branch.INVERSE:
        half = math.copysign(min(abs(k) / 2.0, c), k)
        minor = math.sqrt(c * c - half * half)
        # |P|^2 = half^2 + c^2 t^2, and P moves at most c per unit of t
        t_lo, t_hi = (math.sqrt(max(r * r - half * half, 0.0)) / c for r in (near, far))
        if case is OverlapCase.INTERNALLY_TANGENT:
            spans = [(t_lo, t_hi)]
        else:
            spans = [(-t_hi, -t_lo), (t_lo, t_hi)] if t_lo > 0.0 else [(-t_hi, t_hi)]
        speed = c
    else:
        half = max(k / 2.0, c)
        minor = math.sqrt(half * half - c * c)
        spans, speed = [(0.0, 2.0 * math.pi)], half
        if near > 0.0:
            # the bbox lies in the sector of the rays from the centre through
            # its corners, less than pi wide; the ray at angle phi in the
            # frame meets the ellipse at s = atan2(half sin phi, minor cos phi)
            s = [math.atan2(half * (ex * (y - my) - ey * (x - mx)),
                            minor * (ex * (x - mx) + ey * (y - my)))
                 for x in (xmin, xmax) for y in (ymin, ymax)]
            turn = [(v - s[0] + math.pi) % (2.0 * math.pi) - math.pi for v in s]
            spans = [(s[0] + min(turn), s[0] + max(turn))]
    closed = branch is Branch.SAME and near == 0.0

    polylines = []
    for t0, t1 in spans:
        # dense exact samples at most h = cell/16 apart; arc-length steps of
        # at most cell - h snapped to them keep every chord within one cell
        t = np.linspace(t0, t1, math.ceil(16.0 * speed * (t1 - t0) / cell) + 2)
        # x = half sqrt(1 + t^2) or half cos t, y = minor t or minor sin t,
        # then px = mx + x ex - y ey and py = my + x ey + y ex, all in place
        # in the buffers t, x, px and tmp (a sum or product of two floats does
        # not depend on their order)
        if branch is Branch.INVERSE:
            x = t * t
            x += 1.0
            np.sqrt(x, out=x)
        else:
            x = np.cos(t)
            np.sin(t, out=t)
        x *= half
        y = t
        y *= minor
        tmp = y * ey
        px = x * ex
        px += mx
        px -= tmp
        py = np.multiply(x, ey, out=x)
        py += my
        py += np.multiply(y, ex, out=tmp)
        if closed:
            px[-1], py[-1] = px[0], py[0]
        # the chord lengths in tmp, the arc length at each sample in y
        seg = np.subtract(px[1:], px[:-1], out=tmp[1:])
        np.hypot(seg, np.subtract(py[1:], py[:-1], out=y[1:]), out=seg)
        arc = y
        arc[0] = 0.0
        np.cumsum(seg, out=arc[1:])
        steps = max(1, math.ceil(arc[-1] / (cell - seg.max())))
        # searchsorted never decreases: a repeat equals the index before it
        pick = np.searchsorted(arc, np.linspace(0.0, arc[-1], steps + 1))
        pick = pick[np.concatenate(([True], pick[1:] != pick[:-1]))]
        px, py = px[pick], py[pick]
        inside = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
        pts = np.column_stack((px, py))
        runs = np.split(np.arange(len(pts)), np.flatnonzero(np.diff(inside)) + 1)
        if closed and len(runs) > 1 and inside[0] and inside[-1]:
            # the closed ellipse re-enters at its start: join the first and last runs
            runs = [np.concatenate((runs[-1][:-1], runs[0]))] + runs[1:-1]
        polylines += [pts[r] for r in runs if inside[r[0]] and len(r) > 1]
    return polylines


def sample_midset(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                  bbox: Optional[tuple] = None,
                  resolution: int = DEFAULT_RESOLUTION) -> dict[Branch, list[np.ndarray]]:
    """Polylines per branch active at this level."""
    case = overlap_case(a, b, alpha)
    return {
        branch: sample_branch(a, b, alpha, branch, bbox, resolution)
        for branch in active_branches(case)
    }


@dataclass(frozen=True)
class MidsetEntry:
    alpha: float
    branch: Branch
    polylines: tuple
    conic: ConicCoefficients
    conic_class: str
    accepted: bool


@dataclass(frozen=True)
class MidsetResult:
    entries: tuple
    case_at_support: OverlapCase
    thresholds: Thresholds
    bbox: tuple
    resolution: int


def compute_midset(a: FuzzyPoint, b: FuzzyPoint,
                   alphas: Optional[Sequence[float]] = None,
                   bbox: Optional[tuple] = None,
                   resolution: int = DEFAULT_RESOLUTION) -> MidsetResult:
    """Sampled midset across alpha levels with analytic conic tags.

    The inverse-points branch is the accepted equidistant set whenever it
    is active; the same-points branch is reported alongside it in the
    overlapping regimes.
    """
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 11)
    if bbox is None:
        bbox = support_bbox(a, b)
    entries = []
    for alpha in sorted(float(x) for x in alphas):
        for branch, polylines in sample_midset(a, b, alpha, bbox, resolution).items():
            entries.append(MidsetEntry(
                alpha=alpha, branch=branch, polylines=tuple(polylines),
                conic=conic_coefficients(a, b, alpha, branch),
                conic_class=conic_class(a, b, alpha, branch),
                accepted=branch is Branch.INVERSE))
    return MidsetResult(
        entries=tuple(entries),
        case_at_support=overlap_case(a, b, 0.0),
        thresholds=alpha_thresholds(a, b),
        bbox=tuple(bbox),
        resolution=resolution)


def equidistant_membership(q: Point2, a: FuzzyPoint, b: FuzzyPoint) -> float:
    """Grade of a point in the fuzzy equidistant set.

    Each branch residual is linear in u = 1 - alpha, with the one root
    u = (d1 - d2)/(r1 - r2) or u = (d1 + d2)/(r1 + r2) (grade 1 on the
    bisector when r1 = r2); the grade is the largest root level in [0, 1]
    at which its branch is active.
    """
    r1, r2, dc = _pair_radii(a, b)
    d1 = math.hypot(q.x - a.core.x, q.y - a.core.y)
    d2 = math.hypot(q.x - b.core.x, q.y - b.core.y)
    roots = [(Branch.SAME, 1.0 - (d1 + d2) / (r1 + r2))]
    if r1 != r2:
        roots.append((Branch.INVERSE, 1.0 - (d1 - d2) / (r1 - r2)))
    elif abs(d1 - d2) <= 1e-12:
        roots.append((Branch.INVERSE, 1.0))
    return max((alpha for branch, alpha in roots if 0.0 <= alpha <= 1.0
                and branch in _ACTIVE_BRANCHES[_overlap_case(r1, r2, dc, 1.0 - alpha)]),
               default=0.0)


@dataclass
class InvarianceReport:
    """Zero-set comparison of the distance form and the closeness form.

    With fa = d1 - r1 u and fb = +-(d2 - r2 u) the terms of a branch
    residual, the distance form is fa - fb and the closeness form is
    t/(t + fa) - t/(t + fb) = t (fb - fa)/((t + fa)(t + fb)).  Scaled by
    the exact derivative factor |(t + fa)(t + fb)|/t it equals |fa - fb|
    up to rounding.  A disagreement is a grid point where one residual is
    clearly zero (inside tol) while the other is clearly nonzero (outside
    2*tol); the in-between band absorbs floating-point rounding without
    hiding a genuine mismatch.  A pole point, where fa or fb equals -t, is
    counted apart and never disagrees.
    """

    checked: int = 0
    disagreements: int = 0
    pole_points: int = 0

    @property
    def passed(self) -> bool:
        return self.disagreements == 0


# Outside these limits on t and on the span of the grid values the rounding
# bound of invariance_check may fail (overflow or subnormal intermediates),
# and every grid point is evaluated.
_EXACT_T_MIN = 2.0 ** -400
_EXACT_SPAN_MAX = 2.0 ** 300
_EPS = float(np.finfo(float).eps)
# Grid points per side of the square blocks that invariance_check screens
# whole, and the column and row of each point of a block, row-major.
_BLOCK = 4
_BLOCK_COL = np.tile(np.arange(_BLOCK), _BLOCK)
_BLOCK_ROW = np.repeat(np.arange(_BLOCK), _BLOCK)


# squares overflow only beyond the span limit, poles divide by 0 and scale
# inf by 0, and extreme t overflows
@np.errstate(all="ignore")
def invariance_check(a: FuzzyPoint, b: FuzzyPoint,
                     t_values: Sequence[float],
                     bbox: Optional[tuple] = None,
                     resolution: int = DEFAULT_RESOLUTION,
                     alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
                     tol: float = 1e-9) -> InvarianceReport:
    """Compare the equidistance zero sets under both metric formulations.

    Every grid point of every (alpha, active branch, t) is counted as
    checked, but the closeness form is evaluated only where it can matter.
    With k = (r1 -+ r2) u, a point is a candidate if
    |(d1 -+ d2) - k| <= 2*tol + slack or if d1 or d2 lies within slack of a
    pole, r u -+ t.  By the identity in InvarianceReport no other point can
    be a pole or have a residual inside tol, so evaluating any superset of
    the candidates gives the report of a full-grid evaluation.

    The superset is found coarse to fine, and d1, d2 are computed with
    np.hypot, as on the full grid, only at its points.  The grid is cut
    into blocks of _BLOCK x _BLOCK points (fewer in the last row and
    column).  With D_i the distance from a block's centre to core i and h
    the largest block half-diagonal, every point of a block has
    |d_i - D_i| <= h by the triangle inequality.  So only a block with
    |(D1 -+ D2) - k| <= 2*tol + 2*slack + 2*h or |D_i - pole| <= 2*slack + h
    can hold a candidate.  In those blocks the distances are first taken
    as square roots of sums of squares, within a few roundoffs of np.hypot,
    and only points that pass the candidate bounds with 2*slack in place
    of slack are evaluated.  Each second slack absorbs such roundoffs.
    slack is taken from the bounds D_i + h on the grid maxima, so up to
    rounding it is at least the full grid's.  A larger slack only adds
    points, and by the identity those neither disagree nor are poles, so
    the report cannot change.

    What passed verifies: by that identity the two residuals differ only by
    rounding, a few tens of units of roundoff (2^-53) of the grid span
    max d1 + max d2 + r1 u + r2 u + t, while a disagreement needs them more
    than tol apart.  At the default tol = 1e-9 no disagreement can be
    reported unless the span is above about 4e5; on smaller grids passed
    only confirms that both forms agree to rounding.
    """
    for t in t_values:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"scale t must be finite and positive, got {t}")
    r1, r2, _ = _pair_radii(a, b)
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    # grid index per (block, point in block) along one axis, clipped to the
    # grid; per (block column or row, point) whether a point is not such a
    # clipped repeat, when the last block has any
    nb = -(-resolution // _BLOCK)
    index = np.arange(nb * _BLOCK).reshape(nb, _BLOCK)
    inside = (index[:, _BLOCK_COL] < resolution, index[:, _BLOCK_ROW] < resolution) \
        if resolution % _BLOCK else None
    index = np.minimum(index, resolution - 1)
    first, last = index[:, 0], index[:, -1]
    cx, cy = 0.5 * (xs[first] + xs[last]), 0.5 * (ys[first] + ys[last])
    h = math.hypot(np.maximum(cx - xs[first], xs[last] - cx).max(),
                   np.maximum(cy - ys[first], ys[last] - cy).max())
    # per (block column or row, core A or B, point) the grid offsets from
    # the core, and their squares
    core_x, core_y = np.array([[a.core.x], [b.core.x]]), np.array([[a.core.y], [b.core.y]])
    off_x = xs[index[:, _BLOCK_COL]][:, None, :] - core_x
    off_y = ys[index[:, _BLOCK_ROW]][:, None, :] - core_y
    sq_x, sq_y = off_x * off_x, off_y * off_y
    # block-centre distances D per (core, block row-major) and the ranges
    # [min D - h, max D + h] that hold every grid distance.  A square root
    # of squares is off by a few roundoffs, or by 1e-154 on underflow, far
    # inside slack; where squares overflow, span is beyond its limit.
    centre = np.sqrt((cx - core_x)[:, None, :] ** 2
                     + (cy - core_y)[:, :, None] ** 2).reshape(2, -1)
    d_range = [(lo - h, hi + h) for lo, hi in zip(centre.min(axis=1).tolist(),
                                                  centre.max(axis=1).tolist())]
    d_max = d_range[0][1] + d_range[1][1]
    focal = {Branch.INVERSE: centre[0] - centre[1], Branch.SAME: centre[0] + centre[1]}
    work = np.empty(nb * nb)

    report = InvarianceReport()
    for alpha in alphas:
        u = 1.0 - float(alpha)
        c1, c2 = r1 * u, r2 * u
        for branch in active_branches(overlap_case(a, b, float(alpha))):
            inverse = branch is Branch.INVERSE
            k = c1 - c2 if inverse else c1 + c2
            for t in t_values:
                # fa, fb, t + fa and t + fb are at most span in size, so fa - fb
                # and the scaled closeness residual each lie within 20 units of
                # roundoff (2^-53) of span from (d1 -+ d2) - k (N. J. Higham,
                # Accuracy and Stability of Numerical Algorithms, ch. 2), far
                # inside slack: a point that is no candidate has both
                # residuals above tol.  A pole, fa == -t or fb == -t, puts d1 or d2 within
                # a few units of span of r u -+ t.  The bound needs normal
                # intermediates, hence the limits on t and span; outside them
                # slack is infinite and every point is evaluated.
                span = d_max + abs(c1) + abs(c2) + t
                slack = (64.0 * _EPS * span
                         if _EXACT_T_MIN <= t and span <= _EXACT_SPAN_MAX else math.inf)
                # (core, pole) for the poles within reach of the grid distances
                pole_values = (c1 - t, c2 - t if inverse else c2 + t)
                poles_at = [(i, pole) for i, pole in enumerate(pole_values)
                            if d_range[i][0] - 2.0 * slack <= pole <= d_range[i][1] + 2.0 * slack]
                # the blocks that can hold a candidate; "not above" keeps NaN
                np.subtract(focal[branch], k, out=work)
                flagged = ~(np.abs(work, out=work) > 2.0 * (tol + slack + h))
                for i, pole in poles_at:
                    np.subtract(centre[i], pole, out=work)
                    flagged |= np.abs(work, out=work) <= 2.0 * slack + h
                bi, bj = np.divmod(np.flatnonzero(flagged), nb)
                # their points that can be candidates, from square roots of
                # squares, per (block, core, point)
                dist = np.sqrt(sq_x[bj] + sq_y[bi])
                focal_pt = dist[:, 0] - dist[:, 1] if inverse else dist[:, 0] + dist[:, 1]
                near = ~(np.abs(focal_pt - k) > 2.0 * (tol + slack))
                for i, pole in poles_at:
                    near |= np.abs(dist[:, i] - pole) <= 2.0 * slack
                if inside is not None:
                    near &= inside[0][bj] & inside[1][bi]
                blk, pt = near.nonzero()
                # d1 and d2 there as the full grid has them
                d1, d2 = np.hypot(off_x[bj[blk], :, pt], off_y[bi[blk], :, pt]).T
                fa, fb = _branch_terms(d1, d2, r1, r2, u, branch)
                res_d = fa - fb
                res_m = t / (t + fa) - t / (t + fb)
                scale = np.abs((t + fa) * (t + fb)) / t
                poles = ~np.isfinite(res_m) | (scale == 0.0)
                res_m_scaled = np.where(poles, np.inf, np.abs(res_m) * scale)
                abs_d = np.abs(res_d)
                zero_d = abs_d <= tol
                zero_m = res_m_scaled <= tol
                clear_nonzero_d = abs_d > 2.0 * tol
                clear_nonzero_m = res_m_scaled > 2.0 * tol
                disagree = (zero_d & clear_nonzero_m) | (zero_m & clear_nonzero_d)
                disagree &= ~poles
                report.checked += resolution * resolution
                report.disagreements += int(np.count_nonzero(disagree))
                report.pole_points += int(np.count_nonzero(poles))
    return report
