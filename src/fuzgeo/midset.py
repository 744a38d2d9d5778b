"""Fuzzy equidistant sets (midsets) of two circular fuzzy points.

Per alpha level the midset is the zero set of a signed residual.  With
d_i the distance from the query point to core i and c_i = r_i * (1 - alpha)
the cut radius, the inverse-points branch solves

    (d1 - c1) - (d2 - c2) = 0        (hyperbolic type, the accepted set)

and the same-points branch solves

    (d1 - c1) - (c2 - d2) = 0        (elliptic type).

Both are two-focus conics d1 -+ d2 = k with foci at the cores, one sheet
of a hyperbola (the bisector when k = 0) and an ellipse, which
``sample_branch`` evaluates in closed form, at vertices spaced by an exact
bound on the conic's speed, and ``conic_class`` tags from k and the core
distance dc alone; ``conic_coefficients`` gives the second-degree
equation, by double squaring.  Which branches are active at a level
follows from the overlap case of the two cut disks, _CirclePair.case,
with a tolerance relative to the pair, so a similar pair gets the same case.
A point's grade needs no case: as |d1 - d2| <= dc <= d1 + d2, at its root
level the inverse branch is active exactly when dc > tol, and the
same-points branch when dc <= tol or d1 + d2 - dc > tol.

Focal sets are restricted to circular spreads; elliptical spreads would
need a direction-dependent cut radius and are out of scope.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import FuzzyPoint, Point2, Record

DEFAULT_RESOLUTION = 512
_EPS = float(np.finfo(float).eps)


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


class _CirclePair(NamedTuple):
    """Two circular fuzzy points as the midset layer sees them: the radii,
    the core distance dc and tol = 1e-9 (r1 + r2) + 4 eps |(ax, ay, bx, by)|.

    dc is compared with (r1 + r2) u and |r1 - r2| u, of the pair's size, so
    the first term gives a similar pair the same case at every scale.  But
    each core coordinate carries up to half an ulp of its own magnitude, so
    far from the origin dc is off by a few ulps of the largest coordinate
    whatever the pair's size (the ulp of 1e8 is 1.5e-8); the second term,
    at least 4 ulps of that coordinate, absorbs it.
    """

    r1: float
    r2: float
    dc: float
    tol: float

    def case(self, u: float) -> OverlapCase:
        """Relative position of the disks of radii r1 u and r2 u, tangencies within tol."""
        r1, r2, dc, tol = self
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

    def conic_class(self, u: float, branch: Branch) -> str:
        """The branch's class at u = 1 - alpha (see conic_class)."""
        case = self.case(u)
        if branch not in _ACTIVE_BRANCHES[case]:
            return "degenerate"
        if branch is Branch.SAME:
            return "ellipse"
        if (self.r1 - self.r2) * u == 0.0:
            return "line"
        return "degenerate" if case is OverlapCase.INTERNALLY_TANGENT else "hyperbola"


def _radii(a: FuzzyPoint, b: FuzzyPoint) -> tuple[float, float]:
    """The radii of a and b; a ValueError names a point that is not circular."""
    sa, sb = a.spread, b.spread
    if sa.kind != "circular" or sb.kind != "circular":
        raise ValueError(f"midset focal point {'A' if sa.kind != 'circular' else 'B'} must "
                         "have a circular spread")
    return sa.p1, sb.p1


def _circle_pair(a: FuzzyPoint, b: FuzzyPoint, radii: Optional[tuple] = None) -> _CirclePair:
    """The pair value of a and b, of the radii _radii(a, b) unless given."""
    r1, r2 = radii or _radii(a, b)
    ax, ay, bx, by = a.core.x, a.core.y, b.core.x, b.core.y
    # tuple.__new__, as _make uses, skips the NamedTuple's keyword __new__
    return tuple.__new__(_CirclePair, (
        r1, r2, math.hypot(ax - bx, ay - by),
        1e-9 * (r1 + r2) + 4.0 * _EPS * math.hypot(ax, ay, bx, by)))


def overlap_case(a: FuzzyPoint, b: FuzzyPoint, alpha: float) -> OverlapCase:
    """Relative position of the two alpha-cut disks (see _CirclePair.case)."""
    return _circle_pair(a, b).case(1.0 - alpha)


def active_branches(case: OverlapCase) -> tuple[Branch, ...]:
    return _ACTIVE_BRANCHES[case]


class Thresholds(NamedTuple):
    """Alpha levels at which the cut disks change overlap regime.

    n2 == n is the separation threshold; n1 the full-overlap threshold.
    None means the regime never occurs (or, for concentric cores, that the
    configuration is the same at all levels).
    """

    n: Optional[float]
    n1: Optional[float]
    n2: Optional[float]


def alpha_thresholds(a: FuzzyPoint, b: FuzzyPoint) -> Thresholds:
    r1, r2, dc, tol = _circle_pair(a, b)
    if dc <= tol:
        return Thresholds(n=None, n1=None, n2=None)

    def level(r: float) -> float:
        """Where (1 - alpha) r reaches dc; a tangency within tol, as
        _CirclePair.case reads it, is at the support level exactly."""
        return 0.0 if abs(dc - r) <= tol else min(1.0, max(0.0, 1.0 - dc / r))

    n = level(r1 + r2)
    return Thresholds(n=n, n1=level(abs(r1 - r2)) if r1 != r2 else None, n2=n)


class ConicCoefficients(NamedTuple):
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
        pivot = max(self, key=abs)
        if pivot == 0.0:
            return self
        return ConicCoefficients(*(v / pivot for v in self))

    def evaluate(self, x, y):
        return (self.A * x * x + 2 * self.H * x * y + self.B * y * y
                + 2 * self.G * x + 2 * self.F * y + self.C)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


def conic_coefficients(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                       branch: Branch) -> ConicCoefficients:
    """Analytic conic of a midset branch, by double squaring of d1 -+ d2 = k.

    The inverse branch with k == 0, as in conic_class, is the perpendicular
    bisector and is returned directly as line coefficients.
    """
    r1, r2, _, _ = _circle_pair(a, b)
    u = 1.0 - alpha
    k = (r1 - r2) * u if branch is Branch.INVERSE else (r1 + r2) * u

    a1, a2 = a.core.x, a.core.y
    b1, b2 = b.core.x, b.core.y
    # linear form d1^2 - d2^2 = l1 x + l2 y + l0
    l1 = 2.0 * (b1 - a1)
    l2 = 2.0 * (b2 - a2)
    l0 = (a1 * a1 + a2 * a2) - (b1 * b1 + b2 * b2)

    if branch is Branch.INVERSE and k == 0.0:
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


def classify_conic(c: ConicCoefficients, tol: float = 1e-9) -> str:
    """The paper's discriminant test: tag by Delta and delta after scaling
    the quadratic part to unit norm; a zero quadratic part is the bisector.

    The test compares the scaled discriminants with the absolute tol, so it
    is tolerance-bound and depends on the frame and the scale.  Delta still
    carries the square of the conic's size, and world coordinates far from
    the origin lose digits to cancellation: A (1.3e7, 7e6) r 1,
    B (13000004, 7000003) r 2 reads "degenerate" at alpha 0 where the branch
    is a hyperbola, and so do small pairs and pairs near the bisector.
    Library callers who want the class of a midset branch should use
    conic_class, which does not form the coefficients.
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
    """Class of a branch at level alpha, from the focal definition of the conics.

    With k = (r1 -+ r2)(1 - alpha) and dc the core distance, d1 - d2 = k is
    the bisector ("line") for k = 0 and one sheet of a "hyperbola" for
    0 < |k| < dc, and d1 + d2 = k is an "ellipse" for k > dc, a circle for
    concentric cores.  At internal tangency the inverse branch is a ray, and
    a branch that overlap_case does not make active is empty or, at external
    tangency, a segment: those are "degenerate".  Only k, dc and the overlap
    case decide, so the class does not depend on frame or scale.
    """
    return _circle_pair(a, b).conic_class(1.0 - alpha, branch)


def support_bbox(a: FuzzyPoint, b: FuzzyPoint) -> tuple[float, float, float, float]:
    """Union of the two support boxes, grown by half about its center, as a square
    at least 4 ulps of the centre's magnitude wide each way, as _CirclePair's
    tol, so a pair below an ulp of its coordinates still gets a window."""
    xmin = min(a.core.x - a.spread.p1, b.core.x - b.spread.p1)
    xmax = max(a.core.x + a.spread.p1, b.core.x + b.spread.p1)
    ymin = min(a.core.y - a.spread.p2, b.core.y - b.spread.p2)
    ymax = max(a.core.y + a.spread.p2, b.core.y + b.spread.p2)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    half = max(0.75 * (xmax - xmin), 0.75 * (ymax - ymin), 4.0 * _EPS * math.hypot(cx, cy))
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
    of s whose rays from the centre cross it.  The speed of both conics has
    a closed form, and its exact maximum on each piece of about 8 steps of
    a span bounds the arc length piecewise linearly.  The curve is
    evaluated only at equal steps of that bound, each at most 15/16 of one
    cell max(w, h)/(resolution - 1), so the vertices are exact and every
    chord, no longer than its arc, is within (15/16) cell.  They are split
    into the runs of 2 or more inside the bbox; an arc inside that holds
    fewer spans under two steps, so it lies within one cell of the edge.

    This is the one-entry call of the sampler that compute_midset runs once
    over all (alpha, branch) entries of a pair; each entry's polylines are
    the same bit for bit whichever other entries share the pass.
    """
    return _sample_levels(a, b, _circle_pair(a, b), [(alpha, branch)], bbox, resolution)[0]


def _arc_bounds(edges: np.ndarray, sheets: int, minor: np.ndarray,
                coef: np.ndarray) -> np.ndarray:
    """Per span, the row [0, cumsum(top speed dt)] over its row of edges.

    The first sheets rows are hyperbola sheets, where speed^2 = minor^2 +
    half^2 t^2/(1 + t^2) rises with |t|, and the rest ellipse arcs, where
    speed^2 = minor^2 + (half^2 - minor^2) sin^2 s peaks at a quarter turn
    pi/2 + m pi, else at an end of the piece.  minor and coef, half^2 or
    half^2 - minor^2, are columns.  This bounds the arc length piecewise
    linearly, each piece at its exact top speed.
    """
    lo, hi = edges[:, :-1], edges[:, 1:]
    bound = np.zeros(edges.shape)
    top = bound[:, 1:]
    if sheets:
        sheet = np.maximum(lo[:sheets] ** 2, hi[:sheets] ** 2, out=top[:sheets])
        sheet *= coef[:sheets] / (1.0 + sheet)
    if sheets < len(edges):
        turns = np.sin(edges[sheets:]) ** 2
        arc = np.maximum(turns[:, :-1], turns[:, 1:], out=top[sheets:])
        np.divide(edges[sheets:], math.pi, out=turns)
        arc[np.ceil(turns[:, :-1] - 0.5) + 0.5 <= turns[:, 1:]] = 1.0
        arc *= coef[sheets:]
    top += minor * minor
    np.sqrt(top, out=top)
    top *= hi - lo
    np.add.accumulate(bound, axis=1, out=bound)
    return bound


def _sample_levels(a: FuzzyPoint, b: FuzzyPoint, pair: _CirclePair, levels: list,
                   bbox: Optional[tuple], resolution: int) -> list[list[np.ndarray]]:
    """The sample_branch polylines of every (alpha, branch) of levels, in one pass.

    Each entry's spans are found in Python; every span's pieces, arc-length
    bound, vertices and runs are then computed as whole arrays over all
    spans, the sheets' spans first, each branch's formulas on its own
    spans only.  Each span's bound is the cumsum of a row of a (span,
    piece) array, padded with pieces of length 0, and is inverted by its
    own np.interp, so no span's values depend on another's.  The operations
    and their order are those of sampling each entry alone.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"empty bounding box {bbox}")
    step = 15.0 / 16.0 * max(xmax - xmin, ymax - ymin) / (resolution - 1)
    r1, r2, dc, _ = pair
    c = dc / 2.0
    mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
    ex, ey = ((b.core.x - mx) / c, (b.core.y - my) / c) if c > 0.0 else (1.0, 0.0)
    # the bbox lies in the annulus near <= |P - centre| <= far
    far = max(math.hypot(x - mx, y - my) for x in (xmin, xmax) for y in (ymin, ymax))
    near = math.hypot(max(xmin - mx, 0.0, mx - xmax), max(ymin - my, 0.0, my - ymax))
    # the spans of the hyperbola sheets and of the ellipses, per span its
    # entry, t0, t1, speed, half, minor and its top speed's coefficient
    sheets, arcs = [], []
    for entry, (alpha, branch) in enumerate(levels):
        case = pair.case(1.0 - alpha)
        if branch not in _ACTIVE_BRANCHES[case]:
            continue
        k = ((r1 - r2) if branch is Branch.INVERSE else (r1 + r2)) * (1.0 - alpha)
        if branch is Branch.INVERSE:
            half = math.copysign(min(abs(k) / 2.0, c), k)
            minor = math.sqrt(c * c - half * half)
            # |P|^2 = half^2 + c^2 t^2, and P moves at most c per unit of t
            t_lo, t_hi = (math.sqrt(max(r * r - half * half, 0.0)) / c for r in (near, far))
            if case is OverlapCase.INTERNALLY_TANGENT:
                spans = [(t_lo, t_hi)]
            else:
                spans = [(-t_hi, -t_lo), (t_lo, t_hi)] if t_lo > 0.0 else [(-t_hi, t_hi)]
            sheets += [(entry, t0, t1, c, half, minor, half * half) for t0, t1 in spans]
        else:
            half = max(k / 2.0, c)
            minor = math.sqrt(half * half - c * c)
            span = (0.0, 2.0 * math.pi)
            if near > 0.0:
                # the bbox lies in the sector of the rays from the centre through
                # its corners, less than pi wide; the ray at angle phi in the
                # frame meets the ellipse at s = atan2(half sin phi, minor cos phi)
                s = [math.atan2(half * (ex * (y - my) - ey * (x - mx)),
                                minor * (ex * (x - mx) + ey * (y - my)))
                     for x in (xmin, xmax) for y in (ymin, ymax)]
                turn = [(v - s[0] + math.pi) % (2.0 * math.pi) - math.pi for v in s]
                span = (s[0] + min(turn), s[0] + max(turn))
            arcs.append((entry, *span, half, half, minor, half * half - minor * minor))
    polylines = [[] for _ in levels]
    if not sheets and not arcs:
        return polylines
    ns = len(sheets)
    # pieces of about 8 steps; per span a column of t0, t1, t1 - t0, pieces,
    # half, minor, and the top speed's coefficient
    rows = [(entry, t0, t1, t1 - t0, math.ceil(speed * (t1 - t0) / (8.0 * step)) + 1,
             half, minor, coef) for entry, t0, t1, speed, half, minor, coef in sheets + arcs]
    entries, *columns = zip(*rows)
    n_edges = [n + 1 for n in columns[3]]
    t0, t1, delta, pieces, half, minor, coef = np.array(columns)[:, :, None]
    # per span a row of edges, np.linspace(t0, t1, pieces + 1) by numpy's
    # arithmetic: j (delta/pieces) + t0, or (j/pieces) delta + t0 where
    # delta/pieces underflows to 0, and t1 last; padded with t1, so the
    # padding's pieces have length 0
    j = np.arange(float(max(n_edges)))
    width = delta / pieces
    edges = j * width
    if np.count_nonzero(width) < len(width):
        zero = width[:, 0] == 0.0
        edges[zero] = j / pieces[zero] * delta[zero]
    edges += t0
    np.copyto(edges, t1, where=j >= pieces)
    bound = _arc_bounds(edges, ns, minor, coef)
    # equal steps, at most step, of the bound: np.linspace(0, length, cells
    # + 1), as above, but for its last value, which like the first is set
    # to the span's end
    length = bound[:, -1].tolist()
    n_vertices = [math.ceil(size / step) + 1 for size in length]
    ends = list(accumulate(n_vertices))
    j = np.arange(float(max(n_vertices)))
    t = np.empty(ends[-1])
    for i, (size, nv, ne, end) in enumerate(zip(length, n_vertices, n_edges, ends)):
        cells = max(nv - 1, 1)
        targets = j[:nv] * (size / cells) if size / cells else j[:nv] / cells * size
        t[end - nv:end] = np.interp(targets, bound[i, :ne], edges[i, :ne])
        t[end - nv], t[end - 1] = columns[0][i], columns[1][i]
    del j, targets, edges, bound
    # x = half sqrt(1 + t^2) or half cos t, y = minor t or minor sin t,
    # then py = my + x ey + y ex and px = mx + x ex - y ey, in place in
    # the buffers t and tmp and the columns of pts, x in the first (a sum
    # or product of two floats does not depend on their order)
    arc0 = ends[ns - 1] if sheets else 0
    pts = np.empty((len(t), 2))
    x, y = pts[:, 0], t
    if sheets:
        sheet = np.multiply(y[:arc0], y[:arc0], out=x[:arc0])
        sheet += 1.0
        np.sqrt(sheet, out=sheet)
    if arcs:
        np.cos(y[arc0:], out=x[arc0:])
        np.sin(y[arc0:], out=y[arc0:])
    x *= half[:, 0].repeat(n_vertices)
    y *= minor[:, 0].repeat(n_vertices)
    # the whole ellipse closes on its start (the same x and y give the same
    # point below)
    closed = bool(arcs) and near == 0.0
    if closed:
        for nv, end in zip(n_vertices[ns:], ends[ns:]):
            x[end - 1], y[end - 1] = x[end - nv], y[end - nv]
    py = np.multiply(x, ey, out=pts[:, 1])
    py += my
    tmp = y * ex
    py += tmp
    px = x
    px *= ex
    px += mx
    px -= np.multiply(y, ey, out=tmp)
    inside = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
    # the runs of equal inside within each span, r indexing them
    cuts = (inside[1:] != inside[:-1]).nonzero()[0] + 1
    starts = sorted(set(cuts.tolist()).union(e - n for e, n in zip(ends, n_vertices)))
    run_inside = inside[starts].tolist()
    starts.append(len(t))
    r = 0
    for i, end in enumerate(ends):
        first, runs = r, []
        while starts[r] < end:
            if run_inside[r]:
                runs.append(pts[starts[r]:starts[r + 1]])
            r += 1
        if closed and i >= ns and r - first > 1 and run_inside[first] and run_inside[r - 1]:
            # the closed ellipse re-enters at its start: join the first and last runs
            runs = [np.concatenate((runs[-1][:-1], runs[0]))] + runs[1:-1]
        polylines[entries[i]] += [run for run in runs if len(run) > 1]
    return polylines


class MidsetEntry(NamedTuple):
    alpha: float
    branch: Branch
    polylines: tuple
    conic_class: str


class MidsetResult(NamedTuple):
    entries: tuple
    bbox: tuple


def compute_midset(a: FuzzyPoint, b: FuzzyPoint,
                   alphas: Optional[Sequence[float]] = None,
                   bbox: Optional[tuple] = None,
                   resolution: int = DEFAULT_RESOLUTION) -> MidsetResult:
    """Sampled midset across alpha levels with analytic conic tags.

    The inverse-points branch is the accepted equidistant set whenever it
    is active; the same-points branch is reported alongside it in the
    overlapping regimes.  One pass of the sampler samples every (alpha,
    active branch) entry of the pair, each with the polylines that
    sample_branch gives for it alone.
    """
    pair = _circle_pair(a, b)
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 11)
    if bbox is None:
        bbox = support_bbox(a, b)
    levels = [(alpha, branch) for alpha in sorted(float(x) for x in alphas)
              for branch in _ACTIVE_BRANCHES[pair.case(1.0 - alpha)]]
    polylines = _sample_levels(a, b, pair, levels, bbox, resolution)
    entries = tuple(
        MidsetEntry(alpha=alpha, branch=branch, polylines=tuple(lines),
                    conic_class=pair.conic_class(1.0 - alpha, branch))
        for (alpha, branch), lines in zip(levels, polylines))
    return MidsetResult(entries=entries, bbox=tuple(bbox))


def equidistant_membership(q: Point2, a: FuzzyPoint, b: FuzzyPoint) -> float:
    """Grade of a point in the fuzzy equidistant set.

    Each branch residual is linear in u = 1 - alpha, with the one root
    u = (d1 + d2)/(r1 + r2) or u = (d1 - d2)/(r1 - r2) (grade 1 on the
    bisector when r1 = r2, where |d1 - d2| is within 4 ulps of max(d1, d2));
    the grade is the largest root level in [0, 1] at which its branch is
    active, by the rule in the module docstring, which alone reads the
    pair's dc and tol: most points have no root level in [0, 1] and skip it.
    """
    radii = r1, r2 = _radii(a, b)
    d1 = math.hypot(q.x - a.core.x, q.y - a.core.y)
    d2 = math.hypot(q.x - b.core.x, q.y - b.core.y)
    same = 1.0 - (d1 + d2) / (r1 + r2)
    if r1 != r2:
        inverse = 1.0 - (d1 - d2) / (r1 - r2)
    else:  # 1 on the bisector, and off it -1.0: no root level
        inverse = 1.0 if abs(d1 - d2) <= 4.0 * _EPS * max(d1, d2) else -1.0
    if not (0.0 <= same <= 1.0 or 0.0 <= inverse <= 1.0):
        return 0.0
    _, _, dc, tol = _circle_pair(a, b, radii)
    grade = same if 0.0 <= same <= 1.0 and (dc <= tol or d1 + d2 - dc > tol) else 0.0
    # grade >= 0: only a root in (grade, 1] can raise it
    return inverse if grade < inverse <= 1.0 and dc > tol else grade


class InvarianceReport(Record):
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

    __slots__ = ("checked", "disagreements", "pole_points")

    def __init__(self, checked: int = 0, disagreements: int = 0, pole_points: int = 0):
        self.checked, self.disagreements, self.pole_points = checked, disagreements, pole_points

    @property
    def passed(self) -> bool:
        return self.disagreements == 0


# Outside these limits on t and on the span of the grid values the rounding
# bound of invariance_check may fail (overflow or subnormal intermediates),
# and every grid point is evaluated.
_EXACT_T_MIN = 2.0 ** -400
_EXACT_SPAN_MAX = 2.0 ** 300
# Grid points per side of the square blocks that invariance_check screens
# whole, and the column and row of each point of a block, row-major.
_BLOCK = 4
_BLOCK_COL = np.tile(np.arange(_BLOCK), _BLOCK)
_BLOCK_ROW = np.repeat(np.arange(_BLOCK), _BLOCK)
# Blocks per band of whole block rows that invariance_check screens at once
# (one row when a row holds more), and flagged blocks per fine-stage chunk.
_BAND_BLOCKS = 2 ** 14
_CHUNK_BLOCKS = 2 ** 10


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
    the report cannot change.  Where slack is infinite every block and
    point is taken.

    The blocks are screened in bands of whole block rows, at most
    _BAND_BLOCKS blocks (one row if a row holds more), and the flagged
    blocks of a band are searched in chunks of _CHUNK_BLOCKS.  The band's
    block-centre distances, work array and flag masks, and the chunk's
    distance and mask arrays, are allocated once per call and reused for
    every band and every (alpha, branch, t), so memory is O(resolution)
    for the per-axis offsets plus one band and one chunk, whatever the
    grid.  The range of D_i needs no band: D_i is the square root of a sum
    of two squared per-axis offsets, and + and sqrt are monotone under
    rounding, so the square root of the sum of the per-axis minima is the
    rounded minimum over all blocks, and likewise the maximum.

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
    pair = _circle_pair(a, b)
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
    # per (core A or B, block column or row, point) the grid offsets from
    # the core, and their squares
    core_x = np.array([a.core.x, b.core.x])[:, None, None]
    core_y = np.array([a.core.y, b.core.y])[:, None, None]
    off_x = xs[index[:, _BLOCK_COL]] - core_x
    off_y = ys[index[:, _BLOCK_ROW]] - core_y
    sq_x, sq_y = off_x * off_x, off_y * off_y
    # per (core, block column or row) the squared block-centre offsets; the
    # block-centre distances D are square roots of their sums, and
    # [min D - h, max D + h] holds every grid distance.  A square root of
    # squares is off by a few roundoffs, or by 1e-154 on underflow, far
    # inside slack; where squares overflow, span is beyond its limit.
    centre_x, centre_y = (cx - core_x[:, 0]) ** 2, (cy - core_y[:, 0]) ** 2
    d_range = [(math.sqrt(lo_x + lo_y) - h, math.sqrt(hi_x + hi_y) + h)
               for lo_x, lo_y, hi_x, hi_y in zip(
                   centre_x.min(axis=1).tolist(), centre_y.min(axis=1).tolist(),
                   centre_x.max(axis=1).tolist(), centre_y.max(axis=1).tolist())]
    d_max = d_range[0][1] + d_range[1][1]

    # per (alpha, active branch, t): whether the branch is inverse, k, the
    # cut radii, t, slack and the (core, pole) pairs within reach of the
    # grid distances
    combos = []
    for alpha in alphas:
        u = 1.0 - float(alpha)
        c1, c2 = pair.r1 * u, pair.r2 * u
        for branch in _ACTIVE_BRANCHES[pair.case(u)]:
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
                pole_values = (c1 - t, c2 - t if inverse else c2 + t)
                poles_at = [(i, pole) for i, pole in enumerate(pole_values)
                            if d_range[i][0] - 2.0 * slack <= pole <= d_range[i][1] + 2.0 * slack]
                combos.append((inverse, k, c1, c2, t, slack, poles_at))

    # the band buffers: D per (core, block), row-major, a work array and two
    # flag masks; the chunk buffers: the point distances per (core, block,
    # point) and a gather of squares, a work array and two point masks.
    # Flat buffers keep each prefix reshaped to a band or chunk contiguous.
    rows = max(1, _BAND_BLOCKS // nb)
    size = min(rows, nb) * nb
    centre, work = np.empty(2 * size), np.empty(size)
    flags, more_flags = np.empty(size, bool), np.empty(size, bool)
    chunk, per_block = min(_CHUNK_BLOCKS, size), _BLOCK * _BLOCK
    points = chunk * per_block
    dist, gather, point_work = np.empty(2 * points), np.empty(2 * points), np.empty(points)
    near_buf, more_near = np.empty(points, bool), np.empty(points, bool)

    report = InvarianceReport(checked=resolution * resolution * len(combos))
    for row0 in range(0, nb, rows):
        n = min(rows, nb - row0) * nb
        band = centre[:2 * n].reshape(2, n)
        work_n, flag, more = work[:n], flags[:n], more_flags[:n]
        np.add(centre_x[:, None, :], centre_y[:, row0:row0 + rows, None],
               out=band.reshape(2, -1, nb))
        np.sqrt(band, out=band)
        for inverse, k, c1, c2, t, slack, poles_at in combos:
            # the band's blocks that can hold a candidate
            exact = slack < math.inf
            if exact:
                (np.subtract if inverse else np.add)(band[0], band[1], out=work_n)
                work_n -= k
                np.less_equal(np.abs(work_n, out=work_n), 2.0 * (tol + slack + h), out=flag)
                for i, pole in poles_at:
                    np.subtract(band[i], pole, out=work_n)
                    flag |= np.less_equal(np.abs(work_n, out=work_n), 2.0 * slack + h,
                                          out=more)
            else:
                flag.fill(True)
            blocks = np.flatnonzero(flag)
            for start in range(0, len(blocks), chunk):
                bi, bj = np.divmod(blocks[start:start + chunk], nb)
                bi += row0
                shape, m = (len(bi), per_block), len(bi) * per_block
                # their points that can be candidates, from square roots of
                # squares, per (core, block, point); the indices are in range,
                # and clip mode skips the copy that take makes for "raise"
                d = dist[:2 * m].reshape(2, m)
                np.take(sq_x, bj, axis=1, out=d.reshape(2, *shape), mode="clip")
                d += np.take(sq_y, bi, axis=1, out=gather[:2 * m].reshape(2, *shape),
                             mode="clip").reshape(2, m)
                np.sqrt(d, out=d)
                near, pw, more_m = near_buf[:m], point_work[:m], more_near[:m]
                if exact:
                    (np.subtract if inverse else np.add)(d[0], d[1], out=pw)
                    pw -= k
                    np.less_equal(np.abs(pw, out=pw), 2.0 * (tol + slack), out=near)
                    for i, pole in poles_at:
                        np.subtract(d[i], pole, out=pw)
                        near |= np.less_equal(np.abs(pw, out=pw), 2.0 * slack, out=more_m)
                else:
                    near.fill(True)
                if inside is not None:
                    for mask, idx in zip(inside, (bj, bi)):
                        near &= np.take(mask, idx, axis=0, out=more_m.reshape(shape),
                                        mode="clip").ravel()
                if not near.any():
                    continue
                blk, pt = np.divmod(np.flatnonzero(near), per_block)
                # d1 and d2 there as the full grid has them
                d1, d2 = np.hypot(off_x[:, bj[blk], pt], off_y[:, bi[blk], pt])
                fa, fb = d1 - c1, (d2 - c2 if inverse else c2 - d2)
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
                report.disagreements += int(np.count_nonzero(disagree))
                report.pole_points += int(np.count_nonzero(poles))
    return report
