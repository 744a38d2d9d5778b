"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (dense grids,
boundary sampling, direct root finding) without touching the optimized
code paths under test.
"""

import json
import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

import fuzgeo as fg
from fuzgeo.core import FuzzyPoint, TriangularTriple
from fuzgeo.distance import TWO_PI, DistanceTable, _gap
from fuzgeo.metric import (CheckResult, FuzzyDistance, KSAxiomReport, MetricAxiomReport,
                           _points_equal, closeness, fuzzy_distance)
from fuzgeo.midset import (_ACTIVE_BRANCHES, DEFAULT_RESOLUTION, Branch, InvarianceReport,
                           OverlapCase, _circle_pair, active_branches, overlap_case,
                           support_bbox)
from fuzgeo.svgout import _alpha_color, fmt

# Draws a rejection-sampling helper makes before it gives up.
MAX_DRAWS = 1000


class AlphaBoundaryPair(NamedTuple):
    """Under/over boundary points of an alpha-cut along a direction."""

    under: fg.Point2
    over: fg.Point2


def cut_boundary(p: FuzzyPoint, alpha: float, theta: float) -> AlphaBoundaryPair:
    """Boundary points of p's alpha-cut ellipse at parametric angle theta."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    u = 1.0 - alpha
    dx = p.spread.p1 * u * math.cos(theta)
    dy = p.spread.p2 * u * math.sin(theta)
    a1, a2 = p.core.x, p.core.y
    return AlphaBoundaryPair(under=fg.Point2(a1 - dx, a2 - dy), over=fg.Point2(a1 + dx, a2 + dy))


def cut_radii(p: FuzzyPoint, alpha: float) -> tuple[float, float]:
    """Semi-axes of p's alpha-cut ellipse."""
    u = 1.0 - alpha
    return (p.spread.p1 * u, p.spread.p2 * u)


def endpoint_distances(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                       theta: float) -> tuple[float, float]:
    """The two cross-boundary distances at a common direction, as (min, max)."""
    ba = cut_boundary(a, alpha, theta)
    bb = cut_boundary(b, alpha, theta)
    d_under_over = ba.under.distance_to(bb.over)
    d_over_under = ba.over.distance_to(bb.under)
    return (min(d_under_over, d_over_under), max(d_under_over, d_over_under))


def distance_membership(a: FuzzyPoint, b: FuzzyPoint, x: float) -> float:
    """Grade of a candidate distance value x in the fuzzy distance of (a, b)."""
    if x < 0:
        raise ValueError(f"distance value must be nonnegative, got {x}")
    return fuzzy_distance(a, b).membership(x)


def almost_equals(t: TriangularTriple, other: TriangularTriple, tol: float = 1e-9) -> bool:
    """Whether two triples agree componentwise to tol."""
    return abs(t.l - other.l) <= tol and abs(t.m - other.m) <= tol and abs(t.u - other.u) <= tol


def through_point_angle(p: fg.Point2, psi: float) -> fg.LineSpec:
    """The line through p at elevation angle psi."""
    a = -math.sin(psi)
    b = math.cos(psi)
    return fg.LineSpec(a, b, a * p.x + b * p.y)


def line_foot(line: fg.LineSpec) -> fg.Point2:
    """Foot of the perpendicular from the origin to line."""
    d = line.a * line.a + line.b * line.b
    return fg.Point2(line.a * line.c / d, line.b * line.c / d)


def line_frame(line) -> tuple[float, tuple[float, float]]:
    """(theta, anchor) of a unit-normal line a*x + b*y = c: its elevation
    angle in [0, pi), and the origin of its s-coordinate, the better
    conditioned axis intercept."""
    a, b, c = line.a, line.b, line.c
    anchor = (0.0, c / b) if abs(b) >= abs(a) else (c / a, 0.0)
    return math.atan2(-a, b) % math.pi, anchor


def to_line_coords(line: fg.LineSpec, q: fg.Point2) -> tuple[float, float]:
    """(s, n): q's s-coordinate along line and its signed offset from it."""
    theta, (ox, oy) = line_frame(line)
    cx, sx = math.cos(theta), math.sin(theta)
    dx, dy = q.x - ox, q.y - oy
    return (dx * cx + dy * sx, -dx * sx + dy * cx)


def from_line_coords(line: fg.LineSpec, s: float, n: float) -> fg.Point2:
    """The point of line coordinates (s, n); the inverse of to_line_coords."""
    theta, (ox, oy) = line_frame(line)
    cx, sx = math.cos(theta), math.sin(theta)
    return fg.Point2(ox + s * cx - n * sx, oy + s * sx + n * cx)


def classify_pair(a: FuzzyPoint, p1: fg.Point2, b: FuzzyPoint, p2: fg.Point2,
                  tol: float = 1e-9) -> str:
    """Classify two support points as 'same', 'inverse' or 'neither'.

    Same/inverse points carry equal membership grades and parallel
    core-to-point offsets; they lie on the same or on opposite sides of
    the line joining the cores.  For offsets along that line the side test
    is vacuous and the (anti)parallel direction decides.
    """
    for fp, pt in ((a, p1), (b, p2)):
        rho = math.hypot((pt.x - fp.core.x) / fp.spread.p1,
                         (pt.y - fp.core.y) / fp.spread.p2)
        if rho > 1.0 + tol:
            raise ValueError(f"point {pt} lies outside the support of its fuzzy point")

    if abs(a.membership(p1) - b.membership(p2)) > tol:
        return "neither"

    o1 = (p1.x - a.core.x, p1.y - a.core.y)
    o2 = (p2.x - b.core.x, p2.y - b.core.y)
    cross = o1[0] * o2[1] - o1[1] * o2[0]
    scale = math.hypot(*o1) * math.hypot(*o2)
    if scale == 0.0:
        # at least one point sits at its core; grades match, offsets trivial
        return "same"
    if abs(cross) > tol * max(1.0, scale):
        return "neither"
    dot = o1[0] * o2[0] + o1[1] * o2[1]
    return "same" if dot > 0 else "inverse"


def theta_grid_extrema(a, b, alpha, samples=10_000):
    """Extrema of the two cross-boundary distances over a dense angle fan.

    Returns (lo, hi, theta_at_lo, theta_at_hi) where lo/hi extremize the
    pointwise min/max of the two pairings, per the distance definition.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    u = 1.0 - alpha
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    ax_off = a.spread.p1 * u * cos_t
    ay_off = a.spread.p2 * u * sin_t
    bx_off = b.spread.p1 * u * cos_t
    by_off = b.spread.p2 * u * sin_t
    over_under = np.hypot((a.core.x + ax_off) - (b.core.x - bx_off),
                          (a.core.y + ay_off) - (b.core.y - by_off))
    under_over = np.hypot((a.core.x - ax_off) - (b.core.x + bx_off),
                          (a.core.y - ay_off) - (b.core.y + by_off))
    lam_lo = np.minimum(over_under, under_over)
    lam_hi = np.maximum(over_under, under_over)
    i_lo = int(np.argmin(lam_lo))
    i_hi = int(np.argmax(lam_hi))
    return (float(lam_lo[i_lo]), float(lam_hi[i_hi]),
            float(thetas[i_lo]), float(thetas[i_hi]))


def extremal_directions_reference(geometry: tuple[float, float, float, float]
                                  ) -> tuple[float, float, bool]:
    """Directions of the smallest and largest support-level gap |V(theta, 1)|.

    geometry is (R1, R2, d1, d2).  The directions zero
    g = R2*d2*cos(theta) - R1*d1*sin(theta) + (e/2)*sin(2*theta),
    e = R2^2 - R1^2 (the point-to-ellipse problem); t = tan((theta - phi)/2)
    makes g = 0 a quartic with t^4 coefficient g(phi + pi).  Placing phi + pi
    on the diagonal (-sgn(d1)*sgn(e), sgn(d2)*sgn(e))/sqrt(2), a zero counted
    as positive, makes the three terms of g there agree in sign, so |g(phi +
    pi)| is at least the coefficient norm over sqrt(2) and keeps all roots
    bounded; with phi = 0 a root near infinity swamps the others as the
    cores meet.  A complex root only adds a losing candidate.  Lengths are
    in units of max(R1, R2).

    With R1 == R2 (e = 0) the gap is the distance from -(d1, d2) to a circle
    of radius R1, largest along the core offset and smallest opposite it,
    so those directions are atan2 of the offset and of its negative, with
    math.atan2 as the kernel takes it.  refined is False only for the flat
    profile, g identically zero (concentric cores, R1 == R2); both
    directions are then 0.
    """
    R1, R2, d1, d2 = geometry
    if R1 == R2:
        if d1 == d2 == 0.0:
            return 0.0, 0.0, False
        return (math.atan2(-d2, -d1) % TWO_PI, math.atan2(d2, d1) % TWO_PI, True)
    m = max(R1, R2)
    r1, r2 = R1 / m, R2 / m
    a1, b1, b2 = r2 * (d2 / m), -r1 * (d1 / m), 0.5 * (r2 * r2 - r1 * r1)
    sign_e = -1.0 if b2 < 0.0 else 1.0
    # phi + pi at (-sgn(d1) sgn(e), sgn(d2) sgn(e)) / sqrt(2), so phi at its negative
    c = math.sqrt(0.5) * (-1.0 if d1 < 0.0 else 1.0) * sign_e
    s = -math.sqrt(0.5) * (-1.0 if d2 < 0.0 else 1.0) * sign_e
    phi = math.atan2(s, c)
    # g(phi + psi) = A1 cos(psi) + B1 sin(psi) + A2 cos(2 psi) + B2 sin(2 psi)
    A1, B1 = a1 * c + b1 * s, b1 * c - a1 * s
    A2, B2 = 2.0 * b2 * s * c, b2 * (c * c - s * s)
    quartic = (A2 - A1, 2.0 * (B1 - 2.0 * B2), -6.0 * A2,
               2.0 * (B1 + 2.0 * B2), A1 + A2)
    thetas = phi + 2.0 * np.arctan(np.roots(quartic).real)
    gaps = _gap(R1, R2, d1, d2, thetas, 1.0)
    return (float(thetas[np.argmin(gaps)]) % TWO_PI,
            float(thetas[np.argmax(gaps)]) % TWO_PI, True)


def distance_membership_reference(d: FuzzyDistance, x: float) -> float:
    """Grade 1 - u of x in d, recomputing every inverse term per call.

    Each endpoint is the gap at its frozen direction, so u solves
    x^2 = dc^2 + 2*u*K1 + u^2*K2 in units of max(R1, R2); below the
    touching level u0 of overlapping supports, and for every pair with
    R1 == R2, the lower endpoint is the line dc (1 - u/u0).
    A NaN x passes both range tests and gets grade 1.
    """
    lo0, hi0 = d.cut(0.0)
    if x < lo0 or x > hi0:
        return 0.0
    if x <= d.dc and (d.u0 < 1.0 or d.R1 == d.R2):
        return 1.0 if d.dc == 0.0 else max(0.0, 1.0 - d.u0 * (1.0 - x / d.dc))
    theta, branch = ((d.argmin_theta, -1.0) if x <= d.dc
                     else (d.argmax_theta, 1.0))
    m = max(d.R1, d.R2)
    w1, w2 = d.R1 / m * math.cos(theta), d.R2 / m * math.sin(theta)
    k1 = d.d1 / m * w1 + d.d2 / m * w2
    k2 = w1 * w1 + w2 * w2
    disc = k1 * k1 - k2 * ((d.dc / m) ** 2 - (x / m) ** 2)
    u = (-k1 + branch * math.sqrt(max(0.0, disc))) / k2
    return min(1.0, max(0.0, 1.0 - u))


def distance_cut_reference(d: FuzzyDistance, alpha: float) -> tuple[float, float]:
    """The cut (lo, hi) of d at one level, in Python scalar arithmetic.

    An independent statement of the two-case cut, which
    FuzzyDistance.cut_table must equal bit for bit: hi is the gap at the
    upper direction, and lo the gap at the lower direction below the
    separation level u0 = hypot(d1/R1, d2/R2) and 0 from u0 on.
    """
    u = 1.0 - alpha
    hi = float(_gap(d.R1, d.R2, d.d1, d.d2, d.argmax_theta, u))
    u0 = math.hypot(d.d1 / d.R1, d.d2 / d.R2)
    lo = float(_gap(d.R1, d.R2, d.d1, d.d2, d.argmin_theta, u)) if u < u0 else 0.0
    return (lo, hi)


def bisect_membership(cut, x: float, tol: float = 1e-10) -> float:
    """Grade of x in the fuzzy number with cut function cut: alpha -> (lo, hi).

    Bisects for the largest level whose cut contains x, assuming lo is
    non-decreasing and hi non-increasing in alpha.
    """
    lo0, hi0 = cut(0.0)
    if x < lo0 or x > hi0:
        return 0.0
    lo1, hi1 = cut(1.0)
    if lo1 <= x <= hi1:
        return 1.0

    if x < lo1:
        def inside(alpha: float) -> bool:
            return cut(alpha)[0] <= x
    else:
        def inside(alpha: float) -> bool:
            return cut(alpha)[1] >= x

    a_in, a_out = 0.0, 1.0
    while a_out - a_in > tol:
        mid = 0.5 * (a_in + a_out)
        if inside(mid):
            a_in = mid
        else:
            a_out = mid
    return a_in


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse; rx == ry is a disk and rx == ry == 0 a point."""

    cx: float
    cy: float
    rx: float
    ry: float

    def __post_init__(self):
        if self.rx < 0 or self.ry < 0:
            raise ValueError("ellipse radii must be nonnegative")

    @classmethod
    def point(cls, x: float, y: float) -> "Ellipse":
        return cls(x, y, 0.0, 0.0)

    @classmethod
    def disk(cls, x: float, y: float, r: float) -> "Ellipse":
        return cls(x, y, r, r)

    @classmethod
    def from_fuzzy_cut(cls, p: FuzzyPoint, alpha: float) -> "Ellipse":
        rx, ry = cut_radii(p, alpha)
        return cls(p.core.x, p.core.y, rx, ry)

    @property
    def is_disk(self) -> bool:
        return self.rx == self.ry

    def support(self, theta) -> float:
        """Support function value in direction (cos(theta), sin(theta))."""
        c, s = np.cos(theta), np.sin(theta)
        return self.cx * c + self.cy * s + np.sqrt(
            (self.rx * c) ** 2 + (self.ry * s) ** 2)


def _golden_minimize(f, a: float, b: float, tol: float = 1e-12):
    """Golden-section search for the minimum of f on [a, b]."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def crisp_hausdorff(s1: Ellipse, s2: Ellipse, directions: int = 360) -> float:
    """Hausdorff distance between two convex shapes.

    Disk pairs use the exact closed form; ellipse pairs maximize the
    support-function difference over a fan of directions with golden
    section refinement around the best bracket.
    """
    if s1.is_disk and s2.is_disk:
        dc = math.hypot(s1.cx - s2.cx, s1.cy - s2.cy)
        return dc + abs(s1.rx - s2.rx)

    thetas = np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False)
    diff = np.abs(s1.support(thetas) - s2.support(thetas))
    best = int(np.argmax(diff))
    step = 2.0 * math.pi / directions
    _, neg = _golden_minimize(
        lambda t: -abs(float(s1.support(t) - s2.support(t))),
        thetas[best] - step, thetas[best] + step, tol=1e-12)
    return max(float(diff[best]), -neg)


class _ReferenceLine:
    """The line a*x + b*y = c as LineSpec held it before Hausdorff rows were
    batched: a unit normal of canonical sign, with theta, direction and
    anchor recomputed by every call."""

    def __init__(self, a: float, b: float, c: float):
        norm = math.hypot(a, b)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("line requires (a, b) != (0, 0)")
        a, b, c = a / norm, b / norm, c / norm
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        self.a, self.b, self.c = a, b, c

    @property
    def theta(self) -> float:
        return line_frame(self)[0]

    @property
    def direction(self) -> tuple[float, float]:
        t = self.theta
        return (math.cos(t), math.sin(t))

    @property
    def anchor(self) -> fg.Point2:
        return fg.Point2(*line_frame(self)[1])

    def contains(self, p, tol: float = 1e-9) -> bool:
        ax, by = self.a * p.x, self.b * p.y
        return abs(ax + by - self.c) <= tol * max(1.0, abs(ax) + abs(by) + abs(self.c))

    def project(self, p: FuzzyPoint) -> fg.TriangularNumber:
        if not self.contains(p.core):
            raise ValueError("projection line must pass through the fuzzy point core")
        cx, sx = self.direction
        w = math.hypot(p.spread.p1 * cx, p.spread.p2 * sx)
        ox, oy = self.anchor
        s0 = (p.core.x - ox) * cx + (p.core.y - oy) * sx
        return fg.TriangularNumber(s0 - w, s0, s0 + w)


def hausdorff_reference(a: FuzzyPoint, b: FuzzyPoint) -> tuple:
    """The 13 numbers of the fuzzy Hausdorff distance by the object path
    that preceded hausdorff.hausdorff_rows: a line object, two projected
    triangular numbers and the support-level cut of the nearer and the
    farther projection.  (l, m, u), both projected triples, then the line's
    a, b, c and theta; errors raise the messages that path raised.
    """
    if a.core.x == b.core.x and a.core.y == b.core.y:
        raise ValueError("fuzzy Hausdorff distance requires distinct cores")
    p, q = a.core, b.core
    line = _ReferenceLine(q.y - p.y, p.x - q.x, 0.0)
    # c from the unit normal, which overflows only where the coordinates do
    line.c = line.a * p.x + line.b * p.y
    pa, pb = line.project(a), line.project(b)
    near, far = (pb, pa) if pb.summary.m < pa.summary.m else (pa, pb)
    (a_lo, a_hi), (b_lo, b_hi) = near._ends(0.0), far._ends(0.0)
    lo0, hi0 = float(np.maximum(0.0, b_lo - a_hi)), float(b_hi - a_lo)
    summary = TriangularTriple(lo0, far.summary.m - near.summary.m, hi0)
    return (*summary.as_tuple(), *pa.summary.as_tuple(), *pb.summary.as_tuple(),
            line.a, line.b, line.c, line.theta)


def ellipse_boundary(e, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([e.cx + e.rx * np.cos(t), e.cy + e.ry * np.sin(t)], axis=1)


def hausdorff_boundary_oracle(e1, e2, n=10_000):
    """Hausdorff distance via dense boundary sampling of both shapes."""

    def directed(src, dst):
        pts = ellipse_boundary(src, n) if src.rx > 0 or src.ry > 0 \
            else np.array([[src.cx, src.cy]])
        dst_pts = ellipse_boundary(dst, n) if dst.rx > 0 or dst.ry > 0 \
            else np.array([[dst.cx, dst.cy]])
        if dst.rx > 0 and dst.ry > 0:
            inside = (((pts[:, 0] - dst.cx) / dst.rx) ** 2
                      + ((pts[:, 1] - dst.cy) / dst.ry) ** 2) <= 1.0
        else:
            inside = np.zeros(len(pts), dtype=bool)
        dists, _ = cKDTree(dst_pts).query(pts)
        dists[inside] = 0.0
        return float(dists.max())

    return max(directed(e1, e2), directed(e2, e1))


def hausdorff_support_oracle(e1, e2, directions=7200):
    """Hausdorff distance of convex sets as the sup-norm support gap."""
    t = np.linspace(0.0, 2.0 * np.pi, directions, endpoint=False)
    return float(np.max(np.abs(e1.support(t) - e2.support(t))))


def bisect_root(f, lo, hi, tol=1e-12):
    """Plain bisection for a sign change of f on [lo, hi]."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * f(hi) > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_circular(rng, core_lo=-5.0, core_hi=5.0, r_lo=0.2, r_hi=1.5):
    x, y = rng.uniform(core_lo, core_hi, size=2)
    return fg.FuzzyPoint.circular(x, y, rng.uniform(r_lo, r_hi))


def random_elliptical(rng, core_lo=-5.0, core_hi=5.0, r_lo=0.2, r_hi=1.5):
    x, y = rng.uniform(core_lo, core_hi, size=2)
    p1, p2 = rng.uniform(r_lo, r_hi, size=2)
    return fg.FuzzyPoint.elliptical(x, y, p1, p2)


def random_point(rng, **kwargs):
    if rng.random() < 0.5:
        return random_circular(rng, **kwargs)
    return random_elliptical(rng, **kwargs)


def random_separated_pair(rng, min_gap=4.0, max_gap=10.0, r_lo=0.2, r_hi=1.0):
    """A pair with disjoint supports and a controlled core distance."""
    x, y = rng.uniform(-3.0, 3.0, size=2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    gap = rng.uniform(min_gap, max_gap)
    a = random_point(rng, core_lo=0.0, core_hi=0.0, r_lo=r_lo, r_hi=r_hi)
    a = fg.FuzzyPoint(fg.Point2(x, y), a.spread)
    b = random_point(rng, core_lo=0.0, core_hi=0.0, r_lo=r_lo, r_hi=r_hi)
    b = fg.FuzzyPoint(fg.Point2(x + gap * np.cos(angle), y + gap * np.sin(angle)),
                      b.spread)
    return a, b


def membership_pairs(rng, n):
    """n seeded pairs with distinct cores, cycling through four kinds.

    Separated pairs, overlapping circular and overlapping elliptical pairs
    (cores within [-1, 1]^2, summed radii at least 3), and elliptical pairs
    anywhere in [-5, 5]^2.
    """
    pairs = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            pairs.append(random_separated_pair(rng))
        elif kind == 1:
            pairs.append((random_circular(rng, -1.0, 1.0, 1.5, 2.0),
                          random_circular(rng, -1.0, 1.0, 1.5, 2.0)))
        elif kind == 2:
            pairs.append((random_elliptical(rng, -1.0, 1.0, 1.5, 2.0),
                          random_elliptical(rng, -1.0, 1.0, 1.5, 2.0)))
        else:
            pairs.append((random_elliptical(rng), random_elliptical(rng)))
    return pairs


def membership_probes(number, pad):
    """Values across a fuzzy number's support, pad beyond each end, and at and around its core."""
    lo0, core, hi0 = number.summary.as_tuple()
    return [*np.linspace(lo0 - pad, hi0 + pad, 25).tolist(), -pad,
            core, core - 1e-3 * (core - lo0), core + 1e-3 * (hi0 - core)]


def linear_membership_reference(number, x: float) -> float:
    """Grade of x in a TriangularNumber or a HausdorffResult, each inverted
    by its own copy of the linear formula; the Hausdorff support starts at
    max(0, lo0)."""
    if isinstance(number, fg.HausdorffResult):
        near, far = number.near.summary, number.far.summary
        l, m, u = far.l - near.u, far.m - near.m, far.u - near.l
        start = max(0.0, l)
    else:
        l, m, u = number.summary.as_tuple()
        start = l
    if not start <= x <= u:
        return 0.0
    if x < m:
        return (x - l) / (m - l)
    if x > m:
        return (u - x) / (u - m)
    return 1.0


def support_width(number) -> float:
    """hi - lo of a fuzzy number's cut at alpha = 0."""
    lo, hi = number.cut(0.0)
    return hi - lo


def min_triangle_slack(cores) -> float:
    """Smallest (leg + leg - base) over ordered triples of distinct core points."""
    c = np.asarray(cores, dtype=float)
    dist = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    # slack[i, j, k] = (|ij| + |jk|) - |ik|
    slack = dist[:, :, None] + dist[None, :, :] - dist[:, None, :]
    i, j, k = np.ogrid[:len(c), :len(c), :len(c)]
    return float(slack[(i != j) & (j != k) & (i != k)].min())


def _attach_spreads(rng, cores, r_lo, r_hi, circular):
    points = []
    for core in cores:
        if circular or rng.random() < 0.5:
            points.append(fg.FuzzyPoint.circular(core[0], core[1],
                                                 rng.uniform(r_lo, r_hi)))
        else:
            p1, p2 = rng.uniform(r_lo, r_hi, size=2)
            points.append(fg.FuzzyPoint.elliptical(core[0], core[1], p1, p2))
    return points


def general_position_triple(rng, box=10.0, r_lo=0.05, r_hi=0.3,
                            min_slack=1.0, circular=False):
    """A random fuzzy-point triple whose cores are far from collinear.

    The triangle slack of every ordered triple stays above min_slack,
    which must exceed the worst-case lower-endpoint loss 2*r_hi; a point
    lying between two others with positive spread provably violates the
    componentwise triangle inequality, so that degenerate band is the one
    regime excluded here.
    """
    assert min_slack > 2.0 * r_hi
    for _ in range(MAX_DRAWS):
        cores = [rng.uniform(0.0, box, size=2) for _ in range(3)]
        if min_triangle_slack(cores) >= min_slack:
            return _attach_spreads(rng, cores, r_lo, r_hi, circular)
    raise ValueError(f"no triple with slack {min_slack} in {MAX_DRAWS} draws")


def general_position_points(rng, n, r_lo=0.05, r_hi=0.3, circular=False,
                            max_draws=MAX_DRAWS):
    """n random fuzzy points in convex general position.

    Cores sit on a radially jittered regular n-gon, which keeps every
    triple's slack well above the 2*r_hi loss bound (for n = 10 at radius
    15 the minimum slack is around 0.7, and about one draw in 70 passes);
    uniform box sampling cannot do this for 10 points, some triple is
    always nearly collinear.  From n = 12 on even the unjittered n-gon
    misses the bound, so the search raises after max_draws draws.
    """
    radius = 1.5 * n
    min_slack = 2.0 * r_hi * 1.15
    for _ in range(max_draws):
        angles = (np.arange(n) + rng.uniform(-0.02, 0.02, size=n)) \
            * (2.0 * np.pi / n)
        radii = radius * rng.uniform(0.95, 1.05, size=n)
        cores = [np.array([r * np.cos(t), r * np.sin(t)])
                 for r, t in zip(radii, angles)]
        if min_triangle_slack(cores) >= min_slack:
            return _attach_spreads(rng, cores, r_lo, r_hi, circular)
    raise ValueError(f"no {n} points in general position in {max_draws} draws")


def equidistant_membership_reference(q, a, b) -> float:
    """Grade of a point in the fuzzy equidistant set, gathering the active roots.

    Each branch residual is linear in u = 1 - alpha, with the one root
    u = (d1 - d2)/(r1 - r2) or u = (d1 + d2)/(r1 + r2) (grade 1 on the
    bisector when r1 = r2, where |d1 - d2| is within 4 ulps of the larger
    distance); the grade is the largest root level in [0, 1] at which the
    overlap case of the cut disks makes its branch active.
    """
    pair = _circle_pair(a, b)
    r1, r2 = pair.r1, pair.r2
    d1 = math.hypot(q.x - a.core.x, q.y - a.core.y)
    d2 = math.hypot(q.x - b.core.x, q.y - b.core.y)
    roots = [(Branch.SAME, 1.0 - (d1 + d2) / (r1 + r2))]
    if r1 != r2:
        roots.append((Branch.INVERSE, 1.0 - (d1 - d2) / (r1 - r2)))
    elif abs(d1 - d2) <= 4.0 * np.finfo(float).eps * max(d1, d2):
        roots.append((Branch.INVERSE, 1.0))
    return max((alpha for branch, alpha in roots if 0.0 <= alpha <= 1.0
                and branch in _ACTIVE_BRANCHES[pair.case(1.0 - alpha)]),
               default=0.0)


def branch_residual(q, a, b, alpha, branch) -> float:
    """Residual (d1 - r1 u) -+ (d2 - r2 u) of a midset branch at the point q."""
    u = 1.0 - alpha
    fb = q.distance_to(b.core) - b.radius * u
    return q.distance_to(a.core) - a.radius * u - (fb if branch is Branch.INVERSE else -fb)


def branch_residuals(pts, a, b, alpha, branch):
    """Unsquared residual d1 -+ d2 - k of a midset branch at each row of pts.

    Its zero set is the branch itself: the conjugate hyperbola sheet that
    squaring adds is where the inverse residual equals -2k, not 0.
    """
    u = 1.0 - alpha
    d1 = np.hypot(pts[..., 0] - a.core.x, pts[..., 1] - a.core.y)
    d2 = np.hypot(pts[..., 0] - b.core.x, pts[..., 1] - b.core.y)
    if branch is fg.Branch.INVERSE:
        return d1 - d2 - (a.radius - b.radius) * u
    return d1 + d2 - (a.radius + b.radius) * u


def midset_crossing_cells(a, b, alpha, branch, bbox, resolution):
    """Centres of the grid cells where a branch residual changes sign.

    The grid has resolution nodes per side over bbox, as the marching
    squares contouring of Lorensen & Cline (1987) would sample it; a cell
    whose four corners do not share one sign holds a piece of the branch.
    """
    xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1)
    pos = branch_residuals(grid, a, b, alpha, branch) > 0.0
    corners = np.stack([pos[:-1, :-1], pos[:-1, 1:], pos[1:, :-1], pos[1:, 1:]])
    iy, ix = np.nonzero(corners.any(axis=0) & ~corners.all(axis=0))
    return np.column_stack([0.5 * (xs[ix] + xs[ix + 1]), 0.5 * (ys[iy] + ys[iy + 1])])


def midset_polylines(a, b, alpha, **kwargs) -> dict:
    """The polylines of each branch active at alpha: the entries of
    compute_midset at that one level."""
    return {entry.branch: entry.polylines
            for entry in fg.compute_midset(a, b, alphas=[alpha], **kwargs).entries}


def invariance_reference(a, b, t_values, bbox=None, resolution=DEFAULT_RESOLUTION,
                         alphas=(0.0, 0.25, 0.5, 0.75, 1.0), tol=1e-9):
    """Both residuals on every grid point, the full-grid loop invariance_check replaced.

    Its reports must agree field by field.  It warns (invalid value in
    multiply) on grids with pole points.
    """
    for t in t_values:
        if t <= 0:
            raise ValueError(f"scale t must be positive, got {t}")
    r1, r2 = a.radius, b.radius
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    X, Y = np.meshgrid(xs, ys)
    d1 = np.hypot(X - a.core.x, Y - a.core.y)
    d2 = np.hypot(X - b.core.x, Y - b.core.y)

    report = InvarianceReport()
    for alpha in alphas:
        u = 1.0 - float(alpha)
        case = overlap_case(a, b, float(alpha))
        for branch in active_branches(case):
            fa = d1 - r1 * u
            fb = (d2 - r2 * u) if branch is Branch.INVERSE else -(d2 - r2 * u)
            res_d = fa - fb
            for t in t_values:
                with np.errstate(divide="ignore", invalid="ignore"):
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
                report.checked += int(res_d.size)
                report.disagreements += int(np.count_nonzero(disagree))
                report.pole_points += int(np.count_nonzero(poles))
    return report


# --- closeness-metric axioms -------------------------------------------------


def metric_axioms_reference(points, t_samples, tnorm, alpha_samples=11, tol=1e-9):
    """The closeness-metric axiom checks as one closeness object per case.

    The scalar loop check_metric_axioms replaced; its reports must agree
    check by check, failure lists and identity notes included.

    'Almost equals 1' is operationalized as: the closeness core, its cut at
    alpha = 1, is within tol of 1 at every t if and only if the cores
    coincide; spread equality is noted separately rather than folded into
    the identity verdict.
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
                lo0, _ = m.cut(0.0)
                positivity.count(lo0 > 0.0, (i, j, t, lo0))

            cores_eq, spreads_eq = _points_equal(points[i], points[j])
            core_grade_one = all(abs(closeness(d_ij, t).cut(1.0)[0] - 1.0) <= tol
                                 for t in t_samples)
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
                            zip(m_ij.cut(float(a)), m_ji.cut(float(a))))
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

                        cl_ab = closeness(dist(i, j), t)
                        cl_bc = closeness(dist(j, k), s)
                        cl_ac = closeness(dist(i, k), t + s)
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
                for v1, v2, d in ((m1.l, m2.l, hi_d), (m1.m, m2.m, d_ij.dc),
                                  (m1.u, m2.u, lo_d)):
                    bound = dt * d / ((t1 + d) * (t2 + d)) if d > 0 else 0.0
                    worst_excess = max(worst_excess, abs(v2 - v1) - bound)
            continuity.count(worst_excess <= tol, (i, j, worst_excess))

    return MetricAxiomReport(
        tnorm=tnorm.name, positivity=positivity, identity=identity,
        symmetry=symmetry, quadrangle=quadrangle,
        quadrangle_cuts=quadrangle_cuts, continuity=continuity)


def ks_axioms_reference(points, tol=1e-9):
    """The interval-valued metric axioms with one summary triple sum per triple.

    The loop check_ks_axioms replaced (with L = Min and R = Max); its
    reports must agree check by check, failure lists included, and an
    overflowing sum raises ValueError from TriangularTriple's +.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")

    n = len(points)
    zero_core = CheckResult("zero_core")
    symmetry = CheckResult("symmetry")
    triangle = CheckResult("triangle")

    dists = DistanceTable([(a, b) for a in points for b in points]).rows()

    def summary(i: int, j: int) -> TriangularTriple:
        return dists[i * n + j].summary

    for i in range(n):
        for j in range(n):
            cores_eq, _ = _points_equal(points[i], points[j])
            zero_core.count((dists[i * n + j].cut(1.0)[1] <= tol) == cores_eq, (i, j))
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
                rhs = summary(i, k) + summary(k, j)
                ok = (lhs.l <= rhs.l + tol and lhs.m <= rhs.m + tol
                      and lhs.u <= rhs.u + tol)
                triangle.count(ok, {"triple": (i, j, k),
                                    "lhs": lhs.as_tuple(), "rhs": rhs.as_tuple()})

    return KSAxiomReport(zero_core=zero_core, symmetry=symmetry, triangle=triangle)


# --- CLI output --------------------------------------------------------------


def reference_rows(rows, end="\n") -> str:
    """Rows written value by value, as the CLI wrote them before block formatting.

    A number becomes format(float(v), ".9g"); any other cell becomes str(v).
    """
    return "".join(",".join(format(float(v), ".9g") if isinstance(v, (int, float, np.floating))
                            else str(v) for v in row) + end for row in rows)


def _jsonify(obj):
    """Round floats to the fixed output precision for stable serialization."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def reference_json(payload) -> str:
    """A payload as the CLI wrote every JSON file before the fixed-schema templates."""
    return json.dumps(_jsonify(payload), indent=2) + "\n"


# --- midsets as sampled and written before the single-pass sampler ----------


def sample_branch_reference(a, b, alpha, branch, bbox=None,
                            resolution=DEFAULT_RESOLUTION) -> list[np.ndarray]:
    """sample_branch as it was before it sampled x and y as separate arrays.

    Polylines of one branch's zero set inside the bounding box.

    In the frame centred between the cores, x along the core line, c = dc/2
    and t = sinh s, d1 - d2 = k is the hyperbola sheet (k/2 sqrt(1 + t^2),
    sqrt(c^2 - k^2/4) t): the bisector when k = 0 and the ray from the
    nearer core away from the other at internal tangency.  d1 + d2 = k is
    the ellipse (k/2 cos s, sqrt(k^2/4 - c^2) sin s), a circle for
    concentric cores.  A branch inactive at this level gives [].  Exact
    vertices at equal arc-length steps of at most one cell
    max(w, h)/(resolution - 1) are split into the runs inside the bbox.
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
    r1, r2, dc, _ = _circle_pair(a, b)
    k = ((r1 - r2) if branch is Branch.INVERSE else (r1 + r2)) * (1.0 - alpha)
    c = dc / 2.0
    mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
    ex, ey = ((b.core.x - mx) / c, (b.core.y - my) / c) if c > 0.0 else (1.0, 0.0)
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

    polylines = []
    for t0, t1 in spans:
        # dense exact samples at most h = cell/16 apart; arc-length steps of
        # at most cell - h snapped to them keep every chord within one cell
        t = np.linspace(t0, t1, math.ceil(16.0 * speed * (t1 - t0) / cell) + 2)
        if branch is Branch.INVERSE:
            x, y = half * np.sqrt(1.0 + t * t), minor * t
        else:
            x, y = half * np.cos(t), minor * np.sin(t)
        pts = np.column_stack((mx + x * ex - y * ey, my + x * ey + y * ex))
        if branch is Branch.SAME:
            pts[-1] = pts[0]
        seg = np.hypot(*np.diff(pts, axis=0).T)
        arc = np.concatenate(([0.0], np.cumsum(seg)))
        steps = max(1, math.ceil(arc[-1] / (cell - seg.max())))
        pts = pts[np.unique(np.searchsorted(arc, np.linspace(0.0, arc[-1], steps + 1)))]
        inside = ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
                  & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
        runs = np.split(np.arange(len(pts)), np.flatnonzero(np.diff(inside)) + 1)
        if branch is Branch.SAME and len(runs) > 1 and inside[0] and inside[-1]:
            # the closed ellipse re-enters at its start: join the first and last runs
            runs = [np.concatenate((runs[-1][:-1], runs[0]))] + runs[1:-1]
        polylines += [pts[r] for r in runs if inside[r[0]] and len(r) > 1]
    return polylines


def midset_files_reference(a, b, result, size=640):
    """The midset CSV texts per level and the SVG text, as the CLI wrote them
    when each vertex was formatted once for the CSV and again for the SVG,
    every value formatted on its own by reference_rows.

    Returns ({alpha: csv text}, svg text).
    """
    csvs = {}
    for alpha, entries in groupby(result.entries, key=attrgetter("alpha")):
        csvs[alpha] = "branch,polyline,x,y\n" + reference_rows(
            (entry.branch.value, j, x, y)
            for entry in entries for j, polyline in enumerate(entry.polylines)
            for x, y in polyline.tolist())

    xmin, ymin, xmax, ymax = result.bbox
    width = xmax - xmin
    height = ymax - ymin
    scale = size / max(width, height)
    stroke = 1.5 / scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{fmt(width * scale)}" height="{fmt(height * scale)}" '
        f'viewBox="0 0 {fmt(width * scale)} {fmt(height * scale)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<g transform="scale({fmt(scale)},{fmt(-scale)}) '
        f'translate({fmt(-xmin)},{fmt(-ymax)})">',
    ]

    for fp, color in ((a, "#777777"), (b, "#aaaaaa")):
        parts.append(
            f'<ellipse cx="{fmt(fp.core.x)}" cy="{fmt(fp.core.y)}" '
            f'rx="{fmt(fp.spread.p1)}" ry="{fmt(fp.spread.p2)}" '
            f'fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')
        parts.append(
            f'<circle cx="{fmt(fp.core.x)}" cy="{fmt(fp.core.y)}" '
            f'r="{fmt(2.0 * stroke)}" fill="{color}"/>')

    for entry in result.entries:
        color = _alpha_color(entry.alpha, entry.branch)
        for polyline in entry.polylines:
            parts.append(
                f'<polyline points="{reference_rows(polyline, end=" ")[:-1]}" '
                f'fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')

    parts.append("</g>")
    parts.append("</svg>")
    return csvs, "\n".join(parts) + "\n"
