"""Fuzzy distance between two fuzzy points.

The alpha-cut of the distance collects the extremal distances between
opposite boundary points of the two cut ellipses taken along a common
direction.  Writing V(theta, u) = (d1 + R1*u*cos(theta), d2 + R2*u*sin(theta))
with u = 1 - alpha, R_i the summed spreads and (d1, d2) the core offset,
the over/under boundary gap is |V(theta, u)| and the two cross pairings of
a direction are |V(theta, u)| and |V(theta + pi, u)|.  Extremizing over the
full circle therefore reduces to extremizing the single function |V|.

The extremal directions are located once at the support level, as roots
of a quartic in tan(theta/2) (the point-to-ellipse distance problem), and
then held fixed across alpha; for circular spreads this is exact (the
extremal direction is the core-to-core slope for every alpha) and it keeps
the squared per-alpha endpoints exact quadratics in alpha for elliptical
spreads, so the membership of a distance value inverts a quadratic.  The
roots are the eigenvalues of the quartics' companion matrices (A. Edelman
and H. Murakami, Math. Comp. 64, 1995): fuzzy_distances builds each pair's
quartic with scalar arithmetic and solves all of them with one
np.linalg.eigvals call on the stacked matrices, and FuzzyDistance(a, b)
is the same solve for one pair.  When
the supports overlap, the lower endpoint collapses to zero down to the
level u0 at which the cuts separate, and below u0 it grows linearly along
the direction in which the cuts last touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DistanceMembershipParams:
    """Shared geometry of a fuzzy point pair: summed spreads and core offset."""

    R1: float
    R2: float
    d1: float
    d2: float
    dc: float

    @classmethod
    def from_points(cls, a: FuzzyPoint, b: FuzzyPoint) -> "DistanceMembershipParams":
        d1 = a.core.x - b.core.x
        d2 = a.core.y - b.core.y
        return cls(
            R1=a.spread.p1 + b.spread.p1,
            R2=a.spread.p2 + b.spread.p2,
            d1=d1,
            d2=d2,
            dc=math.hypot(d1, d2),
        )

    def gap(self, theta, u):
        """Distance between the over-boundary of A and under-boundary of B."""
        return np.hypot(self.d1 + self.R1 * u * np.cos(theta),
                        self.d2 + self.R2 * u * np.sin(theta))

    @property
    def separation_level(self) -> float:
        """u0: the largest cut scale at which the two cuts do not overlap."""
        return math.hypot(self.d1 / self.R1, self.d2 / self.R2)


@dataclass(frozen=True)
class PerAlphaDistance:
    alpha: float
    lo: float
    mid: float
    hi: float
    argmin_theta: float
    argmax_theta: float
    refined: bool = True


# g at eight equally spaced directions, as cos, sin and sin of the double
# angle; a base angle phi and its cos and sin for each direction phi + pi
_SAMPLES = np.arange(8) * (math.pi / 4.0)
_SAMPLE_TRIG = tuple(zip(np.cos(_SAMPLES).tolist(), np.sin(_SAMPLES).tolist(),
                         np.sin(2.0 * _SAMPLES).tolist()))
_BASES = tuple((phi, math.cos(phi), math.sin(phi))
               for phi in (s - math.pi for s in _SAMPLES.tolist()))


def _quartic(p: DistanceMembershipParams) -> Optional[tuple[float, tuple]]:
    """Base angle phi and the quartic in t = tan((theta - phi)/2), or None if flat.

    The stationary directions of |V(theta, 1)| zero
    g = R2*d2*cos(theta) - R1*d1*sin(theta) + (e/2)*sin(2*theta),
    e = R2^2 - R1^2 (the point-to-ellipse problem), and t makes g = 0 a
    quartic with t^4 coefficient g(phi + pi).  Placing phi + pi at the
    largest |g| of eight equally spaced directions (at least the coefficient
    norm over sqrt(2)) keeps all roots bounded; with phi = 0 a root near
    infinity swamps the others as the cores meet.  Lengths are in units of
    max(R1, R2).  g is identically zero only for the flat profile
    (concentric cores, R1 == R2).
    """
    m = max(p.R1, p.R2)
    r1, r2 = p.R1 / m, p.R2 / m
    a1, b1, b2 = r2 * (p.d2 / m), -r1 * (p.d1 / m), 0.5 * (r2 * r2 - r1 * r1)
    if a1 == b1 == b2 == 0.0:
        return None
    g = [abs(a1 * c + b1 * s + b2 * s2) for c, s, s2 in _SAMPLE_TRIG]
    phi, c, s = _BASES[g.index(max(g))]
    # g(phi + psi) = A1 cos(psi) + B1 sin(psi) + A2 cos(2 psi) + B2 sin(2 psi)
    A1, B1 = a1 * c + b1 * s, b1 * c - a1 * s
    A2, B2 = 2.0 * b2 * s * c, b2 * (c * c - s * s)
    return phi, (A2 - A1, 2.0 * (B1 - 2.0 * B2), -6.0 * A2,
                 2.0 * (B1 + 2.0 * B2), A1 + A2)


# per degree k, the rows below the first of a k x k companion matrix,
# flattened: ones on the subdiagonal
_SUBDIAGONAL = {k: [float(j % (k + 1) == 0) for j in range(k * (k - 1))] for k in range(1, 5)}


def _poly_roots(polys: Sequence[tuple[float, ...]]) -> np.ndarray:
    """Real parts of the roots of polynomials of one length, highest power first.

    Row i holds the roots of polys[i], whose leading coefficient must be
    nonzero.  The roots are the eigenvalues of the companion matrices, with
    one np.linalg.eigvals call on the stack of all polynomials of one
    degree.  As numpy.roots does, and bit for bit like it, trailing zero
    coefficients are stripped and give exact zero roots after the others.
    """
    size = len(polys[0])
    by_degree = {}
    for i, c in enumerate(polys):
        k = size - 1
        while c[k] == 0.0:
            k -= 1
        by_degree.setdefault(k, []).append(i)
    roots = np.zeros((len(polys), size - 1))
    for k, rows in by_degree.items():
        companion = np.array([[-c / polys[i][0] for c in polys[i][1:k + 1]] + _SUBDIAGONAL[k]
                              for i in rows])
        found = np.linalg.eigvals(companion.reshape(-1, k, k)).real
        if k == size - 1 and len(rows) == len(polys):
            return found  # one stack of full degree holds every row, in order
        roots[rows, :k] = found
    return roots


def _extremal_directions(params: Sequence[DistanceMembershipParams]
                         ) -> list[tuple[float, float, bool]]:
    """Directions of the smallest and largest support-level gap |V(theta, 1)| per pair.

    Each pair's stationary directions are phi + 2*atan(t) over the real
    parts of its quartic's roots (see _quartic); a complex root only adds a
    losing candidate.  All quartics are solved together, and the argmin and
    argmax of the gap are taken over every pair's candidates at once.

    Each entry is (theta_min, theta_max, refined); refined is False only for
    the flat profile, whose directions are both 0.
    """
    out = [(0.0, 0.0, False)] * len(params)
    found = [(i, q) for i, q in enumerate(map(_quartic, params)) if q is not None]
    if not found:
        return out
    # (m, 1) columns, one row per solved pair
    phi, R1, R2, d1, d2 = np.array([(base, params[i].R1, params[i].R2, params[i].d1,
                                     params[i].d2) for i, (base, _) in found]).T[:, :, None]
    thetas = phi + 2.0 * np.arctan(_poly_roots([quartic for _, (_, quartic) in found]))
    # gap(theta, 1) of every candidate; R * 1 == R, so the values are gap()'s
    gaps = np.hypot(d1 + R1 * np.cos(thetas), d2 + R2 * np.sin(thetas))
    for (i, _), row, lo, hi in zip(found, thetas.tolist(), gaps.argmin(axis=1).tolist(),
                                   gaps.argmax(axis=1).tolist()):
        out[i] = (row[lo] % TWO_PI, row[hi] % TWO_PI, True)
    return out


class FuzzyDistance(FuzzyNumber):
    """The fuzzy distance d(A, B) as a fuzzy number with closed-form cuts."""

    def __init__(self, a: FuzzyPoint, b: FuzzyPoint):
        p = DistanceMembershipParams.from_points(a, b)
        self._setup(p, *_extremal_directions([p])[0])

    def _setup(self, p: DistanceMembershipParams, theta_min: float,
               theta_max: float, refined: bool) -> None:
        self.params = p
        self._u0 = p.separation_level
        self.argmax_theta, self.refined = theta_max, refined
        if self._u0 >= 1.0:
            self.argmin_theta = theta_min
        elif self._u0 > 0.0:
            # angle at which the shrinking cuts last touch; u0 > 0 cancels
            # in atan2, and dividing by R * u0 could underflow to 0
            self.argmin_theta = math.atan2(-p.d2 / p.R2, -p.d1 / p.R1) % TWO_PI
        else:
            self.argmin_theta = 0.0

    def _ends(self, alphas):
        """Cut ends at the levels alphas, a float or an array.

        hi is the gap at the frozen argmax direction.  lo is the gap at the
        frozen argmin direction for separate supports, linear below the
        touching level u0 for overlapping ones, and 0 for concentric cores;
        every branch is already at least +0.0.
        """
        p = self.params
        u = 1.0 - alphas
        hi = p.gap(self.argmax_theta, u)
        if self._u0 >= 1.0:
            lo = p.gap(self.argmin_theta, u)
        elif self._u0 > 0.0:
            lo = p.dc * np.maximum(0.0, self._u0 - u) / self._u0
        else:
            lo = np.zeros_like(u)
        return lo, hi

    @cached_property
    def _support(self) -> tuple[float, float]:
        """The support-level cut (lo0, hi0), computed on first use."""
        return self.cut(0.0)

    @cached_property
    def _inverse(self) -> tuple:
        """What membership reads, computed on first use.

        (lo0, hi0, dc, u0, m, (dc/m)^2, lower, upper) with m = max(R1, R2).
        lower and upper hold (K1, K2, branch) for the cut end below and
        above dc, the terms of x^2 = dc^2 + 2*u*K1 + u^2*K2 in units of m at
        the end's frozen direction; lower is None where that end is linear
        (u0 < 1).
        """
        p = self.params
        m = max(p.R1, p.R2)

        def terms(theta: float, branch: float) -> tuple[float, float, float]:
            w1, w2 = p.R1 / m * math.cos(theta), p.R2 / m * math.sin(theta)
            return p.d1 / m * w1 + p.d2 / m * w2, w1 * w1 + w2 * w2, branch

        lower = terms(self.argmin_theta, -1.0) if self._u0 >= 1.0 else None
        return (*self._support, p.dc, self._u0, m, (p.dc / m) ** 2, lower,
                terms(self.argmax_theta, 1.0))

    def membership(self, x: float) -> float:
        """Grade 1 - u of x, inverting the cut in closed form.

        Each endpoint is the gap at its frozen direction, so u solves
        x^2 = dc^2 + 2*u*K1 + u^2*K2 in units of max(R1, R2); below the
        touching level u0 of overlapping supports the lower endpoint is
        linear.  The terms come from _inverse, built once per distance.
        """
        lo0, hi0, dc, u0, m, dc_sq, lower, upper = self._inverse
        if not lo0 <= x <= hi0:
            return 0.0
        if x <= dc:
            if lower is None:
                return 1.0 if dc == 0.0 else 1.0 - u0 * (1.0 - x / dc)
            k1, k2, branch = lower
        else:
            k1, k2, branch = upper
        disc = k1 * k1 - k2 * (dc_sq - (x / m) ** 2)
        u = (-k1 + branch * math.sqrt(max(0.0, disc))) / k2
        return min(1.0, max(0.0, 1.0 - u))

    @cached_property
    def summary(self) -> TriangularTriple:
        lo0, hi0 = self._support
        return TriangularTriple(lo0, self.params.dc, hi0)

    def per_alpha(self, alpha: float) -> PerAlphaDistance:
        lo, hi = self.cut(alpha)
        return PerAlphaDistance(
            alpha=alpha, lo=lo, mid=self.params.dc, hi=hi,
            argmin_theta=self.argmin_theta, argmax_theta=self.argmax_theta,
            refined=self.refined,
        )


def endpoint_distances(a: FuzzyPoint, b: FuzzyPoint, alpha: float,
                       theta: float) -> tuple[float, float]:
    """The two cross-boundary distances at a common direction, as (min, max)."""
    ba = a.cut_boundary(alpha, theta)
    bb = b.cut_boundary(alpha, theta)
    d_under_over = ba.under.distance_to(bb.over)
    d_over_under = ba.over.distance_to(bb.under)
    return (min(d_under_over, d_over_under), max(d_under_over, d_over_under))


def fuzzy_distance(a: FuzzyPoint, b: FuzzyPoint) -> FuzzyDistance:
    return FuzzyDistance(a, b)


def fuzzy_distances(pairs: Iterable[tuple[FuzzyPoint, FuzzyPoint]]) -> list[FuzzyDistance]:
    """The fuzzy distance of every (a, b) pair, all extremal directions solved at once."""
    params = [DistanceMembershipParams.from_points(a, b) for a, b in pairs]
    dists = []
    for p, directions in zip(params, _extremal_directions(params)):
        d = FuzzyDistance.__new__(FuzzyDistance)
        d._setup(p, *directions)
        dists.append(d)
    return dists


def distance_alpha(a: FuzzyPoint, b: FuzzyPoint, alpha: float) -> PerAlphaDistance:
    return FuzzyDistance(a, b).per_alpha(alpha)


def distance_membership(a: FuzzyPoint, b: FuzzyPoint, x: float) -> float:
    """Grade of a candidate distance value x in the fuzzy distance of (a, b)."""
    if x < 0:
        raise ValueError(f"distance value must be nonnegative, got {x}")
    return fuzzy_distance(a, b).membership(x)


def prop_core_angle(a: FuzzyPoint, b: FuzzyPoint) -> float:
    """Slope angle of the core-joining line, in [0, pi).

    For circular spreads the extremal boundary directions coincide with
    this angle modulo pi at every alpha level.
    """
    if not (a.is_circular and b.is_circular):
        raise ValueError("the slope property applies to circular spreads only")
    d1 = a.core.x - b.core.x
    d2 = a.core.y - b.core.y
    if d1 == 0.0 and d2 == 0.0:
        raise ValueError("coincident cores: slope undefined")
    return math.atan2(d2, d1) % math.pi
