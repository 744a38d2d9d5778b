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
and H. Murakami, Math. Comp. 64, 1995): a DistanceTable builds each pair's
quartic with scalar arithmetic and solves all of them with one eigenvalue
call on the stacked matrices; FuzzyDistance(a, b) passes its one
companion matrix to the same LAPACK call.  When the supports overlap, the
lower endpoint collapses to zero down to the level u0 at which the cuts
separate, and below u0 it grows linearly along the direction in which the
cuts last touched.

A DistanceTable holds the pairs' geometry and frozen directions as column
arrays and cuts every pair in one broadcast.  A FuzzyDistance holds one
row's values: rows() copies each row of a table, and FuzzyDistance(a, b)
builds its one row directly, equal bit for bit to the row of a one-pair
table.  The branch of each pair's lower cut end is decided once, by
_lower_end, when the row is built, and _gap and _linear_end state the
branch formulas: the table evaluates each on its own rows only, a row in
scalar arithmetic, bit for bit alike.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple, Value, _set, alpha_levels

TWO_PI = 2.0 * math.pi


def _gap(R1, R2, d1, d2, theta, u):
    """|V(theta, u)|, elementwise on floats or broadcast arrays."""
    return np.hypot(d1 + R1 * u * np.cos(theta), d2 + R2 * u * np.sin(theta))


def _linear_end(dc, u0, u):
    """The lower cut end below the touching level u0 of overlapping supports.

    Only for 0 < u0 < 1: it divides by u0.
    """
    return dc * np.maximum(0.0, u0 - u) / u0


class DistanceMembershipParams(Value):
    """Shared geometry of a fuzzy point pair: summed spreads and core offset."""

    __slots__ = ("R1", "R2", "d1", "d2", "dc")

    def __init__(self, R1: float, R2: float, d1: float, d2: float, dc: float):
        _set(self, "R1", R1)
        _set(self, "R2", R2)
        _set(self, "d1", d1)
        _set(self, "d2", d2)
        _set(self, "dc", dc)

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
        return _gap(self.R1, self.R2, self.d1, self.d2, theta, u)

    @property
    def separation_level(self) -> float:
        """u0: the largest cut scale at which the two cuts do not overlap."""
        return math.hypot(self.d1 / self.R1, self.d2 / self.R2)


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


# as a decorator, errstate is not built anew on every call
@np.errstate(invalid="raise")
def _lapack_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of finite float64 square matrices, as complex numbers.

    The gufunc np.linalg.eigvals wraps, bit for bit the same eigenvalues,
    called without the wrapper's dtype dispatch and result cast, which cost
    twice the LAPACK call itself on one 4 x 4 matrix.  As in the wrapper,
    LAPACK non-convergence is an error.
    """
    # the first loop that takes float64 safely is d->D; a signature costs
    # a fifth of the call
    return _umath_linalg.eigvals(stack)


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """_lapack_eigvals, with a non-finite entry an error as in np.linalg.eigvals."""
    if not np.isfinite(stack).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return _lapack_eigvals(stack)


def _companion(c: Sequence[float], k: int) -> list[float]:
    """The k x k companion matrix of the degree k polynomial c[:k + 1], flattened."""
    return [-x / c[0] for x in c[1:k + 1]] + _SUBDIAGONAL[k]


def _poly_roots(polys: Sequence[tuple[float, ...]]) -> np.ndarray:
    """Real parts of the roots of polynomials of one length, highest power first.

    Row i holds the roots of polys[i], whose leading coefficient must be
    nonzero.  The roots are the eigenvalues of the companion matrices, with
    one eigenvalue call on the stack of all polynomials of one degree.  As
    numpy.roots does, and bit for bit like it, trailing zero coefficients
    are stripped and give exact zero roots after the others.
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
        companion = np.array([_companion(polys[i], k) for i in rows])
        found = _eigvals(companion.reshape(-1, k, k)).real
        if k == size - 1 and len(rows) == len(polys):
            return found  # one stack of full degree holds every row, in order
        roots[rows, :k] = found
    return roots


def _extremal_directions(params: Sequence[DistanceMembershipParams]
                         ) -> list[tuple[float, float, bool]]:
    """Directions of the smallest and largest support-level gap |V(theta, 1)| per pair.

    Each pair's stationary directions are phi + 2*atan(t) over the real
    parts of its quartic's roots (see _quartic); a complex root only adds a
    losing candidate.  All quartics are solved together, and every pair's
    candidate gaps are computed in one broadcast.

    Each entry is (theta_min, theta_max, refined); refined is False only for
    the flat profile, whose directions are both 0.
    """
    out = [(0.0, 0.0, False)] * len(params)
    solved, columns, quartics = [], [], []
    for i, p in enumerate(params):
        q = _quartic(p)
        if q is not None:
            solved.append(i)
            columns.append((q[0], p.R1, p.R2, p.d1, p.d2))
            quartics.append(q[1])
    if not solved:
        return out
    # (m, 1) columns, one row per solved pair
    phi, R1, R2, d1, d2 = np.array(columns).T[:, :, None]
    thetas, gaps = _candidates(phi, R1, R2, d1, d2, _poly_roots(quartics))
    for i, row, g in zip(solved, thetas, gaps):
        out[i] = _pick(row, g)
    return out


def _candidates(phi, R1, R2, d1, d2, roots) -> tuple[list, list]:
    """Candidate directions phi + 2*atan(roots) and their gaps |V(theta, 1)|, as lists.

    Elementwise on a pair's roots, or broadcast on (pairs, 1) columns and
    (pairs, roots) roots; R * 1 == R, so the gaps are gap(theta, 1)'s.
    """
    thetas = phi + 2.0 * np.arctan(roots)
    gaps = np.hypot(d1 + R1 * np.cos(thetas), d2 + R2 * np.sin(thetas))
    return thetas.tolist(), gaps.tolist()


def _pick(thetas: list, gaps: list) -> tuple[float, float, bool]:
    """(theta_min, theta_max, True) from one pair's candidates."""
    # list.index(min(...)) is the first smallest, as argmin is
    return thetas[gaps.index(min(gaps))] % TWO_PI, thetas[gaps.index(max(gaps))] % TWO_PI, True


def _pair_directions(p: DistanceMembershipParams) -> tuple[float, float, bool]:
    """_extremal_directions([p])[0], bit for bit, for one pair.

    A quartic of full degree whose companion matrix is finite goes straight
    to LAPACK as one 4 x 4 matrix; the others (the flat profile, a zero
    constant term, a non-finite entry) take the batched path.
    """
    q = _quartic(p)
    if q is not None and q[1][4] != 0.0:
        phi, quartic = q
        companion = _companion(quartic, 4)
        # a finite sum has finite entries; finite entries whose sum
        # overflows only take the batched path, which checks each entry
        if math.isfinite(sum(companion)):
            roots = _lapack_eigvals(np.array(companion).reshape(4, 4)).real
            return _pick(*_candidates(phi, p.R1, p.R2, p.d1, p.d2, roots))
    return _extremal_directions([p])[0]


# the branch of a pair's lower cut end: the gap at theta_min for separate
# supports (u0 >= 1), linear below the touching level u0 for overlapping
# ones, 0 for concentric cores
_SEPARATE, _LINEAR, _ZERO = range(3)


def _lower_end(p: DistanceMembershipParams, theta_min: float) -> tuple[float, int, float]:
    """(u0, branch, direction) of a pair's lower cut end.

    theta_min is the direction of the smallest support-level gap; it stays
    the direction of separate supports.  Overlapping supports report the
    angle at which the shrinking cuts last touch, concentric cores 0.
    """
    u0 = p.separation_level
    if u0 >= 1.0:
        return u0, _SEPARATE, theta_min
    if u0 > 0.0:
        # u0 > 0 cancels in atan2, and dividing by R * u0 could underflow to 0
        return u0, _LINEAR, math.atan2(-p.d2 / p.R2, -p.d1 / p.R1) % TWO_PI
    return u0, _ZERO, 0.0


# the cut scale of the support level alpha = 0
_SUPPORT_U = np.ones(1)


def _cut_ends(cols: np.ndarray, lower: Sequence[int], u: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Cut ends (lo, hi) per (pair, level) at the cut scales u = 1 - alpha.

    cols holds the table columns R1, R2, d1, d2, dc, u0, theta_min,
    theta_max and any after them, one entry per pair, lower the pairs' lower
    end branches, and u is 1-d.  hi is the gap at theta_max and lo the gap
    at theta_min, replaced on the rows of the other two branches; each
    branch is only evaluated on its own rows.  Every branch is already at
    least +0.0.
    """
    # one end at a time keeps fewer (pairs, levels) temporaries alive
    lo, hi = (_gap(*cols[:4, :, None], theta, u) for theta in cols[6:8, :, None])
    zero = [i for i, branch in enumerate(lower) if branch != _SEPARATE]
    if zero:
        lo[zero] = 0.0
    linear = [i for i, branch in enumerate(lower) if branch == _LINEAR]
    if linear:
        lo[linear] = _linear_end(*cols[4:6, linear, None], u)
    return lo, hi


class DistanceTable:
    """The fuzzy distances of many point pairs, from one batched solve.

    Column arrays hold one entry per pair: the summed spreads R1, R2, the
    core offset d1, d2, the core distance dc, the separation level u0, the
    frozen directions theta_min and theta_max of the lower and upper cut
    ends, and refined, False only for the flat profile.  theta_min is the
    direction in which the cuts last touch when the supports overlap, and 0
    for concentric cores.  cut_table, support and summary evaluate every
    pair in one broadcast; rows() gives each pair as a FuzzyDistance.
    """

    def __init__(self, pairs: Iterable[tuple[FuzzyPoint, FuzzyPoint]]):
        self.params = [DistanceMembershipParams.from_points(a, b) for a, b in pairs]
        self._rows, self._lower = [], []
        for p, (theta_min, theta_max, refined) in zip(self.params,
                                                      _extremal_directions(self.params)):
            u0, lower, theta_min = _lower_end(p, theta_min)
            self._rows.append((p.R1, p.R2, p.d1, p.d2, p.dc, u0, theta_min, theta_max,
                               refined))
            self._lower.append(lower)
        # the columns R1, ..., theta_max, refined as the rows of one array
        self._cols = np.array(self._rows, dtype=float).reshape(-1, 9).T

    R1, R2, d1, d2, dc, u0, theta_min, theta_max = (
        property(lambda self, i=i: self._cols[i]) for i in range(8))

    @property
    def refined(self) -> np.ndarray:
        return self._cols[8] == 1.0

    def __len__(self) -> int:
        return len(self.params)

    def rows(self) -> list["FuzzyDistance"]:
        """Every pair's distance, in pair order."""
        out = []
        for i in range(len(self)):
            d = FuzzyDistance.__new__(FuzzyDistance)
            d.params, d._lower = self.params[i], self._lower[i]
            *_, d._u0, d.argmin_theta, d.argmax_theta, d.refined = self._rows[i]
            out.append(d)
        return out

    def cut_table(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Cut ends (lo, hi) per (pair, level), as two (pairs, levels) arrays.

        Row i equals rows()[i].cut_table(alphas) bit for bit.
        """
        return _cut_ends(self._cols, self._lower, 1.0 - alpha_levels(alphas).reshape(-1))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The support-level cut ends (lo0, hi0), one entry per pair."""
        lo, hi = _cut_ends(self._cols, self._lower, _SUPPORT_U)
        return lo[:, 0], hi[:, 0]

    def summary(self) -> np.ndarray:
        """The (lo0, dc, hi0) summary triple per pair, as rows of an array."""
        lo0, hi0 = self.support()
        return np.column_stack((lo0, self.dc, hi0))


class FuzzyDistance(FuzzyNumber):
    """The fuzzy distance d(A, B) as a fuzzy number with closed-form cuts.

    params, argmin_theta, argmax_theta and refined are the pair's row as
    Python values, and its cut takes the branch chosen for the row.
    FuzzyDistance(a, b) solves its one pair directly, and its row equals
    the row of a one-pair DistanceTable bit for bit.
    """

    def __init__(self, a: FuzzyPoint, b: FuzzyPoint):
        self.params = p = DistanceMembershipParams.from_points(a, b)
        theta_min, self.argmax_theta, self.refined = _pair_directions(p)
        self._u0, self._lower, self.argmin_theta = _lower_end(p, theta_min)

    def _ends(self, alphas):
        """Cut ends at the levels alphas, a float or an array.

        The branches of _cut_ends in scalar arithmetic, which costs a fifth
        of the broadcast for one pair and level; the table's cut_table
        equals it bit for bit.
        """
        p = self.params
        u = 1.0 - alphas
        hi = p.gap(self.argmax_theta, u)
        if self._lower == _SEPARATE:
            lo = p.gap(self.argmin_theta, u)
        elif self._lower == _LINEAR:
            lo = _linear_end(p.dc, self._u0, u)
        else:
            lo = np.zeros_like(u)
        return lo, hi

    @cached_property
    def _support(self) -> tuple[float, float]:
        """The support-level cut (lo0, hi0), equal to cut(0.0), computed on first use."""
        lo, hi = self._ends(0.0)
        return float(lo), float(hi)

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


def fuzzy_distance(a: FuzzyPoint, b: FuzzyPoint) -> FuzzyDistance:
    return FuzzyDistance(a, b)


def fuzzy_distances(pairs: Iterable[tuple[FuzzyPoint, FuzzyPoint]]) -> list[FuzzyDistance]:
    """The fuzzy distance of every (a, b) pair: the rows of one DistanceTable."""
    return DistanceTable(pairs).rows()


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
