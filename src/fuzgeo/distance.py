"""Fuzzy distance between two fuzzy points.

The alpha-cut of the distance collects the extremal distances between
opposite boundary points of the two cut ellipses taken along a common
direction.  Writing V(theta, u) = (d1 + R1*u*cos(theta), d2 + R2*u*sin(theta))
with u = 1 - alpha, R_i the summed spreads and (d1, d2) the core offset,
the over/under boundary gap is |V(theta, u)| and the two cross pairings of
a direction are |V(theta, u)| and |V(theta + pi, u)|.  Extremizing over the
full circle therefore reduces to extremizing the single function |V|.

The extremal directions are located once at the support level and then
held fixed across alpha: exact for circular spreads, and it keeps the
squared per-alpha endpoints quadratics in alpha, so the membership of a
distance value inverts a quadratic.  With equal summed spreads, R1 == R2
(every circular pair), the support sum is a circle: theta_max =
atan2(d2, d1) lies along the core offset and theta_min opposite it (the
circle case of the point-to-ellipse problem, D. Eberly, 2011), and the
flat profile, coincident cores, has one gap in every direction.  Other
pairs' directions are roots of a quartic in tan((theta - phi)/2), the
eigenvalues of its companion matrix (A. Edelman and H. Murakami, Math.
Comp. 64, 1995), solved for all such pairs of a DistanceTable with one
eigenvalue call on the stacked matrices, and by FuzzyDistance(a, b) with
one matrix.  The base angle phi follows from three signs: phi + pi lies
on the diagonal (-sgn(d1)*sgn(e), sgn(d2)*sgn(e))/sqrt(2), e = R2^2 - R1^2,
where the terms of the quartic's leading coefficient share a sign (the
reflection symmetry of the point-to-ellipse problem), so no root runs off
to infinity, and swapping the points is a relabelling.
Below the level u0 at which overlapping supports separate, the lower
endpoint is the gap along the direction in which the cuts last touched,
where V(theta, u) = (d1, d2)(1 - u/u0) grows linearly, as it does along
theta_min of separate supports with R1 == R2.  So one formula, _cut, gives
every pair's cut: hi is the gap at theta_max, and lo the gap at theta_min
where u < u0 and 0 elsewhere.

A DistanceTable holds the pairs' geometry and frozen directions as column
arrays and cuts every pair in one broadcast.  A FuzzyDistance holds one
row's values as fields named like the columns (R1, R2, d1, d2, dc, u0):
rows() copies each row of a table, and FuzzyDistance(a, b) builds its one
row directly from the same _geometry, equal bit for bit to the row of a
one-pair table.  _lower_end sets each row's u0 and theta_min once, when
the row is built, and _cut evaluates them on the table's columns and on
a row's Python floats, bit for bit alike.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple, alpha_levels

TWO_PI = 2.0 * math.pi


def _gap(R1, R2, d1, d2, theta, u):
    """|V(theta, u)|, elementwise on floats or broadcast arrays."""
    return np.hypot(d1 + R1 * u * np.cos(theta), d2 + R2 * u * np.sin(theta))


def _cut(R1, R2, d1, d2, u0, theta_min, theta_max, u):
    """Cut ends (lo, hi) at the cut scales u = 1 - alpha, on floats or broadcast arrays.

    hi is the gap at theta_max; lo is the gap at theta_min where u < u0 and
    0 elsewhere, where the cuts overlap.  Below the touching level u0 of
    overlapping supports, theta_min is the touching direction, along which
    V(theta_min, u) = (d1, d2)(1 - u/u0), so lo grows as dc (u0 - u)/u0.
    """
    # a finite gap times the mask, 1 or 0, is np.where(u < u0, gap, 0.0), at
    # a twentieth of its cost on one float
    return (_gap(R1, R2, d1, d2, theta_min, u) * (u < u0),
            _gap(R1, R2, d1, d2, theta_max, u))


def _geometry(a: FuzzyPoint, b: FuzzyPoint) -> tuple[float, float, float, float]:
    """(R1, R2, d1, d2): the pair's summed spreads and core offset."""
    return (a.spread.p1 + b.spread.p1, a.spread.p2 + b.spread.p2,
            a.core.x - b.core.x, a.core.y - b.core.y)


# (phi, cos(phi), sin(phi)) of the four base angles, phi + pi on a diagonal,
# in the order _quartic indexes them; the columns serve the table's solve
_H = math.sqrt(0.5)
_BASES = tuple((math.atan2(s, c), c, s) for c, s in ((_H, -_H), (_H, _H), (-_H, -_H), (-_H, _H)))
_BASE_COLS = np.array(_BASES).T


def _quartic(R1: float, R2: float, d1: float, d2: float) -> tuple[float, tuple]:
    """Base angle phi and the quartic in t = tan((theta - phi)/2), for R1 != R2.

    The stationary directions of |V(theta, 1)| zero
    g = R2*d2*cos(theta) - R1*d1*sin(theta) + (e/2)*sin(2*theta),
    e = R2^2 - R1^2 (the point-to-ellipse problem), and t makes g = 0 a
    quartic with t^4 coefficient g(phi + pi).  Lengths are in units of
    m = max(R1, R2).  With a zero counted as positive, phi + pi lies on the
    diagonal (-sgn(d1)*sgn(e), sgn(d2)*sgn(e))/sqrt(2), where the three
    terms of g agree in sign: |g(phi + pi)| = (r2|d2| + r1|d1|)/sqrt(2) +
    |e|/2, at least the coefficient norm over sqrt(2), which keeps all
    roots bounded; with phi = 0 a root near infinity swamps the others as
    the cores meet.  Swapping the points negates (d1, d2), takes the
    opposite diagonal and leaves the quartic unchanged bit for bit.  With
    R1 != R2, e is not 0, so g is never identically zero.
    """
    m = max(R1, R2)
    r1, r2 = R1 / m, R2 / m
    a1, b1, b2 = r2 * (d2 / m), -r1 * (d1 / m), 0.5 * (r2 * r2 - r1 * r1)
    phi, c, s = _BASES[2 * ((d1 < 0.0) != (b2 < 0.0)) + ((d2 < 0.0) != (b2 < 0.0))]
    return phi, _quartic_terms(a1, b1, b2, c, s)


def _quartic_terms(a1, b1, b2, c, s) -> tuple:
    """The quartic's coefficients, highest power first, from g's and the base angle's.

    Elementwise on floats or on column arrays.
    """
    # g(phi + psi) = A1 cos(psi) + B1 sin(psi) + A2 cos(2 psi) + B2 sin(2 psi)
    A1, B1 = a1 * c + b1 * s, b1 * c - a1 * s
    A2, B2 = 2.0 * b2 * s * c, b2 * (c * c - s * s)
    return (A2 - A1, 2.0 * (B1 - 2.0 * B2), -6.0 * A2, 2.0 * (B1 + 2.0 * B2), A1 + A2)


# the rows below the first of a 4 x 4 companion matrix, flattened: ones on
# the subdiagonal
_SUBDIAGONAL = [float(j % 5 == 0) for j in range(12)]


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


def _companion(c: Sequence[float]) -> list[float]:
    """The 4 x 4 companion matrix of the quartic c, flattened."""
    return [-x / c[0] for x in c[1:]] + _SUBDIAGONAL


def _companions(polys: np.ndarray) -> np.ndarray:
    """The (rows, k, k) companion matrices of the degree k polynomials polys (rows, k + 1)."""
    rows, k = polys.shape[0], polys.shape[1] - 1
    stack = np.zeros((rows, k * k))
    stack[:, :k] = -polys[:, 1:] / polys[:, :1]
    # the subdiagonal (r + 1, r) sits at the flat index k + r*(k + 1)
    stack[:, k::k + 1] = 1.0
    return stack.reshape(rows, k, k)


def _poly_roots(polys) -> np.ndarray:
    """Real parts of the roots of polynomials of one length, highest power first.

    Row i holds the roots of polys[i], whose leading coefficient must be
    nonzero.  The roots are the eigenvalues of the companion matrices, with
    one eigenvalue call on the stack of all polynomials of one degree.  As
    numpy.roots does, and bit for bit like it, trailing zero coefficients
    are stripped and give exact zero roots after the others.
    """
    polys = np.asarray(polys, dtype=float)
    if np.count_nonzero(polys[:, -1]) == len(polys):
        # one stack of full degree holds every row, in order
        return _eigvals(_companions(polys)).real
    size = polys.shape[1]
    # each row's degree: its size - 1 less the run of zeros at its end
    trailing = np.logical_and.accumulate(polys[:, :0:-1] == 0.0, axis=1).sum(axis=1)
    degree = size - 1 - trailing
    roots = np.zeros((len(polys), size - 1))
    for k in np.unique(degree).tolist():
        rows = degree == k
        roots[rows, :k] = _eigvals(_companions(polys[rows, :k + 1])).real
    return roots


def _circle_directions(R: float, d1: float, d2: float) -> tuple[float, float, bool]:
    """(theta_min, theta_max, refined) of a pair whose summed spreads are both R.

    The gap is then largest along the core offset and smallest opposite it;
    the flat profile, coincident cores, has directions 0 and refined False.
    math.atan2 serves the table too: np.arctan2 may differ in the last bit.
    Geometry not finite in units of R is an error, as on the quartic path.
    """
    if not (math.isfinite(R) and math.isfinite(d1 / R) and math.isfinite(d2 / R)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if d1 == d2 == 0.0:
        return 0.0, 0.0, False
    return math.atan2(-d2, -d1) % TWO_PI, math.atan2(d2, d1) % TWO_PI, True


# arithmetic that overflows warns nothing: _eigvals rejects the geometry's
# non-finite companion matrices
@np.errstate(all="ignore")
def _solve_directions(geometry: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions of the smallest and largest support-level gap |V(theta, 1)| per pair.

    geometry holds the rows R1, R2, d1, d2, one column per pair.  Pairs with
    R1 == R2 take _circle_directions; the others, the arithmetic of
    _pair_directions on arrays: each pair's stationary directions are
    phi + 2*atan(t) over the real parts of its quartic's roots (a complex
    root only adds a losing candidate), all quartics solved together and
    every pair's candidate gaps computed in one broadcast.

    Returns the arrays (theta_min, theta_max, refined); refined is False
    only for the flat profile, whose directions are both 0.
    """
    equal = geometry[0] == geometry[1]
    # theta_min, theta_max and refined (1.0 or 0.0) as rows
    out, solved = np.ones((3, len(equal))), slice(None)
    if equal.any():
        # the rows R2, d1, d2 of the equal pairs, as lists
        out[:, equal] = np.array(list(map(_circle_directions,
                                          *geometry[1:, equal].tolist()))).T
        if equal.all():
            return out[0], out[1], out[2] == 1.0
        solved = ~equal
        geometry = geometry[:, solved]
    m = np.maximum(geometry[0], geometry[1])
    # r1, r2 and d1, d2 in units of m
    r, d = geometry[:2] / m, geometry[2:] / m
    rd, rr = r * d, r * r
    # a1, b1, b2 per pair; rounding is symmetric in sign, so b1 =
    # -(r1 * (d1/m)) is _quartic's (-r1) * (d1/m)
    coef = np.array((rd[1], -rd[0], 0.5 * (rr[1] - rr[0])))
    # the base angle's index from the signs of d1, d2 and b2, as in _quartic
    flips = (geometry[2:] < 0.0) != (coef[2] < 0.0)
    phi, c, s = _BASE_COLS[:, 2 * flips[0] + flips[1]]
    # the quartics as the rows of a (pairs, 5) view
    roots = _poly_roots(np.array(_quartic_terms(*coef, c, s)).T)
    thetas = phi[:, None] + 2.0 * np.arctan(roots)
    gaps = _gap(*geometry[:, :, None], thetas, 1.0)
    # argmin and argmax are the first smallest and largest, as in _pair_directions
    picks = np.array((gaps.argmin(axis=1), gaps.argmax(axis=1)))
    out[:2, solved] = np.remainder(thetas[np.arange(len(m)), picks], TWO_PI)
    return out[0], out[1], out[2] == 1.0


def _extremal_directions(geometries: Sequence[tuple[float, float, float, float]]
                         ) -> list[tuple[float, float, bool]]:
    """(theta_min, theta_max, refined) per (R1, R2, d1, d2), from _solve_directions."""
    columns = np.array(geometries, dtype=float).reshape(-1, 4).T
    return list(zip(*(col.tolist() for col in _solve_directions(columns))))


def _pair_directions(R1: float, R2: float, d1: float, d2: float) -> tuple[float, float, bool]:
    """_extremal_directions([(R1, R2, d1, d2)])[0], bit for bit, for one pair.

    R1 == R2 takes _circle_directions.  A quartic of full degree whose
    companion matrix is finite goes straight to LAPACK as one 4 x 4 matrix
    in scalar arithmetic; the others (a zero constant term, a non-finite
    entry) take the array solve.
    """
    if R1 == R2:
        return _circle_directions(R1, d1, d2)
    phi, quartic = _quartic(R1, R2, d1, d2)
    if quartic[4] != 0.0:
        companion = _companion(quartic)
        # a finite sum has finite entries; finite entries whose sum
        # overflows only take the array solve, which checks each entry
        if math.isfinite(sum(companion)):
            roots = _lapack_eigvals(np.array(companion).reshape(4, 4)).real
            thetas = phi + 2.0 * np.arctan(roots)
            gaps, thetas = _gap(R1, R2, d1, d2, thetas, 1.0).tolist(), thetas.tolist()
            # list.index(min(...)) is the first smallest, as argmin is
            return (thetas[gaps.index(min(gaps))] % TWO_PI,
                    thetas[gaps.index(max(gaps))] % TWO_PI, True)
    return _extremal_directions([(R1, R2, d1, d2)])[0]


def _lower_end(R1: float, R2: float, d1: float, d2: float, theta_min: float
               ) -> tuple[float, float]:
    """(u0, direction) of a pair's lower cut end, from its geometry.

    theta_min is the direction of the smallest support-level gap; it stays
    the direction of separate supports (u0 >= 1).  Overlapping supports
    report the angle at which the shrinking cuts last touch, concentric
    cores (u0 = 0, where the lower end is 0 at every level) 0.
    """
    u0 = math.hypot(d1 / R1, d2 / R2)
    if u0 >= 1.0:
        return u0, theta_min
    if u0 > 0.0:
        # u0 > 0 cancels in atan2, and dividing by R * u0 could underflow to 0
        return u0, math.atan2(-d2 / R2, -d1 / R1) % TWO_PI
    return u0, 0.0


class DistanceTable:
    """The fuzzy distances of many point pairs, from one array solve.

    Column arrays hold one entry per pair: the summed spreads R1, R2, the
    core offset d1, d2, the separation level u0 = hypot(d1/R1, d2/R2), the
    frozen directions theta_min and theta_max of the lower and upper cut
    ends, the core distance dc = np.hypot(d1, d2), whose core cut is
    (dc, dc) bit for bit, and refined, False only for the flat profile
    (R1 == R2, coincident cores).  theta_min is the direction in which the
    cuts last touch when the supports overlap, and 0 for concentric cores.
    Pairs with R1 != R2 solve _quartic's quartic about its diagonal base
    angle.  cut_table, support and summary evaluate _cut on every pair in
    one broadcast; rows() gives each pair as a FuzzyDistance whose row
    fields carry the column names.
    """

    def __init__(self, pairs: Iterable[tuple[FuzzyPoint, FuzzyPoint]]):
        cols = np.array([_geometry(a, b) for a, b in pairs], dtype=float).reshape(-1, 4).T
        theta_min, theta_max, refined = _solve_directions(cols)
        # each lower end's (u0, direction) in scalar arithmetic, as
        # FuzzyDistance(a, b) computes it: u0 is math.hypot's, from which
        # np.hypot may differ in the last bit
        R1, R2, d1, d2 = cols.tolist()
        ends = np.array(list(map(_lower_end, R1, R2, d1, d2, theta_min.tolist())))
        # the columns R1, ..., theta_max, the arguments of _cut, then dc and
        # refined, as the rows of one array
        self._cols = np.array((*cols, *ends.reshape(-1, 2).T, theta_max,
                               np.hypot(cols[2], cols[3]), refined))

    R1, R2, d1, d2, u0, theta_min, theta_max, dc = (
        property(lambda self, i=i: self._cols[i]) for i in range(8))

    @property
    def refined(self) -> np.ndarray:
        return self._cols[8] == 1.0

    def __len__(self) -> int:
        return self._cols.shape[1]

    def rows(self) -> list["FuzzyDistance"]:
        """Every pair's distance, in pair order."""
        out = []
        for R1, R2, d1, d2, u0, theta_min, theta_max, dc, refined in self._cols.T.tolist():
            d = FuzzyDistance.__new__(FuzzyDistance)
            d.R1, d.R2, d.d1, d.d2, d.dc, d.u0 = R1, R2, d1, d2, dc, u0
            d.argmin_theta, d.argmax_theta, d.refined = theta_min, theta_max, refined == 1.0
            out.append(d)
        return out

    def cut_table(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Cut ends (lo, hi) per (pair, level), as two (pairs, levels) arrays.

        Row i equals rows()[i].cut_table(alphas) bit for bit.
        """
        return _cut(*self._cols[:7, :, None], 1.0 - alpha_levels(alphas).reshape(-1))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The support-level cut ends (lo0, hi0), one entry per pair."""
        return _cut(*self._cols[:7], 1.0)

    def summary(self) -> np.ndarray:
        """The (lo0, dc, hi0) summary triple per pair, as rows of an array."""
        lo0, hi0 = self.support()
        return np.column_stack((lo0, self.dc, hi0))


class FuzzyDistance(FuzzyNumber):
    """The fuzzy distance d(A, B) as a fuzzy number with closed-form cuts.

    R1, R2, d1, d2, dc, u0, argmin_theta, argmax_theta and refined are the
    pair's row as Python values, under DistanceTable's column names
    (argmin_theta and argmax_theta are its theta_min and theta_max), and
    its cut is _cut on them.  FuzzyDistance(a, b) solves its one pair
    directly, and its row equals the row of a one-pair DistanceTable bit
    for bit.
    """

    def __init__(self, a: FuzzyPoint, b: FuzzyPoint):
        self.R1, self.R2, self.d1, self.d2 = R1, R2, d1, d2 = _geometry(a, b)
        self.dc = float(np.hypot(d1, d2))
        theta_min, self.argmax_theta, self.refined = _pair_directions(R1, R2, d1, d2)
        self.u0, self.argmin_theta = _lower_end(R1, R2, d1, d2, theta_min)

    def _ends(self, alphas):
        """Cut ends at the levels alphas, a float or an array.

        _cut on the row's Python floats; the table's cut_table evaluates it
        on its columns, bit for bit alike.
        """
        return _cut(self.R1, self.R2, self.d1, self.d2, self.u0, self.argmin_theta,
                    self.argmax_theta, 1.0 - alphas)

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
        the end's frozen direction; lower is None where that end is the
        line dc (1 - u/u0) (u0 < 1, or R1 == R2) and membership inverts it.
        """
        R1, R2, d1, d2, dc, u0 = self.R1, self.R2, self.d1, self.d2, self.dc, self.u0
        m = max(R1, R2)

        def terms(theta: float, branch: float) -> tuple[float, float, float]:
            w1, w2 = R1 / m * math.cos(theta), R2 / m * math.sin(theta)
            return d1 / m * w1 + d2 / m * w2, w1 * w1 + w2 * w2, branch

        lower = terms(self.argmin_theta, -1.0) if u0 >= 1.0 and R1 != R2 else None
        return (*self._support, dc, u0, m, (dc / m) ** 2, lower, terms(self.argmax_theta, 1.0))

    def membership(self, x: float) -> float:
        """Grade 1 - u of x, inverting the cut in closed form.

        Each endpoint is the gap at its frozen direction, so u solves
        x^2 = dc^2 + 2*u*K1 + u^2*K2 in units of max(R1, R2).  Where the
        lower endpoint is the line dc (1 - u/u0), below the touching level
        u0 of overlapping supports and wherever R1 == R2, it is inverted as
        that line: the quadratic there is the perfect square
        (dc (1 - u/u0))^2, so near x = 0 its root keeps only half the
        digits (grade errors of 1e-8 and more).  The terms come from
        _inverse, built once per distance.
        """
        lo0, hi0, dc, u0, m, dc_sq, lower, upper = self._inverse
        if not lo0 <= x <= hi0:
            return 0.0
        if x <= dc:
            if lower is None:
                return 1.0 if dc == 0.0 else max(0.0, 1.0 - u0 * (1.0 - x / dc))
            k1, k2, branch = lower
        else:
            k1, k2, branch = upper
        disc = k1 * k1 - k2 * (dc_sq - (x / m) ** 2)
        u = (-k1 + branch * math.sqrt(max(0.0, disc))) / k2
        return min(1.0, max(0.0, 1.0 - u))

    @cached_property
    def summary(self) -> TriangularTriple:
        lo0, hi0 = self._support
        return TriangularTriple(lo0, self.dc, hi0)


def fuzzy_distance(a: FuzzyPoint, b: FuzzyPoint) -> FuzzyDistance:
    return FuzzyDistance(a, b)


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
