"""Foundational value types: fuzzy points in the plane and fuzzy numbers
represented by their alpha-cut interval families.

A fuzzy point is a location with a circular or elliptical spread and a
linearly decaying membership cone: grade 1 exactly at the core, 0 on and
outside the support ellipse.  Every alpha-cut is the concentric ellipse
scaled by (1 - alpha), so cuts are convex, compact and nested.

A fuzzy number is given by its alpha-cuts [lo(alpha), hi(alpha)] in
closed form.  Each kind states its cut once, as _ends(alphas) -> (lo, hi),
elementwise on one level or on an array of levels, and its membership
inverts that cut in closed form.  Only triangular numbers have cut ends
linear in alpha; the distance constructions give square roots of
quadratics.  The triangular triple (lo(0), core, hi(0)) is kept as a
summary.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

DEFAULT_ALPHA_LEVELS = 101


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


_set = object.__setattr__


class Record:
    """Base of the small records: the fields named by __slots__, compared by
    value and shown as Name(field=value, ...).  The fields may change, so a
    Record is unhashable; a subclass's __init__ takes them in slot order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())


class Value(Record):
    """A frozen, hashable Record; __init__ stores each field with _set.

    A pickled Value comes back through _of, with its fields as stored.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # not through __init__, which may normalise the fields again
        return (self._of, self._values())

    @classmethod
    def _of(cls, *values):
        """An instance holding values, in slot order, as given: no checks."""
        obj = cls.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(obj, name, value)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point2(Value):
    """A crisp point in the plane."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        # finite Python floats are stored as given
        if not (type(x) is float and type(y) is float and math.isfinite(x)
                and math.isfinite(y)):
            x, y = _require_finite("x", x), _require_finite("y", y)
        _set(self, "x", x)
        _set(self, "y", y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Spread(Value):
    """Support radii of a fuzzy point; circular means p1 == p2."""

    __slots__ = ("kind", "p1", "p2")

    def __init__(self, kind: str, p1: float, p2: float):
        if kind not in ("circular", "elliptical"):
            raise ValueError(f"unknown spread kind {kind!r}")
        p1 = _require_finite("p1", p1)
        p2 = _require_finite("p2", p2)
        if p1 <= 0 or p2 <= 0:
            raise ValueError(f"spread radii must be positive, got ({p1}, {p2})")
        if kind == "circular" and p1 != p2:
            raise ValueError(f"circular spread requires equal radii, got ({p1}, {p2})")
        _set(self, "kind", kind)
        _set(self, "p1", p1)
        _set(self, "p2", p2)

    @classmethod
    def circular(cls, r: float) -> "Spread":
        return cls("circular", r, r)

    @classmethod
    def elliptical(cls, p1: float, p2: float) -> "Spread":
        return cls("elliptical", p1, p2)

    @property
    def is_circular(self) -> bool:
        return self.kind == "circular"


class FuzzyPoint(Value):
    """A fuzzy location: core point plus spread with linear membership decay.

    membership(x, y) = max(0, 1 - sqrt(((x-a1)/p1)^2 + ((y-a2)/p2)^2))
    """

    __slots__ = ("core", "spread")

    def __init__(self, core: Point2, spread: Spread):
        _set(self, "core", core)
        _set(self, "spread", spread)

    @classmethod
    def circular(cls, x: float, y: float, r: float) -> "FuzzyPoint":
        return cls(Point2(x, y), Spread.circular(r))

    @classmethod
    def elliptical(cls, x: float, y: float, p1: float, p2: float) -> "FuzzyPoint":
        return cls(Point2(x, y), Spread.elliptical(p1, p2))

    @property
    def is_circular(self) -> bool:
        return self.spread.is_circular

    @property
    def radius(self) -> float:
        if not self.is_circular:
            raise ValueError("radius is only defined for circular spreads")
        return self.spread.p1

    def membership(self, q: Point2) -> float:
        rho = math.hypot(
            (q.x - self.core.x) / self.spread.p1,
            (q.y - self.core.y) / self.spread.p2,
        )
        return max(0.0, 1.0 - rho)


class TriangularTriple(Value):
    """Triangular summary (l, m, u) of a fuzzy number, l <= m <= u."""

    __slots__ = ("l", "m", "u")

    def __init__(self, l: float, m: float, u: float):
        # finite Python floats are stored as given, as in Point2
        if not (type(l) is float and type(m) is float and type(u) is float
                and math.isfinite(l) and math.isfinite(m) and math.isfinite(u)):
            l, m, u = (_require_finite(name, v) for name, v in (("l", l), ("m", m), ("u", u)))
        _set(self, "l", l)
        _set(self, "m", m)
        _set(self, "u", u)
        if not (l <= m <= u):
            raise ValueError(f"triple must be ordered l <= m <= u, got {self}")

    def __add__(self, other: "TriangularTriple") -> "TriangularTriple":
        return TriangularTriple(self.l + other.l, self.m + other.m, self.u + other.u)

    def __le__(self, other: "TriangularTriple") -> bool:
        # componentwise fuzzy order; a partial order, not total
        return self.l <= other.l and self.m <= other.m and self.u <= other.u

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l, self.m, self.u)


def _triple(l, m, u):
    """(l, m, u) if TriangularTriple accepts it, else TriangularTriple's error."""
    if not -math.inf < l <= m <= u < math.inf:
        TriangularTriple(l, m, u)
    return l, m, u


def alpha_levels(alphas) -> np.ndarray:
    """alphas as a float array; a level outside [0, 1], or NaN, is a ValueError."""
    alphas = np.asarray(alphas, dtype=float)
    bad = alphas[~((alphas >= 0.0) & (alphas <= 1.0))]
    if bad.size:
        raise ValueError(f"alpha must be in [0, 1], got {bad[0]}")
    return alphas


def _linear_grade(x, l, m, u):
    """Grade of x in the triangle (l, m, u), inverting the linear cut end
    that passes through x; x must lie in the support."""
    # IEEE subtraction is monotone, so both quotients stay in [0, 1]
    if x < m:
        return (x - l) / (m - l)
    if x > m:
        return (u - x) / (u - m)
    return 1.0


class FuzzyNumber:
    """Fuzzy number with closed-form alpha-cuts.

    A subclass defines its cut once, as _ends(alphas) -> (lo, hi): the cut
    ends at every level, elementwise on a float or on an array.  The cuts
    must be nested (lo non-decreasing and hi non-increasing in alpha), with
    cut(1) the core.  The subclass also defines summary, the triangular
    triple (lo(0), core, hi(0)), and a closed-form membership.
    """

    summary: TriangularTriple

    def _ends(self, alphas):
        raise NotImplementedError

    def cut(self, alpha: float) -> tuple[float, float]:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        lo, hi = self._ends(alpha)
        return (float(lo), float(hi))

    def cut_table(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Cut ends (lo, hi) at every level of an alpha array.

        The same arithmetic as cut(), so lo[k], hi[k] equal
        cut(alphas[k]) bit for bit.
        """
        return self._ends(alpha_levels(alphas))

    def cuts(self, levels: int = DEFAULT_ALPHA_LEVELS) -> np.ndarray:
        """Table of (alpha, lo, hi) rows over a uniform alpha grid."""
        alphas = np.linspace(0.0, 1.0, levels)
        return np.column_stack((alphas, *self.cut_table(alphas)))

    def membership(self, x: float) -> float:
        """Grade of x: the largest alpha whose cut contains x, 0 outside the support."""
        raise NotImplementedError


class TriangularNumber(FuzzyNumber):
    """The triangular fuzzy number (l, m, u): both cut ends are linear in alpha."""

    def __init__(self, l: float, m: float, u: float):
        self.summary = TriangularTriple(l, m, u)

    def _ends(self, alphas):
        tri = self.summary
        return (tri.l + alphas * (tri.m - tri.l), tri.u - alphas * (tri.u - tri.m))

    def membership(self, x: float) -> float:
        """Grade of x, inverting the linear cut end that passes through x."""
        l, m, u = self.summary.as_tuple()
        if not l <= x <= u:
            return 0.0
        return _linear_grade(x, l, m, u)
