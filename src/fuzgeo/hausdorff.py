"""Crisp Hausdorff distance between convex shapes and its fuzzy extension.

For compact convex sets the Hausdorff distance equals the sup-norm
difference of their support functions, which for disks gives the closed
form dc + |r1 - r2| and for axis-aligned ellipses is evaluated on a
direction fan with local refinement.

The fuzzy Hausdorff distance of two fuzzy points projects both onto the
line joining the cores and differences the inverse endpoints of the two
projected fuzzy numbers per alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, TriangularNumber, TriangularTriple
from .lines import LineSpec, ProjectedFuzzyNumber, project_onto_line

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
        rx, ry = p.cut_radii(alpha)
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


class _HausdorffNumber(FuzzyNumber):
    """Cut-wise difference of two triangular numbers, near below far.

    With near = (l1, m1, u1) and far = (l2, m2, u2), the cut at alpha is
    [max(0, lo), hi], where lo runs linearly from l2 - u1 at alpha = 0 and
    hi from u2 - l1 to the core gap m = m2 - m1 at alpha = 1.
    """

    def __init__(self, near: TriangularNumber, far: TriangularNumber):
        self.near, self.far = near, far
        lo0, hi0 = self.cut(0.0)
        self.summary = TriangularTriple(lo0, far.summary.m - near.summary.m, hi0)

    def _ends(self, alphas):
        a_lo, a_hi = self.near._ends(alphas)
        b_lo, b_hi = self.far._ends(alphas)
        return (np.maximum(0.0, b_lo - a_hi), b_hi - a_lo)

    def membership(self, x: float) -> float:
        """Grade of x, inverting the linear cut end that passes through x."""
        near, far = self.near.summary, self.far.summary
        lo0, m, hi0 = far.l - near.u, far.m - near.m, far.u - near.l
        if not max(0.0, lo0) <= x <= hi0:
            return 0.0
        # IEEE subtraction is monotone, so both quotients stay in [0, 1]
        if x < m:
            return (x - lo0) / (m - lo0)
        if x > m:
            return (hi0 - x) / (hi0 - m)
        return 1.0


@dataclass(frozen=True)
class HausdorffResult:
    """Fuzzy Hausdorff distance with the line and projections it came from."""

    value: FuzzyNumber
    line: LineSpec
    projected_a: ProjectedFuzzyNumber
    projected_b: ProjectedFuzzyNumber

    @property
    def summary(self) -> TriangularTriple:
        return self.value.summary


def fuzzy_hausdorff(a: FuzzyPoint, b: FuzzyPoint) -> HausdorffResult:
    """Fuzzy Hausdorff distance between two fuzzy points with distinct cores.

    Both points are projected onto the core-joining line; the cut at level
    alpha differences the inverse endpoints of the projections, with the
    point projecting further along the line taking the upper role.
    """
    if a.core.x == b.core.x and a.core.y == b.core.y:
        raise ValueError("fuzzy Hausdorff distance requires distinct cores")
    line = LineSpec.through_points(a.core, b.core)
    proj_a = project_onto_line(a, line)
    proj_b = project_onto_line(b, line)

    lo_side, hi_side = proj_a.value, proj_b.value
    if hi_side.summary.m < lo_side.summary.m:
        lo_side, hi_side = hi_side, lo_side
    return HausdorffResult(value=_HausdorffNumber(lo_side, hi_side), line=line,
                           projected_a=proj_a, projected_b=proj_b)
