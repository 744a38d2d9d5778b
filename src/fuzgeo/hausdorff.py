"""The fuzzy Hausdorff distance of two fuzzy points.

The fuzzy Hausdorff distance of two fuzzy points projects both onto the
line joining the cores and differences the inverse endpoints of the two
projected fuzzy numbers per alpha.  HausdorffResult is that fuzzy number,
and it keeps the line and both projections.
"""

from __future__ import annotations

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple
from .lines import LineSpec, ProjectedFuzzyNumber, project_onto_line


class HausdorffResult(FuzzyNumber):
    """Fuzzy Hausdorff distance, with the line and projections it came from.

    Of the projections projected_a and projected_b onto line, near is the
    one whose core lies lower along the line and far the other; with
    near = (l1, m1, u1) and far = (l2, m2, u2), the cut at alpha is
    [max(0, lo), hi], where lo runs linearly from l2 - u1 at alpha = 0 and
    hi from u2 - l1 to the core gap m = m2 - m1 at alpha = 1.
    """

    def __init__(self, line: LineSpec, projected_a: ProjectedFuzzyNumber,
                 projected_b: ProjectedFuzzyNumber):
        self.line, self.projected_a, self.projected_b = line, projected_a, projected_b
        near, far = projected_a, projected_b
        if far.summary.m < near.summary.m:
            near, far = far, near
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


def fuzzy_hausdorff(a: FuzzyPoint, b: FuzzyPoint) -> HausdorffResult:
    """Fuzzy Hausdorff distance between two fuzzy points with distinct cores.

    Both points are projected onto the core-joining line; the cut at level
    alpha differences the inverse endpoints of the projections, with the
    point projecting further along the line taking the upper role.
    """
    if a.core.x == b.core.x and a.core.y == b.core.y:
        raise ValueError("fuzzy Hausdorff distance requires distinct cores")
    line = LineSpec.through_points(a.core, b.core)
    return HausdorffResult(line, project_onto_line(a, line), project_onto_line(b, line))
