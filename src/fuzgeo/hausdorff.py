"""The fuzzy Hausdorff distance of two fuzzy points.

The fuzzy Hausdorff distance of two fuzzy points projects both onto the
line joining the cores and differences the inverse endpoints of the two
projected fuzzy numbers per alpha.  hausdorff_rows computes many pairs in
one pass; HausdorffResult is a row as that fuzzy number, which keeps the
line and both projections, and fuzzy_hausdorff the one-pair case.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import FuzzyNumber, FuzzyPoint, TriangularTriple, _linear_grade, _triple
from .lines import LineSpec, ProjectedFuzzyNumber, _frame, _line_through, _project


class PairError(ValueError):
    """The error of the pair at position index of a batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def hausdorff_rows(pairs: Iterable[tuple[FuzzyPoint, FuzzyPoint]]) -> list[tuple]:
    """Per (a, b) pair, 13 floats from one pass with no object per pair: the
    summary (l, m, u), the projected triples of a and b and the line's a, b,
    c and theta.  The first pair that fails raises a PairError.
    """
    rows = []
    for i, (a, b) in enumerate(pairs):
        try:
            if a.core.x == b.core.x and a.core.y == b.core.y:
                raise ValueError("fuzzy Hausdorff distance requires distinct cores")
            frame = _frame(*_line_through(a.core, b.core))
            ta, tb = _project(a, frame), _project(b, frame)
            near, far = (tb, ta) if tb[1] < ta[1] else (ta, tb)
            # HausdorffResult's cut at alpha = 0; max drops the sign of a zero
            lo0, hi0 = max(0.0, far[0] - near[2]), far[2] - near[0]
            rows.append((*_triple(lo0, far[1] - near[1], hi0), *ta, *tb, *frame[:4]))
        except ValueError as exc:
            raise PairError(i, str(exc)) from None
    return rows


class HausdorffResult(FuzzyNumber):
    """Fuzzy Hausdorff distance, with the line and projections it came from.

    Of the projections projected_a and projected_b onto line, near is the
    one whose core lies lower along the line and far the other; with
    near = (l1, m1, u1) and far = (l2, m2, u2), the cut at alpha is
    [max(0, lo), hi], where lo runs linearly from l2 - u1 at alpha = 0 and
    hi from u2 - l1 to the core gap m = m2 - m1 at alpha = 1.
    """

    def __init__(self, row: tuple):
        self.line = line = LineSpec._of(*row[9:12])
        self.projected_a = ProjectedFuzzyNumber(line, *row[3:6])
        self.projected_b = ProjectedFuzzyNumber(line, *row[6:9])
        near, far = self.projected_a, self.projected_b
        if far.summary.m < near.summary.m:
            near, far = far, near
        self.near, self.far = near, far
        self.summary = TriangularTriple(*row[:3])

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
        return _linear_grade(x, lo0, m, hi0)


def fuzzy_hausdorff(a: FuzzyPoint, b: FuzzyPoint) -> HausdorffResult:
    """Fuzzy Hausdorff distance between two fuzzy points with distinct cores.

    Both points are projected onto the core-joining line; the cut at level
    alpha differences the inverse endpoints of the projections, with the
    point projecting further along the line taking the upper role.
    """
    return HausdorffResult(hausdorff_rows([(a, b)])[0])
