"""Self-contained SVG rendering of midset curves, and the number format:
fmt and fmt_rows write every CSV, JSON and SVG number to 9 significant digits."""

from __future__ import annotations

from .core import FuzzyPoint
from .midset import Branch, MidsetResult

_NUMBER = "%.9g"


def fmt(x) -> str:
    return _NUMBER % x


def fmt_rows(prefix: str, block, end: str = "\n") -> str:
    """Every row of a 2-d numpy array in one % operation: prefix, then the values."""
    row = prefix.replace("%", "%%") + ",".join([_NUMBER] * block.shape[1]) + end
    return (row * len(block)) % tuple(block.ravel().tolist())


def _alpha_color(alpha: float, branch: Branch) -> str:
    # ramp toward black as alpha rises; branches use different hues
    if branch is Branch.INVERSE:
        base = (208, 28, 28)
    else:
        base = (28, 28, 208)
    shade = 1.0 - 0.75 * alpha
    r, g, b = (int(round(c * shade)) for c in base)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_midset_svg(a: FuzzyPoint, b: FuzzyPoint, result: MidsetResult,
                      size: int = 640) -> str:
    """One SVG document with support disks, cores and per-alpha curves.

    Curve coordinates are emitted in data units inside a y-flipping group,
    so the raw point lists in the document match the plane geometry.
    """
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
                f'<polyline points="{fmt_rows("", polyline, end=" ")[:-1]}" '
                f'fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
