"""Self-contained SVG rendering of midset curves, and the number format:
fmt and fmt_rows write every CSV and SVG number to 9 significant digits, and
the JSON templates write every JSON number as json.dump writes that
9-digit value read back as a float."""

from __future__ import annotations

import json

from .core import FuzzyPoint
from .midset import Branch, MidsetResult

NUMBER = "%.9g"
# json.dump's spelling of the floats whose repr is not JSON
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def fmt(x) -> str:
    return NUMBER % x


def fmt_rows(prefix: str, block, end: str = "\n") -> str:
    """Every row of a 2-d numpy array in one % operation: prefix, then the values."""
    row = prefix.replace("%", "%%") + ",".join([NUMBER] * block.shape[1]) + end
    return (row * len(block)) % tuple(block.ravel().tolist())


def _json_numbers(values) -> list[str]:
    """Each value as json.dump writes float(fmt(value)), all formatted in one % operation."""
    text = ",".join([NUMBER] * len(values)) % tuple(values)
    return [_JSON_NONFINITE.get(r, r) for r in map(repr, map(float, text.split(",")))]


# The fixed-schema JSON files, laid out as json.dump(payload, indent=2)
# lays them out, with a newline at the end.  Names go through json.dumps.
_DISTANCE_JSON = """\
{
  "pair": [
    %s,
    %s
  ],
  "summary": [
    %s,
    %s,
    %s
  ],
  "argmin_theta": %s,
  "argmax_theta": %s,
  "refined": %s
}
"""

_HAUSDORFF_JSON = """\
{
  "pair": [
    %s,
    %s
  ],
  "summary": [
    %s,
    %s,
    %s
  ],
  "projected": {
    %s: [
      %s,
      %s,
      %s
    ],
    %s: [
      %s,
      %s,
      %s
    ]
  },
  "line": {
    "a": %s,
    "b": %s,
    "c": %s,
    "theta": %s
  }
}
"""

_INVARIANCE_JSON = """\
{
  "pair": [
    %s,
    %s
  ],
  "t": %s,
  "checked": %d,
  "disagreements": %d,
  "pole_points": %d,
  "agreed": %s
}
"""


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def distance_json(name_a: str, name_b: str, summary, argmin_theta: float,
                  argmax_theta: float, refined: bool) -> str:
    return _DISTANCE_JSON % (json.dumps(name_a), json.dumps(name_b),
                             *_json_numbers((*summary, argmin_theta, argmax_theta)),
                             _json_bool(refined))


def hausdorff_json(name_a: str, name_b: str, summary, projected_a, projected_b,
                   line) -> str:
    """summary and the projected triples are (l, m, u); line is (a, b, c, theta)."""
    a, b = json.dumps(name_a), json.dumps(name_b)
    n = _json_numbers((*summary, *projected_a, *projected_b, *line))
    return _HAUSDORFF_JSON % (a, b, *n[:3], a, *n[3:6], b, *n[6:])


def invariance_json(name_a: str, name_b: str, ts, checked: int, disagreements: int,
                    pole_points: int, agreed: bool) -> str:
    t = "[\n    " + ",\n    ".join(_json_numbers(ts)) + "\n  ]" if len(ts) else "[]"
    return _INVARIANCE_JSON % (json.dumps(name_a), json.dumps(name_b), t, checked,
                               disagreements, pole_points, _json_bool(agreed))


def _alpha_color(alpha: float, branch: Branch) -> str:
    # ramp toward black as alpha rises; branches use different hues
    if branch is Branch.INVERSE:
        base = (208, 28, 28)
    else:
        base = (28, 28, 208)
    shade = 1.0 - 0.75 * alpha
    r, g, b = (int(round(c * shade)) for c in base)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_midset_svg(a: FuzzyPoint, b: FuzzyPoint, result: MidsetResult, texts) -> str:
    """One 640-pixel SVG document with support disks, cores and per-alpha curves.

    texts holds, per entry of result, each polyline as fmt_rows("", polyline)
    formats it, one x,y line per vertex.  Curve coordinates are emitted in
    data units inside a y-flipping group, so the raw point lists in the
    document match the plane geometry.
    """
    xmin, ymin, xmax, ymax = result.bbox
    width = xmax - xmin
    height = ymax - ymin
    scale = 640 / max(width, height)
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

    for entry, polylines in zip(result.entries, texts):
        color = _alpha_color(entry.alpha, entry.branch)
        for text in polylines:
            points = text[:-1].replace("\n", " ")
            parts.append(
                f'<polyline points="{points}" '
                f'fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
