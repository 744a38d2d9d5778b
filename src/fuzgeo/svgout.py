"""Self-contained SVG rendering of midset curves, the fixed-schema JSON
files and the number format: fmt and fmt_rows write every CSV and SVG
number to 9 significant digits, and the JSON writers write every JSON
number as json.dump writes that 9-digit value read back as a float.  The
JSON layouts are json.dumps(payload, indent=2) of placeholder payloads,
laid out once at import and filled per file with %."""

from __future__ import annotations

import json

from .core import FuzzyPoint
from .midset import Branch, MidsetResult

NUMBER = "%.9g"
# json.dump's spelling of the floats whose %.9g is not JSON
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def fmt(x) -> str:
    return NUMBER % x


def fmt_rows(block) -> str:
    """Every row of a 2-d numpy array as a line of values, in one % operation."""
    row = ",".join([NUMBER] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def _json_numbers(values) -> list[str]:
    """Each value as json.dump writes float(fmt(value)), all formatted in one % operation.

    A %.9g string s with a '.' and no 'e' is already repr(float(s)), so only
    integers, exponents, -0, inf and nan are read back.  Such an s has at
    most 9 significant digits and no trailing zeros, and two such decimals
    differ by more than a float's spacing, so s is the shortest string that
    reads back as float(s), which repr writes; like %g, repr writes no
    exponent for a decimal exponent in [-4, 9).
    """
    text = ",".join([NUMBER] * len(values)) % tuple(values)
    return [s if "." in s and "e" not in s else _JSON_NONFINITE.get(s) or repr(float(s))
            for s in text.split(",")]


def _template(payload) -> str:
    """payload laid out as json.dump(payload, indent=2) lays it out, with a
    newline at the end, and each placeholder string made its bare %s or %d
    slot; the two projected keys need distinct strings, "%s a" and "%s b"."""
    text = json.dumps(payload, indent=2)
    for placeholder in ("%s", "%d", "%s a", "%s b"):
        text = text.replace(f'"{placeholder}"', placeholder[:2])
    return text + "\n"


# The fixed-schema JSON files.  Names go through json.dumps.
_PAIR = ["%s"] * 2
_TRIPLE = ["%s"] * 3
_DISTANCE_JSON = _template({"pair": _PAIR, "summary": _TRIPLE, "argmin_theta": "%s",
                            "argmax_theta": "%s", "refined": "%s"})
_HAUSDORFF_JSON = _template({"pair": _PAIR, "summary": _TRIPLE,
                             "projected": {"%s a": _TRIPLE, "%s b": _TRIPLE},
                             "line": dict.fromkeys(("a", "b", "c", "theta"), "%s")})
_INVARIANCE_JSON = _template({"pair": _PAIR, "t": "%s", "checked": "%d",
                              "disagreements": "%d", "pole_points": "%d", "agreed": "%s"})


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

    texts holds, per entry of result, each polyline as fmt_rows(polyline)
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
