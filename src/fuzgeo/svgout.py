"""Self-contained SVG rendering of midset curves, the fixed-schema JSON
files and the number format: every CSV, SVG and JSON number is written to
9 significant digits as '%.9g' % v writes it.  fmt formats one value;
fmt_rows formats a list of 2-d blocks at once, one text per block, in a
numpy pass that writes the exact '%.9g' bytes of every value it can place
by decade and splices '%.9g' % v in for every other.  The JSON writers
write every JSON number as json.dump writes that 9-digit value read back
as a float.  The JSON layouts are json.dumps(payload, indent=2) of
placeholder payloads, laid out once at import and filled per file with %."""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import FuzzyPoint
from .midset import Branch, MidsetResult

NUMBER = "%.9g"
# json.dump's spelling of the floats whose %.9g is not JSON
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def fmt(x) -> str:
    return NUMBER % x


# The block formatter.  A value with 1e-4 <= |v| < 999999999.5 has a decimal
# exponent X in -4..8 after rounding to 9 digits, and %.9g writes it as
# [-]D[.DDD] (X >= 0) or [-]0.[000]DDD (X < 0) from its 9-digit mantissa,
# trailing zeros after the point dropped.  q = |v| 10^(8 - X) is one
# rounding of the exact product, as the power of ten is exact, so where q
# is more than 4e-6 from a tie, rint(q) is the mantissa %.9g writes.  Its
# bytes are placed by the value's class, (X, digits written, sign, last in
# row), into a 16-byte cell padded with NUL bytes, as two little-endian
# uint64 lanes: the first digit, then the other 8, two 4-digit words of
# _WORDS, split at the point and shifted past the prefix.  Every other
# value, near a tie, out of that range, zero, inf or nan, is written as the
# text %.9g and filled in by % afterwards.
_HALF = np.arange(100)
# each 2-digit word's ASCII digits, first digit in the lowest byte, and its
# trailing zero digits; a 4-digit word's are those of its two halves
_HALF_WORDS = (48 + _HALF // 10 | 48 + _HALF % 10 << 8).astype(np.uint64)
_HALF_ZEROS = (_HALF % 10 == 0).astype(np.int8) + (_HALF == 0)
_WORDS = (_HALF_WORDS[:, None] | _HALF_WORDS << 16).ravel()
_ZEROS = np.where(_HALF == 0, _HALF_ZEROS[:, None] + 2, _HALF_ZEROS).ravel()
# 10^(8 - X) for X in -5..8: log10 of a value near 1e-4 may read a decade low
_SCALES = 10.0 ** np.arange(13, -1, -1)
_C = np.arange(13 * 9 * 4)[:, None]
_X, _N, _NEG, _LAST = _C // 36 - 4, _C // 4 % 9 + 1, _C >> 1 & 1, _C & 1
_HEAD = np.where(_X < 0, _NEG + 1 - _X, _NEG)  # bytes before the first digit
_POINT = (_X >= 0) & (_N > _X + 1)  # a point among the digits
_SPLIT = np.where(_POINT, _X, _N - 1)  # the other 8 digits written before it
_B = np.arange(16)


def _lanes(cells) -> np.ndarray:
    """Rows of bytes as native uint64 lanes read little-endian."""
    return cells.astype(np.uint8).view("<u8").astype(np.uint64)


# per class: masks of the other 8 digits written before and after the
# point, the fixed bytes (sign, 0.000 prefix, point, separator) of the two
# lanes, the bit offset of the other 8 digits, and the bytes written
_BEFORE = _lanes(255 * (_B[:8] < _SPLIT))[:, 0]
_AFTER = _lanes(255 * (_POINT & (_B[:8] >= _SPLIT) & (_B[:8] < _N - 1)))[:, 0]
_FIXED = _lanes(45 * (_NEG & (_B == 0))
                + 48 * ((_X < 0) & ((_B == _NEG) | (_B >= _NEG + 2) & (_B < _HEAD)))
                + 46 * ((_X < 0) & (_B == _NEG + 1) | _POINT & (_B == _NEG + 1 + _X))
                + np.where(_LAST, 10, 44) * (_B == _HEAD + _N + _POINT))
_FIXED_LO, _FIXED_HI = _FIXED[:, 0].copy(), _FIXED[:, 1].copy()
_SHIFT = (8 * _HEAD + 8).astype(np.uint64)[:, 0]
_LENGTH = (_HEAD + _N + _POINT + 1).astype(np.uint8)[:, 0]
# b"%.9g," and b"%.9g\n"
_PLACEHOLDER = _lanes(np.array([[37, 46, 57, 103, 44, 0, 0, 0],
                                [37, 46, 57, 103, 10, 0, 0, 0]]))[:, 0]
del _HALF, _HALF_WORDS, _HALF_ZEROS, _C, _X, _N, _NEG, _LAST, _HEAD, _POINT, _SPLIT, _B, _FIXED
# values per numpy pass: bounds its temporaries at a few hundred kB
_CHUNK = 4096


def _classes(v: np.ndarray, last: np.ndarray):
    """Per value its class, its first digit, its other 8 digits as two words,
    and the indices of the values left to %.  Apart from _format, so that its
    temporaries are freed before the cells are built."""
    a = np.abs(v)
    placed = (a >= 1e-4) & (a < 999999999.5)
    a[~placed] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp) + 5
    q = a * _SCALES[i]
    # 10^(i - 5) <= |v| but for log10's last bits just below a power of ten,
    # where q still rounds to 1e8; so X is one more only where q rounds up
    # to 1e9, or where log10 read a decade low
    up = q >= 999999999.5
    if up.any():
        i += up
        q = a * _SCALES[i]
    m = np.rint(q)
    placed &= np.abs(q - m) <= 0.5 - 4e-6
    m = m.astype(np.int32)
    first = m // 100000000
    rest = m - first * 100000000
    # intp indices: a table lookup by int32 indices converts them first
    w1 = (rest // 10000).astype(np.intp)
    w2 = rest - w1 * 10000
    digits = 9 - np.where(w2 == 0, _ZEROS[w1] + 4, _ZEROS[w2])
    cls = (i * 9 + np.maximum(digits, i - 4)) * 4 + (v < 0) * 2 + last - 40
    return cls, first, _WORDS[w1] | _WORDS[w2] << 32, np.flatnonzero(~placed)


def _format(blocks) -> list[str]:
    """fmt_rows of a few non-empty blocks, in one numpy pass over all their values."""
    if not blocks:
        return []
    sizes = [block.size for block in blocks]
    v = np.concatenate([np.ravel(block) for block in blocks]).astype(float, copy=False)
    last = np.zeros(len(v), np.uint8)
    last[np.cumsum(np.repeat([block.shape[1] for block in blocks],
                             [len(block) for block in blocks])) - 1] = 1
    cls, first, words, left = _classes(v, last)
    after = words & _AFTER[cls]
    body = words & _BEFORE[cls] | after << 8
    shift = _SHIFT[cls]
    cells = np.empty((len(v), 2), "<u8")
    cells[:, 0] = body << shift | (first + 48).astype(np.uint64) << (shift - 8) | _FIXED_LO[cls]
    cells[:, 1] = after >> 56 << shift | body >> (64 - shift) | _FIXED_HI[cls]
    lengths = _LENGTH[cls]
    if len(left):
        cells[left, 0] = _PLACEHOLDER[last[left]]
        cells[left, 1] = 0
        lengths[left] = 5
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    starts = np.cumsum([0] + sizes)
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))[starts].tolist()
    texts = [text[i:j] for i, j in zip(bounds, bounds[1:])]
    if len(left):
        # splice '%.9g' % v into the values left to it, block by block
        owners = np.searchsorted(starts, left, side="right") - 1
        cuts = np.flatnonzero(np.diff(owners, prepend=-1)).tolist() + [len(left)]
        spliced = v[left].tolist()
        for i, j in zip(cuts, cuts[1:]):
            owner = int(owners[i])
            texts[owner] %= tuple(spliced[i:j])
    return texts


def fmt_rows(blocks) -> list[str]:
    """Every row of each 2-d block, of at least one column, as a line of
    comma-separated values, one text per block, equal to '%.9g' % v value by
    value.  Row slices of at most _CHUNK values are formatted in groups of at
    least _CHUNK values, one numpy pass each."""
    owners, parts, group, size = [], [], [], 0
    for k, block in enumerate(blocks):
        step = max(_CHUNK // block.shape[1], 1)
        for i in range(0, len(block), step):
            owners.append(k)
            group.append(block[i:i + step])
            size += group[-1].size
            if size >= _CHUNK:
                parts += _format(group)
                group, size = [], 0
    parts += _format(group)
    texts = [""] * len(blocks)
    for k, pieces in groupby(zip(owners, parts), key=itemgetter(0)):
        texts[k] = "".join([text for _, text in pieces])
    return texts


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

    texts holds, per entry of result, each polyline's text from fmt_rows,
    one x,y line per vertex; cmd_midset formats every polyline of every pair
    in one fmt_rows call, and the same text gives the CSV rows and the SVG
    points, each number exactly '%.9g' % v.  Curve coordinates are emitted in
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
