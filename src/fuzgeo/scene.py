"""Scene files: named fuzzy points, pairs and grids, as human-writable JSON.

Schema (all fields beyond "points" optional):

    {
      "points": [{"name": "A", "core": [1, 0],
                  "spread": {"kind": "circular", "radii": [1, 1]}}],
      "pairs": [["A", "B"]],
      "grids": {"alpha_levels": 101, "bbox": [xmin, ymin, xmax, ymax],
                "resolution": 512},
      "t": [0.5, 1, 2]
    }

Unknown fields are rejected by name so typos never pass silently.  Output
files are named after their pair, "<a>_<b>_<kind>", so a point name may not
be "." or ".." or contain "/", "\\" or NUL, and no two pairs may share the stem
"<a>_<b>".
"""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple, Optional

from .core import FuzzyPoint, Point2, Spread, Value, _set

_TOP_FIELDS = {"points", "pairs", "grids", "t"}
_POINT_FIELDS = {"name", "core", "spread"}
_SPREAD_FIELDS = {"kind", "radii"}
_GRID_FIELDS = {"alpha_levels", "bbox", "resolution"}


class SceneError(ValueError):
    """Scene validation or parse failure."""


class GridSpec(NamedTuple):
    alpha_levels: int = 101
    bbox: Optional[tuple] = None
    resolution: int = 512


class Scene(Value):
    __slots__ = ("points", "pairs", "grids", "t_values")

    def __init__(self, points: dict, pairs: tuple, grids: GridSpec = GridSpec(),
                 t_values: Optional[tuple] = None):
        _set(self, "points", points)
        _set(self, "pairs", pairs)
        _set(self, "grids", grids)
        _set(self, "t_values", t_values)

    def pair_points(self, pair: tuple) -> tuple[FuzzyPoint, FuzzyPoint]:
        return self.points[pair[0]], self.points[pair[1]]


def _reject_unknown(mapping: dict, allowed: set, where: str):
    for key in mapping:
        if key not in allowed:
            raise SceneError(f"unknown field {key!r} in {where}")


def _numbers(values, field: str) -> tuple:
    """Floats of a JSON list of numbers, naming the field in any error.

    Only JSON numbers count: a string such as "1.5" or a boolean is an
    error, as are NaN, Infinity and an integer too large for a float.
    """
    out = []
    for v in values:
        # json.loads gives int or float for a number, bool for true and false
        if type(v) is not int and type(v) is not float:
            raise SceneError(f"{field} must contain numbers, got {v!r}")
        try:
            out.append(float(v))
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    if not all(map(math.isfinite, out)):
        raise SceneError(f"{field} must be finite, got {out}")
    return tuple(out)


def _parse_point(entry, index: int) -> tuple[str, FuzzyPoint]:
    if not isinstance(entry, dict):
        raise SceneError(f"points[{index}] must be an object")
    _reject_unknown(entry, _POINT_FIELDS, f"points[{index}]")
    for required in ("name", "core", "spread"):
        if required not in entry:
            raise SceneError(f"points[{index}] is missing field {required!r}")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise SceneError(f"points[{index}].name must be a nonempty string")
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        # names become output file names, which must stay inside --out
        raise SceneError(f"point {name!r}: a name may not be '.' or '..' "
                         f"or contain '/', '\\' or NUL")
    core = entry["core"]
    if not (isinstance(core, (list, tuple)) and len(core) == 2):
        raise SceneError(f"point {name!r}: core must be [x, y]")
    x, y = _numbers(core, f"point {name!r}: core")
    spread = entry["spread"]
    if not isinstance(spread, dict):
        raise SceneError(f"point {name!r}: spread must be an object")
    _reject_unknown(spread, _SPREAD_FIELDS, f"point {name!r} spread")
    kind = spread.get("kind")
    radii = spread.get("radii")
    if kind not in ("circular", "elliptical"):
        raise SceneError(f"point {name!r}: spread kind must be "
                         f"'circular' or 'elliptical', got {kind!r}")
    if not (isinstance(radii, (list, tuple)) and len(radii) == 2):
        raise SceneError(f"point {name!r}: spread radii must be [p1, p2]")
    p1, p2 = _numbers(radii, f"point {name!r}: spread radii")
    try:
        return name, FuzzyPoint(Point2(x, y), Spread(kind, p1, p2))
    except ValueError as exc:  # the radii checks of Spread
        raise SceneError(f"point {name!r}: {exc}") from None


def parse_scene(text: str) -> Scene:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise SceneError("scene must be a JSON object")
    _reject_unknown(raw, _TOP_FIELDS, "scene")

    entries = raw.get("points")
    if not isinstance(entries, list) or not entries:
        raise SceneError("scene must define a nonempty 'points' list")
    points: dict = {}
    for i, entry in enumerate(entries):
        name, fp = _parse_point(entry, i)
        if name in points:
            raise SceneError(f"duplicate point name {name!r}")
        points[name] = fp

    if "pairs" in raw:
        raw_pairs = raw["pairs"]
        if not isinstance(raw_pairs, list):
            raise SceneError("'pairs' must be a list of name pairs")
        pairs = []
        for i, pair in enumerate(raw_pairs):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(name, str) for name in pair)):
                raise SceneError(f"pairs[{i}] must be a pair of names")
            for name in pair:
                if name not in points:
                    raise SceneError(f"pairs[{i}] references undefined point {name!r}")
            if pair[0] == pair[1]:
                raise SceneError(f"pairs[{i}] pairs point {pair[0]!r} with itself")
            pairs.append((pair[0], pair[1]))
    else:
        pairs = list(itertools.combinations(points, 2))
    # output files are named "<a>_<b>_<kind>": no two pairs may share a stem
    stems: dict = {}
    for pair in pairs:
        other = stems.setdefault(f"{pair[0]}_{pair[1]}", pair)
        if other != pair:
            raise SceneError(f"pairs {list(other)} and {list(pair)} would write the same "
                             f"output files {pair[0]}_{pair[1]}_*")

    grids = GridSpec()
    if "grids" in raw:
        g = raw["grids"]
        if not isinstance(g, dict):
            raise SceneError("'grids' must be an object")
        _reject_unknown(g, _GRID_FIELDS, "grids")
        kwargs = {}
        for key, lo in (("alpha_levels", 2), ("resolution", 16)):
            if key in g:
                value = g[key]
                if not isinstance(value, int) or value < lo:
                    raise SceneError(f"grids.{key} must be an integer >= {lo}")
                kwargs[key] = value
        if "bbox" in g:
            bbox = g["bbox"]
            if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
                raise SceneError("grids.bbox must be [xmin, ymin, xmax, ymax]")
            bbox = _numbers(bbox, "grids.bbox")
            if not (bbox[2] > bbox[0] and bbox[3] > bbox[1]):
                raise SceneError("grids.bbox must be nonempty")
            kwargs["bbox"] = bbox
        grids = GridSpec(**kwargs)

    t_values = None
    if "t" in raw:
        t_raw = raw["t"]
        if not isinstance(t_raw, list) or not t_raw:
            raise SceneError("'t' must be a nonempty list of positive numbers")
        t_values = _numbers(t_raw, "'t'")
        if any(v <= 0 for v in t_values):
            raise SceneError("'t' values must be positive")

    return Scene(points=points, pairs=tuple(pairs), grids=grids, t_values=t_values)


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from None
    return parse_scene(text)
