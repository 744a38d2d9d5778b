"""Command-line surface: scene in, CSV/JSON/SVG artifacts out.

    fuzgeo <command> --scene scene.json --out results/
           [--alpha-levels N] [--resolution N] [--t v1,v2,...]
           [--format csv|svg]

Commands: distance, metric-curve, hausdorff, midset, classify, invariance;
--format svg adds a midset SVG.  Exit status: 0 success, 1 argument,
validation or I/O error, 2 internal numeric failure.  Every command names
all its output files before it writes any, so a name too long for --out
fails with nothing written.  svgout formats every number to 9 significant
digits, so identical inputs give identical files.

The environment variable FUZGEO_SEED fixes the seed used by randomized
test sampling helpers; the CLI commands themselves are deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import groupby

import numpy as np

from .distance import DistanceTable
from .hausdorff import fuzzy_hausdorff
from .metric import _scaled
from .midset import (active_branches, alpha_thresholds, compute_midset, conic_class,
                     invariance_check, overlap_case, support_bbox)
from .scene import Scene, SceneError, load_scene
from .svgout import (NUMBER, distance_json, fmt, fmt_rows, hausdorff_json,
                     invariance_json, render_midset_svg)

DEFAULT_INVARIANCE_T = (0.5, 1.0, 10.0)


def _paths(out: str, pairs, suffix: str) -> list[str]:
    """The path out/<a>_<b><suffix> of every pair, in pair order.

    A name longer than the directory's limit is an error naming the pair,
    so a command that names all its outputs first fails before it writes.
    """
    limit = os.pathconf(out, "PC_NAME_MAX")
    paths = []
    for name_a, name_b in pairs:
        name = f"{name_a}_{name_b}{suffix}"
        if 0 <= limit < len(os.fsencode(name)):
            raise SceneError(f"pair {[name_a, name_b]}: output file name {name!r} is longer "
                             f"than the {limit} bytes {out} allows")
        paths.append(os.path.join(out, name))
    return paths


def _require_circular(scene: Scene, command: str) -> None:
    """Every point of every pair has a circular spread; else an error naming the pair and point."""
    for pair in scene.pairs:
        for name in pair:
            if not scene.points[name].is_circular:
                raise SceneError(f"pair {list(pair)}: {command} needs circular spreads, "
                                 f"but point {name!r} is elliptical")


def _write(path: str, text: str) -> None:
    # binary mode skips the text layer, and every newline stays "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _alphas(levels: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, levels)


def cmd_distance(scene: Scene, args, out: str) -> None:
    alphas = _alphas(args.alpha_levels or scene.grids.alpha_levels)
    json_paths = _paths(out, scene.pairs, "_distance.json")
    csv_paths = _paths(out, scene.pairs, "_distance.csv")
    # every pair shares the alpha column: a row is alpha, lo, the pair's
    # preformatted core distance, hi
    table = "alpha,lo,mid,hi\n" + "".join(
        f"{fmt(alpha)},{NUMBER},%s,{NUMBER}\n" for alpha in alphas.tolist())
    dists = DistanceTable(map(scene.pair_points, scene.pairs))
    summaries = dists.summary().tolist()
    directions = list(zip(dists.theta_min.tolist(), dists.theta_max.tolist(),
                          dists.refined.tolist()))
    lo, hi = dists.cut_table(alphas)
    cells = [None] * (3 * len(alphas))
    for i, (name_a, name_b) in enumerate(scene.pairs):
        _write(json_paths[i], distance_json(name_a, name_b, summaries[i], *directions[i]))
        cells[0::3] = lo[i].tolist()
        cells[1::3] = [fmt(summaries[i][1])] * len(alphas)
        cells[2::3] = hi[i].tolist()
        _write(csv_paths[i], table % tuple(cells))


def cmd_metric_curve(scene: Scene, args, out: str) -> None:
    if args.t_values:
        ts = args.t_values
    elif scene.t_values:
        ts = scene.t_values
    else:
        ts = np.geomspace(1e-2, 1e2, 81)
    t = np.asarray(ts, dtype=float)
    paths = _paths(out, scene.pairs, "_metric_curve.csv")
    # every pair shares the t column
    table = "t,lo,mid,hi,spread\n" + "".join(
        f"{fmt(v)},{NUMBER},{NUMBER},{NUMBER},{NUMBER}\n" for v in t.tolist())
    dists = DistanceTable(map(scene.pair_points, scene.pairs))
    # the closeness support is [t/(t + hi_d), t/(t + lo_d)] at alpha = 0:
    # (lo, mid, hi, spread) per (pair, t)
    lo_d, hi_d = (end[:, None] for end in dists.support())
    lo, hi = _scaled(hi_d, t), _scaled(lo_d, t)
    block = np.stack((lo, _scaled(dists.dc[:, None], t), hi, hi - lo), axis=-1)
    for path, values in zip(paths, block):
        _write(path, table % tuple(values.ravel().tolist()))


def cmd_hausdorff(scene: Scene, args, out: str) -> None:
    paths = _paths(out, scene.pairs, "_hausdorff.json")
    # every pair is computed before any file is written, so a failing pair
    # leaves no partial output
    texts = []
    for name_a, name_b in scene.pairs:
        try:
            res = fuzzy_hausdorff(*scene.pair_points((name_a, name_b)))
        except ValueError as exc:
            raise SceneError(f"pair {[name_a, name_b]}: {exc}") from None
        line = res.line
        texts.append(hausdorff_json(
            name_a, name_b, res.summary.as_tuple(), res.projected_a.summary.as_tuple(),
            res.projected_b.summary.as_tuple(), (line.a, line.b, line.c, line.theta)))
    for path, text in zip(paths, texts):
        _write(path, text)


def cmd_midset(scene: Scene, args, out: str) -> None:
    _require_circular(scene, "midset")
    alphas = _alphas(args.alpha_levels or scene.grids.alpha_levels)
    resolution = args.resolution or scene.grids.resolution
    # one CSV per pair and level, named after the level to four decimals
    levels = {}
    for alpha in alphas.tolist():
        other = levels.setdefault(f"{alpha:.4f}", alpha)
        if other != alpha:
            raise SceneError(f"alpha levels {other!r} and {alpha!r} would both write the "
                             f"files *_midset_a{alpha:.4f}.csv; use at most 10001 levels")
    csv_paths = {alpha: _paths(out, scene.pairs, f"_midset_a{name}.csv")
                 for name, alpha in levels.items()}
    svg_paths = _paths(out, scene.pairs, "_midset.svg")
    for i, pair in enumerate(scene.pairs):
        a, b = scene.pair_points(pair)
        bbox = scene.grids.bbox or support_bbox(a, b)
        result = compute_midset(a, b, alphas=alphas, bbox=bbox, resolution=resolution)
        # every polyline formatted once, as x,y lines, for the CSV and the SVG
        texts = [[fmt_rows("", polyline) for polyline in entry.polylines]
                 for entry in result.entries]
        # entries come sorted by alpha: one CSV per level
        for alpha, group in groupby(zip(result.entries, texts), key=lambda e: e[0].alpha):
            rows = ["branch,polyline,x,y\n"]
            for entry, polylines in group:
                for j, text in enumerate(polylines):
                    prefix = f"{entry.branch.value},{fmt(j)},"
                    rows.append(prefix + text[:-1].replace("\n", "\n" + prefix) + "\n")
            _write(csv_paths[alpha][i], "".join(rows))
        if args.format == "svg":
            _write(svg_paths[i], render_midset_svg(a, b, result, texts))


def cmd_classify(scene: Scene, args, out: str) -> None:
    _require_circular(scene, "classify")
    paths = _paths(out, scene.pairs, "_classify.json")
    for (name_a, name_b), path in zip(scene.pairs, paths):
        a, b = scene.pair_points((name_a, name_b))
        th = alpha_thresholds(a, b)
        edges = sorted({0.0, 1.0} | {
            v for v in (th.n1, th.n2) if v is not None and 0.0 < v < 1.0})
        bands = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            case = overlap_case(a, b, mid)
            classes = {branch.value: conic_class(a, b, mid, branch)
                       for branch in active_branches(case)}
            bands.append({"alpha_lo": float(fmt(lo)), "alpha_hi": float(fmt(hi)),
                          "case": case.value, "classes": classes})
        thresholds = {"n": th.n, "n1": th.n1, "n2": th.n2}
        # the band list varies in length, so json.dumps lays this file out
        _write(path, json.dumps({
            "pair": [name_a, name_b],
            "thresholds": {k: None if v is None else float(fmt(v))
                           for k, v in thresholds.items()},
            "case_at_support": overlap_case(a, b, 0.0).value,
            "bands": bands,
        }, indent=2) + "\n")


def cmd_invariance(scene: Scene, args, out: str) -> None:
    _require_circular(scene, "invariance")
    ts = args.t_values or scene.t_values or DEFAULT_INVARIANCE_T
    resolution = args.resolution or scene.grids.resolution
    paths = _paths(out, scene.pairs, "_invariance.json")
    for (name_a, name_b), path in zip(scene.pairs, paths):
        a, b = scene.pair_points((name_a, name_b))
        report = invariance_check(a, b, ts, bbox=scene.grids.bbox,
                                  resolution=resolution)
        # agreed: no grid point disagrees; at the default tol a grid whose
        # span is below about 4e5 cannot disagree (see invariance_check)
        _write(path, invariance_json(name_a, name_b, ts, report.checked,
                                     report.disagreements, report.pole_points,
                                     report.passed))


_COMMANDS = {
    "distance": cmd_distance,
    "metric-curve": cmd_metric_curve,
    "hausdorff": cmd_hausdorff,
    "midset": cmd_midset,
    "classify": cmd_classify,
    "invariance": cmd_invariance,
}


def _parse_t_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid t list {text!r}") from None
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise argparse.ArgumentTypeError(f"t values must be finite and positive, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzgeo",
        description="fuzzy-geometry analyses of scene files")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--scene", required=True, help="scene JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--alpha-levels", type=int, dest="alpha_levels")
    parser.add_argument("--resolution", type=int)
    parser.add_argument("--t", type=_parse_t_list, dest="t_values")
    parser.add_argument("--format", choices=("csv", "svg"), default="csv")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage and the error
        return 1 if exc.code else 0
    try:
        scene = load_scene(args.scene)
        if args.alpha_levels is not None and args.alpha_levels < 2:
            raise SceneError("--alpha-levels must be at least 2")
        if args.resolution is not None and args.resolution < 16:
            raise SceneError("--resolution must be at least 16")
        out = args.out
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise SceneError(f"cannot create output directory {out}: {exc}") from None
        if not os.access(out, os.W_OK):
            raise SceneError(f"output directory {out} is not writable")
        _COMMANDS[args.command](scene, args, out)
    except (SceneError, ValueError, OSError) as exc:
        print(f"fuzgeo: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric or internal failure
        print(f"fuzgeo: internal error: {exc!r}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
