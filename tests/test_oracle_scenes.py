"""The CLI's files of every command on seeded random scenes, checked by the
benchmark's independent oracles in bench/oracles.py, which re-derive every
number from closed forms and angle fans without importing fuzgeo.

A scene has four circular or elliptical points at one scale in 10^[-3, 3],
with cores within 3 scales of its centre: the origin, or for a shifted
scene a point 10^[3, 7] scales away.  The metric-curve, midset, classify
and invariance scenes are the same draws with every spread made circular.
Draws follow FUZGEO_SEED.
"""

import importlib.util
import json
import shutil
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from fuzgeo.cli import DEFAULT_INVARIANCE_T, run
from fuzgeo.hausdorff import hausdorff_rows
from fuzgeo.midset import compute_midset, support_bbox
from fuzgeo.scene import parse_scene
from fuzgeo.svgout import fmt

_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parent.parent / "bench" / "oracles.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SCENES = 10
LEVELS = 11
CURVE_T = (0.01, 0.3, 1.0, 3.0, 100.0)
MIDSET_LEVELS, MIDSET_RESOLUTION = 3, 64
MIDSET_ARGS = ("--alpha-levels", str(MIDSET_LEVELS), "--resolution", str(MIDSET_RESOLUTION),
               "--format", "svg")

# print precision is the subject of ROADMAP's output-layout item
SHIFTED_REASON = ("%.9g keeps nine significant digits of {}, which a shift makes 1e3 to 1e7 "
                  "times the pair's size")


class PrintPrecision(AssertionError):
    """Oracle errors in files whose numbers pass once printed in full."""


def _scenes(rng, shifted: bool, circular: bool = False):
    """SCENES scenes as lists of scene-file points; all circular if circular."""
    for _ in range(SCENES):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        centre = np.zeros(2)
        if shifted:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            centre = 10.0 ** rng.uniform(3.0, 7.0) * scale * np.array([np.cos(phi), np.sin(phi)])
        points = []
        for i in range(4):
            x, y = (centre + rng.uniform(-3.0, 3.0, 2) * scale).tolist()
            p1, p2 = (rng.uniform(0.1, 1.0, 2) * scale).tolist()
            kind = "circular" if rng.random() < 0.5 or circular else "elliptical"
            points.append({"name": f"P{i}", "core": [x, y], "spread": {
                "kind": kind, "radii": [p1, p1] if kind == "circular" else [p1, p2]}})
        yield points


def _cli(path: Path, command: str, points, *args) -> tuple[str, list]:
    """Run command on the scene of points; its --out and the oracle's pairs."""
    path.mkdir()
    (path / "scene.json").write_text(json.dumps({"points": points}))
    out = str(path / "out")
    assert run([command, "--scene", str(path / "scene.json"), "--out", out, *args]) == 0
    return out, [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]


def _payload(a: str, b: str, row) -> dict:
    """A hausdorff file's content for a row of hausdorff_rows."""
    return {"pair": [a, b], "summary": list(row[:3]),
            "projected": {a: list(row[3:6]), b: list(row[6:9])},
            "line": dict(zip(("a", "b", "c", "theta"), row[9:]))}


@pytest.mark.parametrize("shifted", [False, True], ids=["origin", "shifted"])
def test_distance(rng, tmp_path, shifted):
    for k, points in enumerate(_scenes(rng, shifted)):
        out, pairs = _cli(tmp_path / str(k), "distance", points, "--alpha-levels", str(LEVELS))
        assert bench.check_distance(out, pairs, LEVELS) == [], points


@pytest.mark.parametrize("shifted", [False, True], ids=["origin", "shifted"])
def test_invariance(rng, tmp_path, shifted):
    for k, points in enumerate(_scenes(rng, shifted, circular=True)):
        out, pairs = _cli(tmp_path / str(k), "invariance", points, "--resolution", "64")
        assert bench.check_invariance(out, pairs, DEFAULT_INVARIANCE_T, 64) == [], points


def test_hausdorff_at_origin(rng, tmp_path):
    for k, points in enumerate(_scenes(rng, False)):
        out, pairs = _cli(tmp_path / str(k), "hausdorff", points)
        assert bench.check_hausdorff(out, pairs) == [], points


@pytest.mark.xfail(strict=True, raises=PrintPrecision,
                   reason=SHIFTED_REASON.format("s-coordinates and line offsets"))
def test_hausdorff_shifted(rng, tmp_path):
    failed = []
    for k, points in enumerate(_scenes(rng, True)):
        out, pairs = _cli(tmp_path / str(k), "hausdorff", points)
        # the kernel's rows, written in full, pass the same oracle, and the
        # CLI's files hold them to nine digits
        full = tmp_path / str(k) / "full"
        full.mkdir()
        scene = parse_scene(json.dumps({"points": points}))
        for (a, b), row in zip(scene.pairs, hausdorff_rows(map(scene.pair_points, scene.pairs))):
            name = f"{a}_{b}_hausdorff.json"
            (full / name).write_text(json.dumps(_payload(a, b, row)))
            printed = json.loads((Path(out) / name).read_text())
            assert printed == _payload(a, b, [float(fmt(x)) for x in row])
        assert bench.check_hausdorff(str(full), pairs) == [], points
        errors = bench.check_hausdorff(out, pairs)
        if errors:
            failed.append(errors[0])
    if failed:
        raise PrintPrecision(f"{len(failed)} of {SCENES} scenes, first: {failed[0]}")


@pytest.mark.parametrize("shifted", [False, True], ids=["origin", "shifted"])
def test_metric_curve(rng, tmp_path, shifted):
    for k, points in enumerate(_scenes(rng, shifted, circular=True)):
        out, pairs = _cli(tmp_path / str(k), "metric-curve", points,
                          "--t", ",".join(map(repr, CURVE_T)))
        assert bench.check_metric_curve(out, pairs, CURVE_T) == [], points


@pytest.mark.parametrize("shifted", [False, True], ids=["origin", "shifted"])
def test_classify(rng, tmp_path, shifted):
    for k, points in enumerate(_scenes(rng, shifted, circular=True)):
        out, pairs = _cli(tmp_path / str(k), "classify", points)
        assert bench.check_classify(out, pairs) == [], points


def test_midset_at_origin(rng, tmp_path):
    for k, points in enumerate(_scenes(rng, False, circular=True)):
        out, pairs = _cli(tmp_path / str(k), "midset", points, *MIDSET_ARGS)
        assert bench.check_midset(out, pairs, MIDSET_LEVELS, MIDSET_RESOLUTION) == [], points


def _midset_csvs(result, number) -> dict:
    """A midset CSV's text per alpha level, every number spelled by number."""
    texts = {}
    for alpha, entries in groupby(result.entries, key=lambda e: e.alpha):
        rows = ["branch,polyline,x,y\n"]
        for entry in entries:
            for j, polyline in enumerate(entry.polylines):
                rows += [f"{entry.branch.value},{j},{number(x)},{number(y)}\n"
                         for x, y in polyline.tolist()]
        texts[alpha] = "".join(rows)
    return texts


@pytest.mark.xfail(strict=True, raises=PrintPrecision,
                   reason=SHIFTED_REASON.format("vertex coordinates"))
def test_midset_shifted(rng, tmp_path):
    failed = []
    for k, points in enumerate(_scenes(rng, True, circular=True)):
        out, pairs = _cli(tmp_path / str(k), "midset", points, *MIDSET_ARGS)
        # the kernel's vertices, written in full, pass the same oracle, and
        # the CLI's files hold them to nine digits
        full = tmp_path / str(k) / "full"
        full.mkdir()
        scene = parse_scene(json.dumps({"points": points}))
        for a, b in scene.pairs:
            pa, pb = scene.pair_points((a, b))
            result = compute_midset(pa, pb, alphas=np.linspace(0.0, 1.0, MIDSET_LEVELS),
                                    bbox=support_bbox(pa, pb), resolution=MIDSET_RESOLUTION)
            printed, exact = _midset_csvs(result, fmt), _midset_csvs(result, repr)
            for alpha in printed:
                name = f"{a}_{b}_midset_a{alpha:.4f}.csv"
                assert (Path(out) / name).read_text() == printed[alpha]
                (full / name).write_text(exact[alpha])
            shutil.copy(Path(out) / f"{a}_{b}_midset.svg", full)
        assert bench.check_midset(str(full), pairs, MIDSET_LEVELS, MIDSET_RESOLUTION) == [], \
            points
        errors = bench.check_midset(out, pairs, MIDSET_LEVELS, MIDSET_RESOLUTION)
        if errors:
            failed.append(errors[0])
    if failed:
        raise PrintPrecision(f"{len(failed)} of {SCENES} scenes, first: {failed[0]}")
