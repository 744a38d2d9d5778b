"""Scene-workload benchmark of fuzgeo.

    python3 bench/run.py --workload case-table --seed 1 --seconds 25 --trace 0

Run from a source checkout; fuzgeo is imported from ``src/`` and never
needs to be installed.  One workload runs in this one process on one
thread, each operation after the previous one finished:

1. Set-up, several times: import fuzgeo afresh and load the scenes.
2. A warm-up round.  Every output is checked by the independent oracles
   in ``oracles.py`` and the digest of every output directory is kept.
3. Measured rounds for ``--seconds`` seconds, whole rounds only.  Every
   output must be byte-identical to the warm-up round's.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the measured rounds run with
the tracer of ``tracer.py`` installed and the object carries the
per-layer metrics instead, and the spans go to
``.bench_out/trace-<workload>.jsonl``.  Times are CPU seconds, medians
over set-up repetitions or measured rounds, scaled by a calibration of
the host's speed (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

# Set-up always compiles fuzgeo from source, whatever the environment says
# about bytecode caches, and a run leaves no __pycache__ behind.
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(HERE), str(SRC)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import AxiomOp, CliOp, DistanceQueries, EquidistantQueries  # noqa: E402

SETUP_REPS = 15
QUERIES_PER_UNIT = 64
CALIBRATION_STEPS = 2000
CALIBRATION_FILES = 4
# Times are reported as if the calibration loop had taken this long and
# overwriting one small file this long: typical figures of the machine
# the benchmark was built on (see README).
REFERENCE_CALIBRATION_S = 4.0e-3
REFERENCE_FILE_S = 2.5e-4
E2E_UNITS = {
    "setup_s": "s", "distance_s": "s", "metric_curve_s": "s", "hausdorff_s": "s",
    "midset_s": "s", "invariance_s": "s", "axioms_s": "s",
    "membership_qps": "queries/s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "scene.load_s": "s",
    "distance.construct_calls": "count", "distance.construct_s": "s",
    "distance.construct_per_pair": "count/pair", "distance.flat_profiles": "count",
    "distance.cut_calls": "count", "distance.cut_s": "s",
    "core.membership_calls": "count", "core.membership_s": "s",
    "core.cuts_per_membership": "count/query",
    "metric.md_calls": "count", "metric.md_s": "s", "metric.axioms_s": "s",
    "metric.ks_s": "s", "metric.checks": "count",
    "hausdorff.fuzzy_calls": "count", "hausdorff.fuzzy_s": "s", "lines.project_s": "s",
    "midset.sample_branch_calls": "count", "midset.sample_branch_s": "s",
    "midset.vertices": "count", "midset.polylines": "count", "midset.classify_s": "s",
    "midset.invariance_points": "count", "midset.invariance_s": "s",
    "midset.equidistant_calls": "count", "midset.equidistant_s": "s",
    "svgout.render_s": "s", "svgout.bytes": "B",
    "cli.self_s": "s", "cli.files": "count", "cli.bytes": "B",
}


def import_fuzgeo():
    """Import fuzgeo from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "fuzgeo" or m.startswith("fuzgeo.")]:
        del sys.modules[name]
    fg = importlib.import_module("fuzgeo")
    importlib.import_module("fuzgeo.cli")
    if Path(fg.__file__).resolve().parent != SRC / "fuzgeo":
        raise RuntimeError(f"fuzgeo was imported from {fg.__file__}, not from {SRC}")
    return fg


_CALIBRATION_GRID = np.linspace(0.0, 1.0, 16)


def calibrate() -> float:
    """CPU seconds of a fixed loop of Python and small NumPy arithmetic.

    The loop mixes the kinds of work fuzgeo's inner loops do.  Its time
    tracks how fast the shared host lets this process run at the moment.
    """
    start = process_time()
    total = 0.0
    for i in range(CALIBRATION_STEPS):
        total += math.hypot(i, 1.0) + float(np.hypot(_CALIBRATION_GRID[i % 16], 1.0))
    return process_time() - start


def digest_dir(path: Path) -> tuple[str, int, int, list]:
    """(sha256 over names and bytes, files, bytes, files left unwritten).

    A file whose modification time is still 0 was not rewritten by the
    last operation (see ``Runner._cli``).
    """
    h = hashlib.sha256()
    files = n_bytes = 0
    stale = []
    for entry in sorted(os.scandir(path), key=lambda e: e.name):
        data = Path(entry.path).read_bytes()
        h.update(entry.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        files += 1
        n_bytes += len(data)
        if entry.stat().st_mtime_ns == 0:
            stale.append(entry.name)
    return h.hexdigest(), files, n_bytes, stale


class Runner:
    """Runs rounds of one workload and counts operations and failures."""

    def __init__(self, wl: workloads.Workload, run_dir: Path):
        self.wl = wl
        self.run_dir = run_dir
        self.scene_paths = {}
        for stem, scene in wl.scenes.items():
            path = run_dir / "scenes" / f"{stem}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(scene, indent=1) + "\n", encoding="utf-8")
            self.scene_paths[stem] = str(path)
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.files = self.bytes = 0
        self.calibration: list[float] = []
        self.fs_calibration: list[float] = []
        self.unit_files: dict = {}

    def _fail(self, what: str, errors):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {'; '.join(map(str, errors))[:400]}")

    def _calibrate(self):
        self.calibration.append(calibrate())
        start = process_time()
        for i in range(CALIBRATION_FILES):
            with open(self.run_dir / f"calibration-{i}.csv", "w", encoding="utf-8") as fh:
                fh.write("0.123456789," * 40 + "\n")
        self.fs_calibration.append((process_time() - start) / CALIBRATION_FILES)

    def _request(self):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted

    def _cli(self, fg, idx: int, step: CliOp, times, check: bool):
        # Every invocation of a step overwrites the files of the first one:
        # on the ext4 disk measured, creating a file cost ~0.7 ms of CPU and
        # swung 4-fold from round to round, overwriting one ~0.1-0.3 ms.  Zeroed
        # modification times show any file an invocation did not rewrite.
        out = self.run_dir / "out" / f"{idx:02d}-{step.command}"
        argv = [step.command, "--scene", self.scene_paths[step.scene], "--out", str(out),
                *step.args]
        for rep in range(step.reps):
            if out.is_dir():
                for entry in os.scandir(out):
                    os.utime(entry.path, ns=(0, 0))
            self._request()
            start = process_time()
            try:
                status = fg.cli.run(argv)
            except (Exception, SystemExit) as exc:  # an operation that raises fails
                status = repr(exc)
            times.setdefault((step.metric, idx), []).append(process_time() - start)
            self._calibrate()
            if status != 0:
                self._fail(step.command, [f"exit {status}"])
                self.digests.setdefault(idx, None)
                continue
            digest, files, n_bytes, stale = digest_dir(out)
            self.unit_files[step.metric, idx] = files
            self.files += files
            self.bytes += n_bytes
            if stale:
                self._fail(step.command, [f"{len(stale)} files not rewritten: {stale[:3]}"])
            elif check and idx not in self.digests:
                errors = step.check(str(out))
                self.digests[idx] = None if errors else digest
                if errors:
                    self._fail(step.command, errors)
            elif digest != self.digests.get(idx):
                self._fail(step.command, ["output differs from the checked first run"])

    def _axioms(self, fg, step: AxiomOp, scenes, times):
        points = list(scenes[step.scene].points.values())
        for _ in range(step.reps):
            self._request()
            start = process_time()
            try:
                if step.kind == "ks":
                    report = fg.check_ks_axioms(points)
                else:
                    tnorm = fg.PRODUCT if step.kind == "product" else fg.MINIMUM
                    report = fg.check_metric_axioms(points, workloads.AXIOM_T, tnorm)
            except Exception as exc:  # an operation that raises fails
                report = exc
            times.setdefault(("axioms_s", step.kind), []).append(process_time() - start)
            self._calibrate()
            if isinstance(report, Exception):
                self._fail(f"axioms {step.kind}", [repr(report)])
                continue
            errors = oracles.check_axiom_report(
                [(c.name, c.checked, c.failures) for c in report.checks], step.want)
            if errors:
                self._fail(f"axioms {step.kind}", errors)

    def _queries(self, fg, step, scenes, times):
        points = scenes[step.scene].points
        tracer = self.tracer
        grades = []
        per_unit = max(1, QUERIES_PER_UNIT // len(step.queries[0][2]))
        for pair_idx, (name_a, name_b, queries, *_) in enumerate(step.queries):
            a, b = points[name_a], points[name_b]
            pair = []
            start = process_time()
            try:
                if isinstance(step, DistanceQueries):
                    dist = fg.fuzzy_distance(a, b)
                    for x in queries:
                        if tracer is not None:
                            tracer.request = self.attempted + len(grades) + len(pair) + 1
                        pair.append(dist.membership(x))
                else:
                    for x, y in queries:
                        if tracer is not None:
                            tracer.request = self.attempted + len(grades) + len(pair) + 1
                        pair.append(fg.equidistant_membership(fg.Point2(x, y), a, b))
            except Exception as exc:  # the pair's remaining queries fail
                pair += [exc] * (len(queries) - len(pair))
            key = ("membership_s", type(step).__name__, pair_idx // per_unit)
            times.setdefault(key, [0.0])[0] += process_time() - start
            grades += pair
            if (pair_idx + 1) % per_unit == 0:
                self._calibrate()
        wanted = [(w, q[4]) for q in step.queries for w in q[3]]
        self.attempted += len(wanted)
        for got, (want, tol) in zip(grades, wanted):
            if not isinstance(got, float) or abs(got - want) > tol:
                self._fail(type(step).__name__, [f"grade {got!r}, expected {want!r}"])

    def round(self, fg, scenes, check: bool = False) -> dict:
        """One pass over every step.

        Returns the CPU seconds of each timed unit, keyed by (end-to-end
        metric, unit...): a list with one entry per invocation of a command
        step or axiom report, or the summed time of 64 queries.
        """
        times = {}
        self.files = self.bytes = 0
        for idx, step in enumerate(self.wl.steps):
            if isinstance(step, CliOp):
                self._cli(fg, idx, step, times, check)
            elif isinstance(step, AxiomOp):
                self._axioms(fg, step, scenes, times)
            else:
                self._queries(fg, step, scenes, times)
        return times


def _layer_metrics(before: dict, after: dict, runner: Runner) -> dict:
    calls = after["calls"] - before["calls"]
    counters = after["counters"] - before["counters"]

    def self_s(name):
        return after["self_s"].get(name, 0.0) - before["self_s"].get(name, 0.0)

    members = calls["core.membership"]
    return {
        "distance.construct_calls": calls["distance.construct"],
        "distance.construct_s": self_s("distance.construct"),
        "distance.construct_per_pair": calls["distance.construct"] / runner.wl.distinct_pairs,
        "distance.flat_profiles": counters["distance.flat_profiles"],
        "distance.cut_calls": calls["distance.cut"],
        "distance.cut_s": self_s("distance.cut"),
        "core.membership_calls": members,
        "core.membership_s": self_s("core.membership"),
        "core.cuts_per_membership":
            counters["distance.cut@core.membership"] / members if members else 0.0,
        "metric.md_calls": calls["metric.md"],
        "metric.md_s": self_s("metric.md"),
        "metric.axioms_s": self_s("metric.axioms"),
        "metric.ks_s": self_s("metric.ks"),
        "metric.checks": counters["metric.checks"],
        "hausdorff.fuzzy_calls": calls["hausdorff.fuzzy"],
        "hausdorff.fuzzy_s": self_s("hausdorff.fuzzy"),
        "lines.project_s": self_s("lines.project"),
        "midset.sample_branch_calls": calls["midset.sample_branch"],
        "midset.sample_branch_s": self_s("midset.sample_branch"),
        "midset.vertices": counters["midset.vertices"],
        "midset.polylines": counters["midset.polylines"],
        "midset.classify_s": self_s("midset.classify"),
        "midset.invariance_points": counters["midset.invariance_points"],
        "midset.invariance_s": self_s("midset.invariance"),
        "midset.equidistant_calls": calls["midset.equidistant"],
        "midset.equidistant_s": self_s("midset.equidistant"),
        "svgout.render_s": self_s("svgout.render"),
        "svgout.bytes": counters["svgout.bytes"],
        "cli.self_s": self_s("cli.run"),
        "cli.files": runner.files,
        "cli.bytes": runner.bytes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    if not (SRC / "fuzgeo" / "__init__.py").is_file():
        raise RuntimeError(f"no fuzgeo sources under {SRC}")
    wl = workloads.build(workload, seed, size)
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _run(wl, run_dir, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(wl, run_dir: Path, seconds: float, trace: bool) -> dict:
    runner = Runner(wl, run_dir)
    tracer = tracing.Tracer() if trace else None

    setup_s, load_s = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = process_time()
        fg = import_fuzgeo()
        if tracer is not None:
            tracing.install(tracer)
            before = tracer.snapshot()
        scenes = {stem: fg.load_scene(path) for stem, path in runner.scene_paths.items()}
        setup_s.append(process_time() - start)
        runner._calibrate()
        if tracer is not None:
            load_s.append(tracer.snapshot()["self_s"]["scene.load"]
                          - before["self_s"].get("scene.load", 0.0))
            tracer.restore()

    warm_start = perf_counter()
    runner.round(fg, scenes, check=True)
    warm_s = perf_counter() - warm_start
    # keep the benchmark's own long-lived objects out of the collector's
    # scans, so collections during a unit cost what fuzgeo's objects cost
    gc.collect()
    gc.freeze()

    samples, layers, round_cpu = defaultdict(list), [], []
    if tracer is not None:
        tracing.install(tracer)
        runner.tracer = tracer
    start = perf_counter()
    try:
        while True:
            gc.collect()
            snap = tracer.snapshot() if tracer is not None else None
            round_start = process_time()
            for unit, seconds_used in runner.round(fg, scenes).items():
                samples[unit].append(seconds_used)
            round_cpu.append(process_time() - round_start)
            if tracer is not None:
                layers.append(_layer_metrics(snap, tracer.snapshot(), runner))
            if perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
            OUT.mkdir(exist_ok=True)
            tracer.write(str(OUT / f"trace-{wl.name}.jsonl"))

    if tracer is not None:
        # counts repeat exactly from round to round; times take the median
        values = {name: (statistics.median if LAYER_UNITS[name] == "s" else
                         statistics.median_low)(r[name] for r in layers)
                  for name in layers[0]}
        values["scene.load_s"] = statistics.median(load_s)
        units = LAYER_UNITS
    else:
        # A metric sums, over its units, the median time of one invocation
        # times the invocations per round: a median over rounds drops those
        # a burst of load on the shared host slowed.  Then the slower or
        # faster minutes of the host that the whole run fell in are
        # cancelled: the files a unit overwrote are charged at the reference
        # cost of a file, and the rest of its time is scaled by the run's
        # median calibration time.
        speed = REFERENCE_CALIBRATION_S / statistics.median(runner.calibration)
        file_s = statistics.median(runner.fs_calibration)
        values = defaultdict(float, setup_s=statistics.median(setup_s) * speed)
        for key, per_round in samples.items():
            files = runner.unit_files.get(key, 0)
            one = statistics.median(t for ts in per_round for t in ts)
            values[key[0]] += len(per_round[0]) * (
                (one - files * file_s) * speed + files * REFERENCE_FILE_S)
        values["membership_qps"] = wl.queries / values["membership_s"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "errors": runner.errors,
        "rounds": len(round_cpu),
        "round_s": statistics.median(round_cpu),
        "warmup_s": warm_s,
        "calibration_s": statistics.median(runner.calibration),
        "fs_calibration_s": statistics.median(runner.fs_calibration),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in result.pop("errors"):
        print(f"FAILED {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result.pop('rounds')} round_s={result.pop('round_s'):.4f} "
          f"warmup_s={result.pop('warmup_s'):.4f} "
          f"calibration_ms={result.pop('calibration_s') * 1e3:.4f} "
          f"file_calibration_ms={result.pop('fs_calibration_s') * 1e3:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
