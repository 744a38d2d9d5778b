"""Quick self-test of the benchmark; finishes in seconds.

    python3 bench/selftest.py

Runs every workload at its "small" size, once untraced and once traced,
each with one measured round, and requires 0 failed operations (every
output passes its oracle and the traced outputs are byte-identical to
the untraced ones), every metric present, and every end-to-end metric
above 0.  It then corrupts outputs to show that the oracles reject them.
Exits 0 when everything holds.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def check_workloads() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.run(name, seed=1, seconds=0, trace=trace, size="small")
            tag = f"{name} trace={int(trace)}"
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: {res['failed']} failed: {res['errors'][:3]}")
            units = run.LAYER_UNITS if trace else run.E2E_UNITS
            if set(res["metrics"]) != set(units):
                problems.append(f"{tag}: metrics {sorted(res['metrics'])}")
            if not trace and any(m["value"] <= 0 for m in res["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is not above 0")
            print(f"{tag}: {res['attempted']} operations, {res['failed']} failed")
    return problems


def check_oracles_reject() -> list[str]:
    """Outputs altered after the CLI wrote them must fail their checks."""
    wl = workloads.build("case-table", seed=1, size_name="small")
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    runner = run.Runner(wl, out)
    fg = run.import_fuzgeo()
    problems = []
    try:
        for step in [s for s in wl.steps if isinstance(s, workloads.CliOp)
                     and s.command in ("distance", "midset")]:
            target = out / step.command
            argv = [step.command, "--scene", runner.scene_paths[step.scene],
                    "--out", str(target), *step.args]
            if fg.cli.run(argv) != 0 or step.check(str(target)):
                problems.append(f"{step.command}: clean output rejected")
                continue
            path = sorted(p for p in target.glob("*.csv") if p.stat().st_size > 40)[0]
            lines = path.read_text().splitlines()
            cells = lines[2].split(",")
            cells[-1] = repr(float(cells[-1]) * 1.001 + 1e-3)
            lines[2] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            if not step.check(str(target)):
                problems.append(f"{step.command}: corrupted {path.name} passed its check")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return problems


def main() -> int:
    problems = check_workloads() + check_oracles_reject()
    for problem in problems:
        print(f"SELFTEST FAILED {problem}", file=sys.stderr)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
