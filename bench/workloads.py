"""The benchmark's workloads: scenes, CLI operations and query batches.

Every input is made here from the seed; fuzgeo only ever sees the scene
files and the query values.  Each workload makes a different layer do
most of the work (see README.md for why each was chosen).

A workload is a list of steps that one round runs in order:

* ``CliOp``: ``reps`` invocations of one CLI command on one scene file.
  Each invocation is one operation.  Its time counts toward ``metric``.
* ``AxiomOp``: one axiom report (product t-norm, minimum t-norm or KS).
* ``DistanceQueries`` / ``EquidistantQueries``: a batch of membership
  queries, each query one operation.

Expected query grades are computed here with the oracles, not by fuzgeo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("case-table", "pair-kernel", "axiom-audit")
AXIOM_T = (0.5, 1.0, 2.0)
CURVE_T = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)

# The paper's case table, one circular pair per overlap case at the
# support level, plus the equal-spread pair of example 4.1:
# (core A, r1, core B, r2).
CASE_TABLE = (
    ("separate", (0.0, 0.0), 1.0, (5.0, 0.0), 2.0),
    ("externally_tangent", (0.0, 0.0), 1.0, (3.0, 0.0), 2.0),
    ("partially_overlapping", (0.0, 0.0), 1.0, (2.0, 0.0), 2.0),
    ("internally_tangent", (0.0, 0.0), 1.0, (1.0, 0.0), 2.0),
    ("fully_overlapping", (0.0, 0.0), 1.0, (0.5, 0.0), 2.0),
    ("concentric", (0.0, 0.0), 1.0, (0.0, 0.0), 2.0),
    ("equal_spread", (0.0, 0.0), 2.0, (5.0, 0.0), 2.0),
)

# Sizes per workload.  "full" is what the benchmark measures; "small" is
# the self-test.  reps repeat light commands so that each end-to-end time
# covers enough work to be measured within its bound.
SIZES = {
    "case-table": {
        "full": dict(levels=101, midset_levels=5, resolution=512, inv_resolution=512,
                     axiom_points=4, dist_queries=40, eq_queries=40, reps=dict(
                         distance=6, metric_curve=3, hausdorff=25, classify=5, axioms=3)),
        "small": dict(levels=11, midset_levels=3, resolution=64, inv_resolution=32,
                      axiom_points=4, dist_queries=4, eq_queries=4, reps={}),
    },
    "pair-kernel": {
        "full": dict(points=22, levels=101, midset_levels=5, midset_cases=(0, 2, 3, 4),
                     resolution=96, inv_resolution=256, axiom_points=4, dist_queries=8,
                     eq_queries=10, reps=dict(hausdorff=2, invariance=2, axioms=2)),
        "small": dict(points=6, levels=5, midset_levels=3, midset_cases=(0, 2), resolution=32,
                      inv_resolution=32, axiom_points=4, dist_queries=2, eq_queries=2,
                      reps={}),
    },
    "axiom-audit": {
        "full": dict(points=9, levels=101, midset_levels=3, midset_cases=(0, 2, 5),
                     resolution=128,
                     inv_resolution=256, dist_queries=4, eq_queries=10, reps=dict(
                         distance=2, hausdorff=6)),
        "small": dict(points=4, levels=5, midset_levels=3, midset_cases=(1,), resolution=32,
                      inv_resolution=32, dist_queries=2, eq_queries=2, reps={}),
    },
}


@dataclass
class CliOp:
    metric: str | None
    command: str
    scene: str
    args: list
    check: object          # callable(out_dir) -> list of errors
    reps: int = 1


@dataclass
class AxiomOp:
    kind: str               # "product", "minimum" or "ks"
    scene: str
    want: dict              # expected case count per check
    reps: int = 1


@dataclass
class DistanceQueries:
    scene: str
    queries: list           # (name A, name B, [x], [expected grade], tolerance)


@dataclass
class EquidistantQueries:
    scene: str
    queries: list           # (name A, name B, [(x, y)], [expected grade], tolerance)


@dataclass
class Workload:
    name: str
    scenes: dict = field(default_factory=dict)   # file stem -> scene JSON
    steps: list = field(default_factory=list)
    axiom_scene: str = ""

    @property
    def distinct_pairs(self) -> int:
        """Unordered point pairs (self-pairs too) that a round's operations touch."""
        pairs = set()
        for step in self.steps:
            if isinstance(step, CliOp):
                pairs |= {frozenset(p) for p in self.scenes[step.scene]["pairs"]}
            elif isinstance(step, (DistanceQueries, EquidistantQueries)):
                pairs |= {frozenset(q[:2]) for q in step.queries}
        names = [p["name"] for p in self.scenes[self.axiom_scene]["points"]]
        return len(pairs | {frozenset((a, b)) for a in names for b in names})

    @property
    def queries(self) -> int:
        return sum(len(q[2]) for s in self.steps
                   if isinstance(s, (DistanceQueries, EquidistantQueries))
                   for q in s.queries)


def _circular(name, x, y, r) -> dict:
    return {"name": name, "core": [x, y], "spread": {"kind": "circular", "radii": [r, r]}}


def _elliptical(name, x, y, p1, p2) -> dict:
    return {"name": name, "core": [x, y], "spread": {"kind": "elliptical", "radii": [p1, p2]}}


def _scene(points, pairs=None) -> dict:
    scene = {"points": points}
    if pairs is not None:
        scene["pairs"] = [[a["name"], b["name"]] for a, b in pairs]
    return scene


def _mixed_point(rng, name, lo, hi, circular) -> dict:
    x, y = (float(v) for v in rng.uniform(lo, hi, size=2))
    if circular:
        return _circular(name, x, y, float(rng.uniform(0.3, 1.5)))
    p1, p2 = (float(v) for v in rng.uniform(0.3, 1.5, size=2))
    return _elliptical(name, x, y, p1, p2)


def ring_points(rng, n: int, prefix: str = "G") -> list:
    """n fuzzy points in convex general position, alternating spread kinds.

    Cores sit on a jittered regular n-gon of radius 2n.  Every ordered
    core triple keeps a triangle slack above 1.15 times the largest loss
    two spreads of at most 0.3 can cause, which the componentwise
    triangle inequality of the KS axioms needs.
    """
    radius, r_hi = 2.0 * n, 0.3
    for _ in range(1000):
        angles = (np.arange(n) + rng.uniform(-0.02, 0.02, size=n)) * (2.0 * math.pi / n)
        radii = radius * rng.uniform(0.97, 1.03, size=n)
        cores = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        d = np.hypot(*(cores[:, None, :] - cores[None, :, :]).transpose(2, 0, 1))
        slack = d[:, :, None] + d[None, :, :].transpose(1, 0, 2) - d[:, None, :]
        i, j, k = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        distinct = (i != j) & (j != k) & (i != k)
        if slack[distinct].min() >= 2.0 * r_hi * 1.15:
            break
    else:
        raise RuntimeError(f"no general-position ring of {n} points found")
    points = []
    for idx, (x, y) in enumerate(cores):
        if idx % 2 == 0:
            points.append(_circular(f"{prefix}{idx:02d}", float(x), float(y),
                                    float(rng.uniform(0.05, r_hi))))
        else:
            p1, p2 = (float(v) for v in rng.uniform(0.05, r_hi, size=2))
            points.append(_elliptical(f"{prefix}{idx:02d}", float(x), float(y), p1, p2))
    return points


def case_table_pairs(rng) -> list:
    """The case table under a seeded exact similarity transform.

    A power-of-two scale, a quarter turn and a quarter-integer shift keep
    every coordinate exact, so tangent pairs stay exactly tangent and the
    grid work is the same for every seed.  Shifts stay within 2.5 of the
    origin: ``classify_conic`` calls hyperbolas of pairs far from the
    origin degenerate (see CHANGES.md), and every one of the 74088
    transforms this allows was checked to classify correctly.
    """
    scale = 2.0 ** int(rng.integers(-1, 2))
    turns = int(rng.integers(0, 4))
    shift = rng.integers(-10, 11, size=2) / 4.0

    def place(p):
        x, y = p
        for _ in range(turns):
            x, y = -y, x
        return float(x * scale + shift[0]), float(y * scale + shift[1])

    pairs = []
    for idx, (_, ca, ra, cb, rb) in enumerate(CASE_TABLE):
        if rng.integers(0, 2):
            ca, ra, cb, rb = cb, rb, ca, ra
        a = _circular(f"A{idx}", *place(ca), ra * scale)
        b = _circular(f"B{idx}", *place(cb), rb * scale)
        pairs.append((a, b))
    return pairs


def _distance_queries(rng, pairs, per_pair: int) -> list:
    """Queries at random values (circular pairs) or at frozen cut ends."""
    out = []
    for pa, pb in pairs:
        dc = oracles.core_distance(pa, pb)
        (a1, a2), (b1, b2) = oracles.radii(pa), oracles.radii(pb)
        if a1 + b1 == a2 + b2:
            R = a1 + b1
            xs = rng.uniform(max(0.0, dc - 1.2 * R), dc + 1.2 * R, size=per_pair)
            want = [oracles.distance_grade_circular(dc, R, float(x)) for x in xs]
            tol = oracles.GRADE_TOL
        else:
            want = rng.uniform(0.02, 0.98, size=per_pair)
            xs = oracles.frozen_hi(pa, pb, want)
            tol = oracles.FROZEN_TOL
        out.append((pa["name"], pb["name"], [float(x) for x in xs],
                    [float(w) for w in want], tol))
    return out


def _equidistant_queries(rng, pairs, per_pair: int) -> list:
    out = []
    for pa, pb in pairs:
        (ax, ay), (bx, by) = pa["core"], pb["core"]
        r = 1.2 * max(oracles.radii(pa)[0], oracles.radii(pb)[0])
        xs = rng.uniform(min(ax, bx) - r, max(ax, bx) + r, size=per_pair)
        ys = rng.uniform(min(ay, by) - r, max(ay, by) + r, size=per_pair)
        qs = [(float(x), float(y)) for x, y in zip(xs, ys)]
        out.append((pa["name"], pb["name"], qs,
                    [oracles.equidistant_grade(q, pa, pb) for q in qs], oracles.GRADE_TOL))
    return out


def _t_arg(ts) -> list:
    return ["--t", ",".join(repr(float(t)) for t in ts)]


def _common_steps(wl, size, main, main_pairs, haus, haus_pairs, circ, circ_pairs,
                  axiom_scene, n_axiom, reps):
    """The CLI commands, axiom reports and query batches every workload runs."""
    levels = size["levels"]
    wl.axiom_scene = axiom_scene
    wl.steps += [
        CliOp("distance_s", "distance", main, ["--alpha-levels", str(levels)],
              lambda out: oracles.check_distance(out, main_pairs, levels),
              reps.get("distance", 1)),
        CliOp("metric_curve_s", "metric-curve", main, _t_arg(CURVE_T),
              lambda out: oracles.check_metric_curve(out, main_pairs, CURVE_T),
              reps.get("metric_curve", 1)),
        CliOp("hausdorff_s", "hausdorff", haus, [],
              lambda out: oracles.check_hausdorff(out, haus_pairs),
              reps.get("hausdorff", 1)),
        CliOp("midset_s", "midset", circ,
              ["--alpha-levels", str(size["midset_levels"]),
               "--resolution", str(size["resolution"]), "--format", "svg"],
              lambda out: oracles.check_midset(out, circ_pairs,
                                               size["midset_levels"],
                                               size["resolution"]),
              reps.get("midset", 1)),
        CliOp(None, "classify", circ, [],
              lambda out: oracles.check_classify(out, circ_pairs),
              reps.get("classify", 1)),
        CliOp("invariance_s", "invariance", circ,
              ["--resolution", str(size["inv_resolution"]), *_t_arg((1.0,))],
              lambda out: oracles.check_invariance(out, circ_pairs, (1.0,),
                                                   size["inv_resolution"]),
              reps.get("invariance", 1)),
        AxiomOp("product", axiom_scene, oracles.metric_axiom_counts(n_axiom, len(AXIOM_T)),
                reps.get("axioms", 1)),
        AxiomOp("minimum", axiom_scene, oracles.metric_axiom_counts(n_axiom, len(AXIOM_T)),
                reps.get("axioms", 1)),
        AxiomOp("ks", axiom_scene, oracles.ks_axiom_counts(n_axiom), reps.get("axioms", 1)),
    ]


def build(name: str, seed: int, size_name: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    size = SIZES[name][size_name]
    reps = size["reps"]
    rng = np.random.default_rng(seed)
    wl = Workload(name)

    if name == "case-table":
        pairs = case_table_pairs(rng)
        points = [p for pair in pairs for p in pair]
        haus_pairs = [p for p, case in zip(pairs, CASE_TABLE) if case[0] != "concentric"]
        axiom_points = ring_points(rng, size["axiom_points"])
        wl.scenes = {
            "cases": _scene(points, pairs),
            "cases_hausdorff": _scene(points, haus_pairs),
            "axioms": _scene(axiom_points),
        }
        _common_steps(wl, size, "cases", pairs, "cases_hausdorff", haus_pairs, "cases", pairs,
                      "axioms", len(axiom_points), reps)
        wl.steps += [
            DistanceQueries("cases", _distance_queries(rng, pairs, size["dist_queries"])),
            EquidistantQueries("cases", _equidistant_queries(rng, pairs, size["eq_queries"])),
        ]
        return wl

    if name == "pair-kernel":
        points = [_mixed_point(rng, f"P{i:02d}", -8.0, 8.0, i % 2 == 0)
                  for i in range(size["points"])]
        axiom_points = ring_points(rng, size["axiom_points"])
    else:
        points = ring_points(rng, size["points"], prefix="P")
        axiom_points = points
    pairs = list(itertools.combinations(points, 2))
    circ_pairs = list(itertools.combinations([p for p in points
                                              if p["spread"]["kind"] == "circular"], 2))
    # midset, classify and invariance run on a fixed subset of the case
    # table, so their work is the same for every seed; see
    # case_table_pairs for why their placement is limited
    table = case_table_pairs(rng)
    chosen = [table[i] for i in size["midset_cases"]]
    for idx, (a, b) in enumerate(chosen):
        a["name"], b["name"] = f"M{idx}a", f"M{idx}b"
    wl.scenes = {
        "points": _scene(points, pairs),
        "circular": _scene([p for pair in chosen for p in pair], chosen),
    }
    axiom_scene = "points"
    if axiom_points is not points:
        wl.scenes["axioms"] = _scene(axiom_points)
        axiom_scene = "axioms"
    _common_steps(wl, size, "points", pairs, "points", pairs, "circular", chosen,
                  axiom_scene, len(axiom_points), reps)
    wl.steps += [
        DistanceQueries("points", _distance_queries(rng, pairs, size["dist_queries"])),
        EquidistantQueries("points", _equidistant_queries(rng, circ_pairs, size["eq_queries"])),
    ]
    return wl
