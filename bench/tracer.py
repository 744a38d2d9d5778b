"""In-memory spans and counters around fuzgeo's public functions.

The tracer patches functions and methods from outside the package: every
fuzgeo module attribute bound to a wrapped function is replaced by the
wrapper, so ``from .distance import fuzzy_distance`` style imports are
traced as well, and ``restore`` puts the originals back.

A span records (id, name, start, end, parent id, request id); times are
CPU seconds of the process, the clock the end-to-end metrics use.  Hot leaf
functions called millions of times (cut evaluations) are aggregated into
call counts and time instead of spans; their time still counts as child
time of the enclosing span.  A layer's self time is its span time minus
the time of its child spans and aggregated leaves.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import process_time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.request = None
        self._stack: list[list] = []   # [span id, name, child seconds]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), name, 0.0]
            stack.append(frame)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                tracer.spans.append((frame[0], name, start, end,
                                     parent[0] if parent else None, tracer.request))
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = process_time()
            result = fn(*args, **kwargs)
            dur = process_time() - start
            tracer.calls[name] += 1
            tracer.self_s[name] += dur
            stack = tracer._stack
            if stack:
                stack[-1][2] += dur
                tracer.counters[f"{name}@{stack[-1][1]}"] += 1
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def wrap_function(self, module, attr: str, name: str, leaf=False, after=None):
        """Wrap ``module.attr`` wherever a fuzgeo module holds that function."""
        original = getattr(module, attr)
        wrapper = self._leaf(name, original) if leaf else self._span(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fuzgeo" or mod_name.startswith("fuzgeo.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, leaf=False, after=None):
        """Wrap ``cls.attr``; an inherited method is wrapped for ``cls`` only."""
        own = attr in vars(cls)
        original = getattr(cls, attr)
        wrapper = self._leaf(name, original) if leaf else self._span(name, original, after)
        self._patches.append((cls, attr, original, own))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Running totals, to difference between two points of a run."""
        return {"calls": Counter(self.calls), "self_s": dict(self.self_s),
                "counters": Counter(self.counters)}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "request"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"calls": self.calls, "self_s": self.self_s,
                                 "counters": self.counters}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every fuzgeo module the benchmark uses."""
    from fuzgeo import cli, core, distance, hausdorff, lines, metric, midset, scene, svgout

    def flat(counters, args, _result):
        if not args[0].refined:
            counters["distance.flat_profiles"] += 1

    def checks(counters, _args, report):
        counters["metric.checks"] += sum(c.checked for c in report.checks)

    def polylines(counters, _args, result):
        counters["midset.polylines"] += len(result)
        counters["midset.vertices"] += sum(len(p) for p in result)

    def points(counters, _args, report):
        counters["midset.invariance_points"] += report.checked

    def svg_bytes(counters, _args, text):
        counters["svgout.bytes"] += len(text.encode("utf-8"))

    tracer.wrap_function(cli, "run", "cli.run")
    tracer.wrap_function(scene, "load_scene", "scene.load")
    tracer.wrap_method(distance.FuzzyDistance, "__init__", "distance.construct", after=flat)
    tracer.wrap_method(distance.FuzzyDistance, "cut", "distance.cut", leaf=True)
    tracer.wrap_method(core.FuzzyNumber, "membership", "core.membership")
    tracer.wrap_function(metric, "metric_md", "metric.md")
    tracer.wrap_function(metric, "check_metric_axioms", "metric.axioms", after=checks)
    tracer.wrap_function(metric, "check_ks_axioms", "metric.ks", after=checks)
    tracer.wrap_function(hausdorff, "fuzzy_hausdorff", "hausdorff.fuzzy")
    tracer.wrap_function(lines, "project_onto_line", "lines.project")
    tracer.wrap_function(midset, "compute_midset", "midset.compute")
    tracer.wrap_function(midset, "sample_branch", "midset.sample_branch", after=polylines)
    for attr in ("overlap_case", "alpha_thresholds", "conic_coefficients", "classify_conic"):
        tracer.wrap_function(midset, attr, "midset.classify", leaf=True)
    tracer.wrap_function(midset, "invariance_check", "midset.invariance", after=points)
    tracer.wrap_function(midset, "equidistant_membership", "midset.equidistant")
    tracer.wrap_function(svgout, "render_midset_svg", "svgout.render", after=svg_bytes)
