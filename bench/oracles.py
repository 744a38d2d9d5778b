"""Independent checks of fuzgeo's outputs.

Nothing here imports fuzgeo.  Every expected value is recomputed from the
scene geometry: closed forms from the core distance and the radii where
the paper gives them, and dense angle fans where it does not.  A check
returns a list of error strings; an empty list means the output passed.

Geometry is passed as plain dicts in the scene-file format:
``{"name": "A", "core": [x, y], "spread": {"kind": ..., "radii": [p1, p2]}}``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# Tangency tolerance of the overlap-case table: two cut disks touch when
# their core distance equals the radius sum or difference within this.
TOUCH_TOL = 1e-9
# Relative tolerance for values the CLI prints with 9 significant digits.
PRINT_TOL = 1e-7
# Tolerance on grades found by bisection to 1e-10 in alpha.
GRADE_TOL = 1e-8
# Elliptical distance grades: golden-section search pins the frozen
# extremal direction only to ~1e-8 rad on its flat maximum, which moves
# the upper cut ends below the support level, and so the grades, by up
# to ~1e-8 (5.9e-9 was the largest seen over 8500 queries).
FROZEN_TOL = 1e-7
# Largest residual a refined midset vertex may keep, in units of the
# core distance (vertices are printed with 9 significant digits).
VERTEX_TOL = 1e-6
# A point of the analytic conic must lie this many grid cells from a vertex.
COVER_CELLS = 2.0
# Vertex files and SVGs are checked for conics whose minor semi-axis spans
# at least this many cells; thinner branches fall between grid nodes.
THIN_CELLS = 2.0
INVARIANCE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Angle fans: coarse samples, refinement passes, and the alpha rows of a
# distance table checked against a fan.
FAN_SAMPLES, FAN_PASSES, FAN_ROWS = 4096, 3, 11

INVERSE, SAME = "inverse_points", "same_points"
ACTIVE = {
    "non_overlapping": (INVERSE,),
    "externally_tangent": (INVERSE,),
    "partially_overlapping": (INVERSE, SAME),
    "internally_tangent": (INVERSE, SAME),
    "fully_overlapping": (SAME,),
    "concentric": (SAME,),
}


def _close(got, want, tol=PRINT_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _xy(p) -> np.ndarray:
    return np.array(p["core"], dtype=float)


def radii(p) -> tuple[float, float]:
    return float(p["spread"]["radii"][0]), float(p["spread"]["radii"][1])


def core_distance(pa, pb) -> float:
    (ax, ay), (bx, by) = pa["core"], pb["core"]
    return math.hypot(ax - bx, ay - by)


# --- overlap cases --------------------------------------------------------

def overlap_case(dc: float, r1: float, r2: float, u: float) -> str:
    """Relative position of two cut disks of radii r1*u and r2*u."""
    if dc <= TOUCH_TOL:
        return "concentric"
    if abs(dc - (r1 + r2) * u) <= TOUCH_TOL:
        return "externally_tangent"
    if dc > (r1 + r2) * u:
        return "non_overlapping"
    if abs(dc - abs(r1 - r2) * u) <= TOUCH_TOL:
        return "internally_tangent"
    if dc < abs(r1 - r2) * u:
        return "fully_overlapping"
    return "partially_overlapping"


def thresholds(dc: float, r1: float, r2: float):
    """(n, n1, n2): the alpha levels where the cuts separate and nest."""
    if dc == 0.0:
        return None, None, None
    n = min(1.0, max(0.0, 1.0 - dc / (r1 + r2)))
    n1 = None if r1 == r2 else min(1.0, max(0.0, 1.0 - dc / abs(r1 - r2)))
    return n, n1, n


# --- distance cuts --------------------------------------------------------

def _gap_terms(pa, pb):
    (a1, a2), (b1, b2) = pa["core"], pb["core"]
    (pa1, pa2), (pb1, pb2) = radii(pa), radii(pb)
    return a1 - b1, a2 - b2, pa1 + pb1, pa2 + pb2


def _gap(d1, d2, R1, R2, theta, u):
    # distance from A's over-boundary point to B's under-boundary point
    # along the common parametric angle theta, at cut scale u
    return np.hypot(d1 + R1 * u * np.cos(theta), d2 + R2 * u * np.sin(theta))


def fan_extrema(pa, pb, us):
    """Refined min and max of the boundary gap over all angles, per scale u.

    Returns (lo, hi, theta_lo, theta_hi), each an array over ``us``.  A
    coarse fan finds the best sample; each pass lays a fine fan over the
    two steps around the best angle so far, shrinking the step 128-fold,
    until values near a sharp minimum are good to ~1e-14.
    """
    d1, d2, R1, R2 = _gap_terms(pa, pb)
    us = np.asarray(us, dtype=float)[:, None]
    step = 2.0 * math.pi / FAN_SAMPLES
    theta = np.arange(FAN_SAMPLES) * step
    vals = _gap(d1, d2, R1, R2, theta[None, :], us)
    rows = np.arange(len(us))
    out = []
    for sign in (1.0, -1.0):
        best = theta[np.argmin(sign * vals, axis=1)]
        width = step
        for _ in range(FAN_PASSES):
            local = best[:, None] + np.linspace(-width, width, 257)[None, :]
            lv = _gap(d1, d2, R1, R2, local, us)
            j = np.argmin(sign * lv, axis=1)
            best, value = local[rows, j], lv[rows, j]
            width /= 128.0
        out.append((value, best))
    (lo, th_lo), (hi, th_hi) = out
    return lo, hi, th_lo, th_hi


def frozen_hi(pa, pb, alphas) -> np.ndarray:
    """Upper cut endpoints along the direction extremal at the support."""
    d1, d2, R1, R2 = _gap_terms(pa, pb)
    _, _, _, th = fan_extrema(pa, pb, [1.0])
    return _gap(d1, d2, R1, R2, th[0], 1.0 - np.asarray(alphas, dtype=float))


def support_endpoints(pa, pb) -> tuple[float, float]:
    """(lo, hi) of the distance at alpha = 0."""
    d1, d2, R1, R2 = _gap_terms(pa, pb)
    dc = math.hypot(d1, d2)
    if R1 == R2:
        return max(0.0, dc - R1), dc + R1
    lo, hi, _, _ = fan_extrema(pa, pb, [1.0])
    u0 = math.hypot(d1 / R1, d2 / R2)
    return (float(lo[0]) if u0 >= 1.0 else 0.0), float(hi[0])


def distance_grade_circular(dc: float, R: float, x: float) -> float:
    return max(0.0, 1.0 - abs(x - dc) / R)


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _pair_stem(pa, pb) -> str:
    return f"{pa['name']}_{pb['name']}"


def check_distance(out: str, pairs, levels: int) -> list[str]:
    errors = []
    alphas = np.linspace(0.0, 1.0, levels)
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        head, rows = _read_rows(os.path.join(out, f"{stem}_distance.csv"))
        with open(os.path.join(out, f"{stem}_distance.json"), encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        if head != ["alpha", "lo", "mid", "hi"] or len(rows) != levels:
            errors.append(f"{stem}: distance table has {len(rows)} rows")
            continue
        a, lo, mid, hi = np.array(rows, dtype=float).T
        d1, d2, R1, R2 = _gap_terms(pa, pb)
        dc = math.hypot(d1, d2)
        u = 1.0 - alphas
        tol = PRINT_TOL * max(1.0, dc + max(R1, R2))
        if np.max(np.abs(a - alphas)) > tol or np.max(np.abs(mid - dc)) > tol:
            errors.append(f"{stem}: alpha or mid column off")
        if (np.any(np.diff(lo) < -tol) or np.any(np.diff(hi) > tol)
                or np.any(lo > hi + tol) or np.any(lo < 0.0)):
            errors.append(f"{stem}: cuts are not nested")
        if R1 == R2:
            want_lo = np.maximum(0.0, dc - R1 * u)
            want_hi = dc + R1 * u
            if np.max(np.abs(lo - want_lo)) > tol or np.max(np.abs(hi - want_hi)) > tol:
                errors.append(f"{stem}: circular cuts differ from dc -+ (r1+r2)u")
            lo0, hi0 = want_lo[0], want_hi[0]
        else:
            idx = np.unique(np.linspace(0, levels - 1, FAN_ROWS).round().astype(int))
            f_lo, f_hi, _, _ = fan_extrema(pa, pb, u[idx])
            if np.any(hi[idx] > f_hi + tol):
                errors.append(f"{stem}: hi exceeds the angle-fan maximum")
            sel = lo[idx] > 0.0
            if np.any(lo[idx][sel] < f_lo[sel] - tol):
                errors.append(f"{stem}: lo falls below the angle-fan minimum")
            lo0, hi0 = support_endpoints(pa, pb)
            if abs(hi[0] - hi0) > tol or abs(lo[0] - lo0) > tol:
                errors.append(f"{stem}: support cut ({lo[0]}, {hi[0]}) "
                              f"differs from the fan ({lo0}, {hi0})")
        if not all(_close(g, w) for g, w in zip(summary, (lo0, dc, hi0))):
            errors.append(f"{stem}: summary {summary} differs from ({lo0}, {dc}, {hi0})")
    return errors


def check_metric_curve(out: str, pairs, ts) -> list[str]:
    errors = []
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        head, rows = _read_rows(os.path.join(out, f"{stem}_metric_curve.csv"))
        if head != ["t", "lo", "mid", "hi", "spread"] or len(rows) != len(ts):
            errors.append(f"{stem}: closeness table has {len(rows)} rows")
            continue
        lo0, hi0 = support_endpoints(pa, pb)
        dc = core_distance(pa, pb)
        for t, row in zip(ts, np.array(rows, dtype=float)):
            want = (t, t / (t + hi0), t / (t + dc), t / (t + lo0),
                    t / (t + lo0) - t / (t + hi0))
            if not all(abs(g - w) <= PRINT_TOL for g, w in zip(row, want)):
                errors.append(f"{stem}: closeness row {row.tolist()} != {want}")
                break
    return errors


def check_hausdorff(out: str, pairs) -> list[str]:
    errors = []
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        with open(os.path.join(out, f"{stem}_hausdorff.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        a, b = _xy(pa), _xy(pb)
        dc = float(np.hypot(*(b - a)))
        c, s = (b - a) / dc
        widths = []
        for p in (pa, pb):
            p1, p2 = radii(p)
            w = math.hypot(p1 * c, p2 * s)
            widths.append(w)
            l, m, u = res["projected"][p["name"]]
            if not (_close(m - l, w, 1e-6) and _close(u - m, w, 1e-6)):
                errors.append(f"{stem}: projection of {p['name']} has half-widths "
                              f"({m - l}, {u - m}), expected {w}")
        ma, mb = res["projected"][pa["name"]][1], res["projected"][pb["name"]][1]
        if not _close(abs(mb - ma), dc, 1e-6):
            errors.append(f"{stem}: projected cores are {abs(mb - ma)} apart, not {dc}")
        w = sum(widths)
        if not all(_close(g, x, 1e-6) for g, x in
                   zip(res["summary"], (max(0.0, dc - w), dc, dc + w))):
            errors.append(f"{stem}: summary {res['summary']} != "
                          f"({max(0.0, dc - w)}, {dc}, {dc + w})")
        line = res["line"]
        for q in (a, b):
            if not _close(line["a"] * q[0] + line["b"] * q[1], line["c"], 1e-6):
                errors.append(f"{stem}: line misses the core {q.tolist()}")
    return errors


# --- midsets --------------------------------------------------------------

def support_bbox(pa, pb):
    """The square window the CLI samples a pair's midset in."""
    (a1, a2), (b1, b2) = pa["core"], pb["core"]
    ra, rb = radii(pa)[0], radii(pb)[0]
    xmin, xmax = min(a1 - ra, b1 - rb), max(a1 + ra, b1 + rb)
    ymin, ymax = min(a2 - ra, b2 - rb), max(a2 + ra, b2 + rb)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    half = max(0.75 * (xmax - xmin), 0.75 * (ymax - ymin), 1e-6)
    return cx - half, cy - half, cx + half, cy + half


def branch_k(r1: float, r2: float, u: float, branch: str) -> float:
    return (r1 - r2) * u if branch == INVERSE else (r1 + r2) * u


def conic_points(a, b, k: float, branch: str, bbox, cell: float):
    """Points on the analytic midset conic inside the window, or None.

    The inverse branch d1 - d2 = k is one sheet of a hyperbola with foci
    at the cores (the perpendicular bisector when k = 0); the same branch
    d1 + d2 = k is an ellipse with the same foci.  None means the conic
    is degenerate or thinner than the grid resolves.
    """
    dc = float(np.hypot(*(b - a)))
    c = dc / 2.0
    centre = (a + b) / 2.0
    e = (b - a) / dc if dc > 0.0 else np.array([1.0, 0.0])
    f = np.array([-e[1], e[0]])
    span = 2.0 * math.hypot(bbox[2] - bbox[0], bbox[3] - bbox[1])
    if branch == INVERSE:
        half = abs(k) / 2.0
        if half >= c * (1.0 - 1e-9):
            return None
        minor = math.sqrt(c * c - half * half)
        if minor < THIN_CELLS * cell:
            return None
        t = np.linspace(-1.0, 1.0, 20001) * math.asinh(span / minor)
        x, y = math.copysign(half, k) * np.cosh(t), minor * np.sinh(t)
    else:
        half = k / 2.0
        if half <= c * (1.0 + 1e-9):
            return None
        minor = math.sqrt(half * half - c * c)
        if minor < THIN_CELLS * cell:
            return None
        t = np.linspace(0.0, 2.0 * math.pi, 20001)
        x, y = half * np.cos(t), minor * np.sin(t)
    pts = centre + x[:, None] * e + y[:, None] * f
    margin = 2.0 * cell
    inside = ((pts[:, 0] > bbox[0] + margin) & (pts[:, 0] < bbox[2] - margin)
              & (pts[:, 1] > bbox[1] + margin) & (pts[:, 1] < bbox[3] - margin))
    pts = pts[inside]
    return pts[:: max(1, len(pts) // 200)]


def _residual(pts, a, b, k, branch):
    d1 = np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
    d2 = np.hypot(pts[:, 0] - b[0], pts[:, 1] - b[1])
    return (d1 - d2 - k) if branch == INVERSE else (d1 + d2 - k), d1 - d2


def _nearest(points, vertices) -> np.ndarray:
    best = np.full(len(points), np.inf)
    for start in range(0, len(vertices), 4096):
        chunk = vertices[start:start + 4096]
        d = np.hypot(points[:, None, 0] - chunk[None, :, 0],
                     points[:, None, 1] - chunk[None, :, 1])
        best = np.minimum(best, d.min(axis=1))
    return best


def check_midset(out: str, pairs, levels: int, resolution: int) -> list[str]:
    errors = []
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        a, b = _xy(pa), _xy(pb)
        r1, r2 = radii(pa)[0], radii(pb)[0]
        dc = core_distance(pa, pb)
        bbox = support_bbox(pa, pb)
        cell = (bbox[2] - bbox[0]) / (resolution - 1)
        n_polylines = 0
        for alpha in np.linspace(0.0, 1.0, levels):
            u = 1.0 - float(alpha)
            path = os.path.join(out, f"{stem}_midset_a{alpha:.4f}.csv")
            if not os.path.exists(path):
                errors.append(f"{stem}: no midset file for alpha {alpha:.4f}")
                continue
            head, rows = _read_rows(path)
            active = ACTIVE[overlap_case(dc, r1, r2, u)]
            for branch in {r[0] for r in rows} - set(active):
                errors.append(f"{stem}: branch {branch} drawn at alpha {alpha:.4f} "
                              f"where it is inactive")
            n_polylines += len({(r[0], r[1]) for r in rows})
            for branch in active:
                k = branch_k(r1, r2, u, branch)
                verts = np.array([[float(r[2]), float(r[3])] for r in rows
                                  if r[0] == branch]).reshape(-1, 2)
                if len(verts):
                    res, diff = _residual(verts, a, b, k, branch)
                    worst = float(np.max(np.abs(res)))
                    if worst > VERTEX_TOL * max(1.0, dc):
                        errors.append(f"{stem}: {branch} vertex residual {worst:.3g} "
                                      f"at alpha {alpha:.4f}")
                    if branch == INVERSE and np.any(diff * k < -VERTEX_TOL * max(1.0, dc)):
                        errors.append(f"{stem}: vertex on the rejected hyperbola sheet "
                                      f"at alpha {alpha:.4f}")
                samples = conic_points(a, b, k, branch, bbox, cell)
                if samples is None or not len(samples):
                    continue
                if not len(verts):
                    errors.append(f"{stem}: {branch} missing at alpha {alpha:.4f}")
                    continue
                gap = float(np.max(_nearest(samples, verts)))
                if gap > COVER_CELLS * cell:
                    errors.append(f"{stem}: {branch} at alpha {alpha:.4f} leaves a conic "
                                  f"point {gap / cell:.1f} cells from every vertex")
        tree = ET.parse(os.path.join(out, f"{stem}_midset.svg"))
        tags = [el.tag.rsplit("}", 1)[-1] for el in tree.iter()]
        if tags.count("polyline") != n_polylines or tags.count("ellipse") != 2:
            errors.append(f"{stem}: SVG draws {tags.count('polyline')} polylines, "
                          f"CSV files hold {n_polylines}")
    return errors


def check_classify(out: str, pairs) -> list[str]:
    errors = []
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        with open(os.path.join(out, f"{stem}_classify.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        r1, r2 = radii(pa)[0], radii(pb)[0]
        dc = core_distance(pa, pb)
        n, n1, n2 = thresholds(dc, r1, r2)
        got = res["thresholds"]
        for key, want in (("n", n), ("n1", n1), ("n2", n2)):
            if (want is None) != (got[key] is None) or (
                    want is not None and abs(got[key] - want) > PRINT_TOL):
                errors.append(f"{stem}: threshold {key} = {got[key]}, expected {want}")
        if res["case_at_support"] != overlap_case(dc, r1, r2, 1.0):
            errors.append(f"{stem}: case {res['case_at_support']} at the support, "
                          f"expected {overlap_case(dc, r1, r2, 1.0)}")
        edges = sorted({0.0, 1.0} | {v for v in (n1, n2) if v is not None and 0.0 < v < 1.0})
        if len(res["bands"]) != len(edges) - 1:
            errors.append(f"{stem}: {len(res['bands'])} bands, expected {len(edges) - 1}")
            continue
        for band, lo, hi in zip(res["bands"], edges[:-1], edges[1:]):
            case = overlap_case(dc, r1, r2, 1.0 - 0.5 * (lo + hi))
            classes = {br: ("line" if br == INVERSE and r1 == r2 else
                            "hyperbola" if br == INVERSE else "ellipse")
                       for br in ACTIVE[case]}
            if band["case"] != case or band["classes"] != classes:
                errors.append(f"{stem}: band [{lo}, {hi}] is {band['case']} "
                              f"{band['classes']}, expected {case} {classes}")
    return errors


def check_invariance(out: str, pairs, ts, resolution: int) -> list[str]:
    errors = []
    for pa, pb in pairs:
        stem = _pair_stem(pa, pb)
        with open(os.path.join(out, f"{stem}_invariance.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        r1, r2 = radii(pa)[0], radii(pb)[0]
        dc = core_distance(pa, pb)
        branches = sum(len(ACTIVE[overlap_case(dc, r1, r2, 1.0 - al)])
                       for al in INVARIANCE_ALPHAS)
        want = resolution * resolution * branches * len(ts)
        if res["checked"] != want or res["disagreements"] != 0 or res["agreed"] is not True:
            errors.append(f"{stem}: invariance checked {res['checked']} points "
                          f"(expected {want}) with {res['disagreements']} disagreements")
    return errors


# --- axiom reports ---------------------------------------------------------

def metric_axiom_counts(n: int, n_t: int) -> dict:
    """Cases per check of the closeness-metric axioms on n points."""
    ordered, unordered, triples = n * n, n * (n - 1) // 2, n * (n - 1) * (n - 2)
    return {"positivity": ordered * n_t, "identity": ordered,
            "symmetry": unordered * n_t, "quadrangle_summary": triples * n_t * n_t,
            "quadrangle_cuts": triples * n_t * n_t, "continuity": unordered}


def ks_axiom_counts(n: int) -> dict:
    return {"zero_core": n * n, "symmetry": n * (n - 1) // 2,
            "triangle": n * (n - 1) * (n - 2)}


def check_axiom_report(checks, want: dict) -> list[str]:
    """``checks`` is a list of (name, checked, failures) from a report."""
    errors = []
    got = {name: checked for name, checked, _ in checks}
    if got != want:
        errors.append(f"axiom case counts {got}, expected {want}")
    for name, _, failures in checks:
        if failures:
            errors.append(f"axiom check {name} failed: {failures[:2]}")
    return errors


# --- equidistant grades ----------------------------------------------------

def equidistant_grade(q, pa, pb) -> float:
    """Sup of the levels whose active midset branch passes through q.

    Both branch residuals are linear in u = 1 - alpha, so each has the
    single root u = (d1 - d2)/(r1 - r2) or u = (d1 + d2)/(r1 + r2).
    """
    a, b = _xy(pa), _xy(pb)
    r1, r2 = radii(pa)[0], radii(pb)[0]
    d1 = math.hypot(q[0] - a[0], q[1] - a[1])
    d2 = math.hypot(q[0] - b[0], q[1] - b[1])
    dc = core_distance(pa, pb)
    roots = [(1.0 - (d1 + d2) / (r1 + r2), SAME)]
    if r1 != r2:
        roots.append((1.0 - (d1 - d2) / (r1 - r2), INVERSE))
    elif abs(d1 - d2) <= 1e-12:
        roots.append((1.0, INVERSE))
    best = 0.0
    for alpha, branch in roots:
        if 0.0 <= alpha <= 1.0 and branch in ACTIVE[overlap_case(dc, r1, r2, 1.0 - alpha)]:
            best = max(best, alpha)
    return best
