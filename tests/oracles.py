"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (dense grids,
boundary sampling, direct root finding) without touching the optimized
code paths under test.
"""

import json
import math
from itertools import groupby
from operator import attrgetter

import numpy as np
from scipy.spatial import cKDTree

import fuzgeo as fg
from fuzgeo.distance import TWO_PI, DistanceMembershipParams, fuzzy_distances
from fuzgeo.core import TriangularTriple, tri_add
from fuzgeo.metric import (CheckResult, FuzzyDistance, KSAxiomReport, MetricAxiomReport,
                           _points_equal, closeness, fuzzy_distance)
from fuzgeo.midset import (DEFAULT_RESOLUTION, Branch, InvarianceReport, OverlapCase,
                           _pair_radii, active_branches, overlap_case, support_bbox)
from fuzgeo.svgout import _alpha_color, fmt, fmt_rows

# Draws a rejection-sampling helper makes before it gives up.
MAX_DRAWS = 1000


def theta_grid_extrema(a, b, alpha, samples=10_000):
    """Extrema of the two cross-boundary distances over a dense angle fan.

    Returns (lo, hi, theta_at_lo, theta_at_hi) where lo/hi extremize the
    pointwise min/max of the two pairings, per the distance definition.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    u = 1.0 - alpha
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    ax_off = a.spread.p1 * u * cos_t
    ay_off = a.spread.p2 * u * sin_t
    bx_off = b.spread.p1 * u * cos_t
    by_off = b.spread.p2 * u * sin_t
    over_under = np.hypot((a.core.x + ax_off) - (b.core.x - bx_off),
                          (a.core.y + ay_off) - (b.core.y - by_off))
    under_over = np.hypot((a.core.x - ax_off) - (b.core.x + bx_off),
                          (a.core.y - ay_off) - (b.core.y + by_off))
    lam_lo = np.minimum(over_under, under_over)
    lam_hi = np.maximum(over_under, under_over)
    i_lo = int(np.argmin(lam_lo))
    i_hi = int(np.argmax(lam_hi))
    return (float(lam_lo[i_lo]), float(lam_hi[i_hi]),
            float(thetas[i_lo]), float(thetas[i_hi]))


def extremal_directions_reference(p: DistanceMembershipParams) -> tuple[float, float, bool]:
    """Directions of the smallest and largest support-level gap |V(theta, 1)|.

    They zero g = R2*d2*cos(theta) - R1*d1*sin(theta) + (e/2)*sin(2*theta),
    e = R2^2 - R1^2 (the point-to-ellipse problem); t = tan((theta - phi)/2)
    makes g = 0 a quartic with t^4 coefficient g(phi + pi).  Placing phi + pi
    at the largest |g| of eight equally spaced directions (at least the
    coefficient norm over sqrt(2)) keeps all roots bounded; with phi = 0 a
    root near infinity swamps the others as the cores meet.  A complex root
    only adds a losing candidate.  Lengths are in units of max(R1, R2).

    refined is False only for the flat profile, g identically zero
    (concentric cores, R1 == R2); both directions are then 0.
    """
    m = max(p.R1, p.R2)
    r1, r2 = p.R1 / m, p.R2 / m
    a1, b1, b2 = r2 * (p.d2 / m), -r1 * (p.d1 / m), 0.5 * (r2 * r2 - r1 * r1)
    if a1 == b1 == b2 == 0.0:
        return 0.0, 0.0, False
    samples = np.arange(8) * (math.pi / 4.0)
    g = a1 * np.cos(samples) + b1 * np.sin(samples) + b2 * np.sin(2.0 * samples)
    phi = float(samples[np.argmax(np.abs(g))]) - math.pi
    # g(phi + psi) = A1 cos(psi) + B1 sin(psi) + A2 cos(2 psi) + B2 sin(2 psi)
    c, s = math.cos(phi), math.sin(phi)
    A1, B1 = a1 * c + b1 * s, b1 * c - a1 * s
    A2, B2 = 2.0 * b2 * s * c, b2 * (c * c - s * s)
    quartic = (A2 - A1, 2.0 * (B1 - 2.0 * B2), -6.0 * A2,
               2.0 * (B1 + 2.0 * B2), A1 + A2)
    thetas = phi + 2.0 * np.arctan(np.roots(quartic).real)
    gaps = p.gap(thetas, 1.0)
    return (float(thetas[np.argmin(gaps)]) % TWO_PI,
            float(thetas[np.argmax(gaps)]) % TWO_PI, True)


def distance_membership_reference(d: FuzzyDistance, x: float) -> float:
    """Grade 1 - u of x in d, recomputing every inverse term per call.

    Each endpoint is the gap at its frozen direction, so u solves
    x^2 = dc^2 + 2*u*K1 + u^2*K2 in units of max(R1, R2); below the
    touching level u0 of overlapping supports the lower endpoint is linear.
    A NaN x passes both range tests and gets grade 1.
    """
    p = d.params
    lo0, hi0 = d.cut(0.0)
    if x < lo0 or x > hi0:
        return 0.0
    if x <= p.dc and d._u0 < 1.0:
        return 1.0 if p.dc == 0.0 else 1.0 - d._u0 * (1.0 - x / p.dc)
    theta, branch = ((d.argmin_theta, -1.0) if x <= p.dc
                     else (d.argmax_theta, 1.0))
    m = max(p.R1, p.R2)
    w1, w2 = p.R1 / m * math.cos(theta), p.R2 / m * math.sin(theta)
    k1 = p.d1 / m * w1 + p.d2 / m * w2
    k2 = w1 * w1 + w2 * w2
    disc = k1 * k1 - k2 * ((p.dc / m) ** 2 - (x / m) ** 2)
    u = (-k1 + branch * math.sqrt(max(0.0, disc))) / k2
    return min(1.0, max(0.0, 1.0 - u))


def distance_cut_reference(d: FuzzyDistance, alpha: float) -> tuple[float, float]:
    """The cut (lo, hi) of d at one level, in Python scalar arithmetic.

    An independent statement of the three cut branches, which
    FuzzyDistance.cut_table must equal bit for bit.
    """
    p = d.params
    u = 1.0 - alpha
    hi = float(p.gap(d.argmax_theta, u))
    if d._u0 >= 1.0:
        lo = float(p.gap(d.argmin_theta, u))
    elif d._u0 > 0.0:
        lo = p.dc * max(0.0, d._u0 - u) / d._u0
    else:
        lo = 0.0
    return (max(0.0, lo), hi)


def bisect_membership(cut, x: float, tol: float = 1e-10) -> float:
    """Grade of x in the fuzzy number with cut function cut: alpha -> (lo, hi).

    Bisects for the largest level whose cut contains x, assuming lo is
    non-decreasing and hi non-increasing in alpha.
    """
    lo0, hi0 = cut(0.0)
    if x < lo0 or x > hi0:
        return 0.0
    lo1, hi1 = cut(1.0)
    if lo1 <= x <= hi1:
        return 1.0

    if x < lo1:
        def inside(alpha: float) -> bool:
            return cut(alpha)[0] <= x
    else:
        def inside(alpha: float) -> bool:
            return cut(alpha)[1] >= x

    a_in, a_out = 0.0, 1.0
    while a_out - a_in > tol:
        mid = 0.5 * (a_in + a_out)
        if inside(mid):
            a_in = mid
        else:
            a_out = mid
    return a_in


def ellipse_boundary(e, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([e.cx + e.rx * np.cos(t), e.cy + e.ry * np.sin(t)], axis=1)


def hausdorff_boundary_oracle(e1, e2, n=10_000):
    """Hausdorff distance via dense boundary sampling of both shapes."""

    def directed(src, dst):
        pts = ellipse_boundary(src, n) if src.rx > 0 or src.ry > 0 \
            else np.array([[src.cx, src.cy]])
        dst_pts = ellipse_boundary(dst, n) if dst.rx > 0 or dst.ry > 0 \
            else np.array([[dst.cx, dst.cy]])
        if dst.rx > 0 and dst.ry > 0:
            inside = (((pts[:, 0] - dst.cx) / dst.rx) ** 2
                      + ((pts[:, 1] - dst.cy) / dst.ry) ** 2) <= 1.0
        else:
            inside = np.zeros(len(pts), dtype=bool)
        dists, _ = cKDTree(dst_pts).query(pts)
        dists[inside] = 0.0
        return float(dists.max())

    return max(directed(e1, e2), directed(e2, e1))


def hausdorff_support_oracle(e1, e2, directions=7200):
    """Hausdorff distance of convex sets as the sup-norm support gap."""
    t = np.linspace(0.0, 2.0 * np.pi, directions, endpoint=False)
    return float(np.max(np.abs(e1.support(t) - e2.support(t))))


def bisect_root(f, lo, hi, tol=1e-12):
    """Plain bisection for a sign change of f on [lo, hi]."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * f(hi) > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_circular(rng, core_lo=-5.0, core_hi=5.0, r_lo=0.2, r_hi=1.5):
    x, y = rng.uniform(core_lo, core_hi, size=2)
    return fg.FuzzyPoint.circular(x, y, rng.uniform(r_lo, r_hi))


def random_elliptical(rng, core_lo=-5.0, core_hi=5.0, r_lo=0.2, r_hi=1.5):
    x, y = rng.uniform(core_lo, core_hi, size=2)
    p1, p2 = rng.uniform(r_lo, r_hi, size=2)
    return fg.FuzzyPoint.elliptical(x, y, p1, p2)


def random_point(rng, **kwargs):
    if rng.random() < 0.5:
        return random_circular(rng, **kwargs)
    return random_elliptical(rng, **kwargs)


def random_separated_pair(rng, min_gap=4.0, max_gap=10.0, r_lo=0.2, r_hi=1.0):
    """A pair with disjoint supports and a controlled core distance."""
    x, y = rng.uniform(-3.0, 3.0, size=2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    gap = rng.uniform(min_gap, max_gap)
    a = random_point(rng, core_lo=0.0, core_hi=0.0, r_lo=r_lo, r_hi=r_hi)
    a = fg.FuzzyPoint(fg.Point2(x, y), a.spread)
    b = random_point(rng, core_lo=0.0, core_hi=0.0, r_lo=r_lo, r_hi=r_hi)
    b = fg.FuzzyPoint(fg.Point2(x + gap * np.cos(angle), y + gap * np.sin(angle)),
                      b.spread)
    return a, b


def membership_pairs(rng, n):
    """n seeded pairs with distinct cores, cycling through four kinds.

    Separated pairs, overlapping circular and overlapping elliptical pairs
    (cores within [-1, 1]^2, summed radii at least 3), and elliptical pairs
    anywhere in [-5, 5]^2.
    """
    pairs = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            pairs.append(random_separated_pair(rng))
        elif kind == 1:
            pairs.append((random_circular(rng, -1.0, 1.0, 1.5, 2.0),
                          random_circular(rng, -1.0, 1.0, 1.5, 2.0)))
        elif kind == 2:
            pairs.append((random_elliptical(rng, -1.0, 1.0, 1.5, 2.0),
                          random_elliptical(rng, -1.0, 1.0, 1.5, 2.0)))
        else:
            pairs.append((random_elliptical(rng), random_elliptical(rng)))
    return pairs


def membership_probes(number, pad):
    """Values across a fuzzy number's support, pad beyond each end, and at and around its core."""
    lo0, core, hi0 = number.summary.as_tuple()
    return [*np.linspace(lo0 - pad, hi0 + pad, 25).tolist(), -pad,
            core, core - 1e-3 * (core - lo0), core + 1e-3 * (hi0 - core)]


def min_triangle_slack(cores) -> float:
    """Smallest (leg + leg - base) over ordered triples of distinct core points."""
    c = np.asarray(cores, dtype=float)
    dist = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    # slack[i, j, k] = (|ij| + |jk|) - |ik|
    slack = dist[:, :, None] + dist[None, :, :] - dist[:, None, :]
    i, j, k = np.ogrid[:len(c), :len(c), :len(c)]
    return float(slack[(i != j) & (j != k) & (i != k)].min())


def _attach_spreads(rng, cores, r_lo, r_hi, circular):
    points = []
    for core in cores:
        if circular or rng.random() < 0.5:
            points.append(fg.FuzzyPoint.circular(core[0], core[1],
                                                 rng.uniform(r_lo, r_hi)))
        else:
            p1, p2 = rng.uniform(r_lo, r_hi, size=2)
            points.append(fg.FuzzyPoint.elliptical(core[0], core[1], p1, p2))
    return points


def general_position_triple(rng, box=10.0, r_lo=0.05, r_hi=0.3,
                            min_slack=1.0, circular=False):
    """A random fuzzy-point triple whose cores are far from collinear.

    The triangle slack of every ordered triple stays above min_slack,
    which must exceed the worst-case lower-endpoint loss 2*r_hi; a point
    lying between two others with positive spread provably violates the
    componentwise triangle inequality, so that degenerate band is the one
    regime excluded here.
    """
    assert min_slack > 2.0 * r_hi
    for _ in range(MAX_DRAWS):
        cores = [rng.uniform(0.0, box, size=2) for _ in range(3)]
        if min_triangle_slack(cores) >= min_slack:
            return _attach_spreads(rng, cores, r_lo, r_hi, circular)
    raise ValueError(f"no triple with slack {min_slack} in {MAX_DRAWS} draws")


def general_position_points(rng, n, r_lo=0.05, r_hi=0.3, circular=False,
                            max_draws=MAX_DRAWS):
    """n random fuzzy points in convex general position.

    Cores sit on a radially jittered regular n-gon, which keeps every
    triple's slack well above the 2*r_hi loss bound (for n = 10 at radius
    15 the minimum slack is around 0.7, and about one draw in 70 passes);
    uniform box sampling cannot do this for 10 points, some triple is
    always nearly collinear.  From n = 12 on even the unjittered n-gon
    misses the bound, so the search raises after max_draws draws.
    """
    radius = 1.5 * n
    min_slack = 2.0 * r_hi * 1.15
    for _ in range(max_draws):
        angles = (np.arange(n) + rng.uniform(-0.02, 0.02, size=n)) \
            * (2.0 * np.pi / n)
        radii = radius * rng.uniform(0.95, 1.05, size=n)
        cores = [np.array([r * np.cos(t), r * np.sin(t)])
                 for r, t in zip(radii, angles)]
        if min_triangle_slack(cores) >= min_slack:
            return _attach_spreads(rng, cores, r_lo, r_hi, circular)
    raise ValueError(f"no {n} points in general position in {max_draws} draws")


def equidistant_membership_reference(q, a, b) -> float:
    """Grade of a point in the fuzzy equidistant set, classifying each root anew.

    Each branch residual is linear in u = 1 - alpha, with the one root
    u = (d1 - d2)/(r1 - r2) or u = (d1 + d2)/(r1 + r2) (grade 1 on the
    bisector when r1 = r2); the grade is the largest root level in [0, 1]
    at which its branch is active.
    """
    r1, r2, _ = _pair_radii(a, b)
    d1, d2 = q.distance_to(a.core), q.distance_to(b.core)
    roots = [(Branch.SAME, 1.0 - (d1 + d2) / (r1 + r2))]
    if r1 != r2:
        roots.append((Branch.INVERSE, 1.0 - (d1 - d2) / (r1 - r2)))
    elif abs(d1 - d2) <= 1e-12:
        roots.append((Branch.INVERSE, 1.0))
    return max((alpha for branch, alpha in roots if 0.0 <= alpha <= 1.0
                and branch in active_branches(overlap_case(a, b, alpha))), default=0.0)


def branch_residuals(pts, a, b, alpha, branch):
    """Unsquared residual d1 -+ d2 - k of a midset branch at each row of pts.

    Its zero set is the branch itself: the conjugate hyperbola sheet that
    squaring adds is where the inverse residual equals -2k, not 0.
    """
    u = 1.0 - alpha
    d1 = np.hypot(pts[..., 0] - a.core.x, pts[..., 1] - a.core.y)
    d2 = np.hypot(pts[..., 0] - b.core.x, pts[..., 1] - b.core.y)
    if branch is fg.Branch.INVERSE:
        return d1 - d2 - (a.radius - b.radius) * u
    return d1 + d2 - (a.radius + b.radius) * u


def midset_crossing_cells(a, b, alpha, branch, bbox, resolution):
    """Centres of the grid cells where a branch residual changes sign.

    The grid has resolution nodes per side over bbox, as the marching
    squares contouring of Lorensen & Cline (1987) would sample it; a cell
    whose four corners do not share one sign holds a piece of the branch.
    """
    xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1)
    pos = branch_residuals(grid, a, b, alpha, branch) > 0.0
    corners = np.stack([pos[:-1, :-1], pos[:-1, 1:], pos[1:, :-1], pos[1:, 1:]])
    iy, ix = np.nonzero(corners.any(axis=0) & ~corners.all(axis=0))
    return np.column_stack([0.5 * (xs[ix] + xs[ix + 1]), 0.5 * (ys[iy] + ys[iy + 1])])


def invariance_reference(a, b, t_values, bbox=None, resolution=DEFAULT_RESOLUTION,
                         alphas=(0.0, 0.25, 0.5, 0.75, 1.0), tol=1e-9):
    """Both residuals on every grid point, the full-grid loop invariance_check replaced.

    Its reports must agree field by field.  It warns (invalid value in
    multiply) on grids with pole points.
    """
    for t in t_values:
        if t <= 0:
            raise ValueError(f"scale t must be positive, got {t}")
    r1, r2, _ = _pair_radii(a, b)
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    X, Y = np.meshgrid(xs, ys)
    d1 = np.hypot(X - a.core.x, Y - a.core.y)
    d2 = np.hypot(X - b.core.x, Y - b.core.y)

    report = InvarianceReport()
    for alpha in alphas:
        u = 1.0 - float(alpha)
        case = overlap_case(a, b, float(alpha))
        for branch in active_branches(case):
            fa = d1 - r1 * u
            fb = (d2 - r2 * u) if branch is Branch.INVERSE else -(d2 - r2 * u)
            res_d = fa - fb
            for t in t_values:
                with np.errstate(divide="ignore", invalid="ignore"):
                    res_m = t / (t + fa) - t / (t + fb)
                    scale = np.abs((t + fa) * (t + fb)) / t
                poles = ~np.isfinite(res_m) | (scale == 0.0)
                res_m_scaled = np.where(poles, np.inf, np.abs(res_m) * scale)
                abs_d = np.abs(res_d)
                zero_d = abs_d <= tol
                zero_m = res_m_scaled <= tol
                clear_nonzero_d = abs_d > 2.0 * tol
                clear_nonzero_m = res_m_scaled > 2.0 * tol
                disagree = (zero_d & clear_nonzero_m) | (zero_m & clear_nonzero_d)
                disagree &= ~poles
                report.checked += int(res_d.size)
                report.disagreements += int(np.count_nonzero(disagree))
                report.pole_points += int(np.count_nonzero(poles))
    return report


# --- closeness-metric axioms -------------------------------------------------


def metric_axioms_reference(points, t_samples, tnorm, alpha_samples=11, tol=1e-9):
    """The closeness-metric axiom checks as one closeness object per case.

    The scalar loop check_metric_axioms replaced; its reports must agree
    check by check, failure lists and identity notes included.

    'Almost equals 1' is operationalized as: the closeness core, its cut at
    alpha = 1, is within tol of 1 at every t if and only if the cores
    coincide; spread equality is noted separately rather than folded into
    the identity verdict.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")
    alphas = np.linspace(0.0, 1.0, alpha_samples)
    n = len(points)
    dists = {}

    def dist(i: int, j: int) -> FuzzyDistance:
        if (i, j) not in dists:
            dists[(i, j)] = fuzzy_distance(points[i], points[j])
        return dists[(i, j)]

    positivity = CheckResult("positivity")
    identity = CheckResult("identity")
    symmetry = CheckResult("symmetry")
    quadrangle = CheckResult("quadrangle_summary")
    quadrangle_cuts = CheckResult("quadrangle_cuts")
    continuity = CheckResult("continuity")

    for i in range(n):
        for j in range(n):
            d_ij = dist(i, j)
            for t in t_samples:
                m = closeness(d_ij, t)
                lo0, _ = m.cut(0.0)
                positivity.count(lo0 > 0.0, (i, j, t, lo0))

            cores_eq, spreads_eq = _points_equal(points[i], points[j])
            core_grade_one = all(abs(closeness(d_ij, t).cut(1.0)[0] - 1.0) <= tol
                                 for t in t_samples)
            identity.count(core_grade_one == cores_eq, (i, j))
            identity.notes.append(
                {"pair": (i, j), "core_equal": cores_eq,
                 "spread_equal": spreads_eq, "closeness_core_is_one": core_grade_one})

            if i < j:
                d_ji = dist(j, i)
                for t in t_samples:
                    m_ij = closeness(d_ij, t)
                    m_ji = closeness(d_ji, t)
                    worst = max(
                        max(abs(x - y) for x, y in
                            zip(m_ij.cut(float(a)), m_ji.cut(float(a))))
                        for a in alphas)
                    symmetry.count(worst <= tol, (i, j, t, worst))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                for t in t_samples:
                    for s in t_samples:
                        m_ab = closeness(dist(i, j), t).summary
                        m_bc = closeness(dist(j, k), s).summary
                        m_ac = closeness(dist(i, k), t + s).summary
                        ok = (tnorm(m_ab.l, m_bc.l) <= m_ac.l + tol
                              and tnorm(m_ab.m, m_bc.m) <= m_ac.m + tol
                              and tnorm(m_ab.u, m_bc.u) <= m_ac.u + tol)
                        quadrangle.count(ok, (i, j, k, t, s))

                        cl_ab = closeness(dist(i, j), t)
                        cl_bc = closeness(dist(j, k), s)
                        cl_ac = closeness(dist(i, k), t + s)
                        cuts_ok = True
                        for a in alphas:
                            lo1, hi1 = cl_ab.cut(float(a))
                            lo2, hi2 = cl_bc.cut(float(a))
                            lo3, hi3 = cl_ac.cut(float(a))
                            if (tnorm(lo1, lo2) > lo3 + tol
                                    or tnorm(hi1, hi2) > hi3 + tol):
                                cuts_ok = False
                                break
                        quadrangle_cuts.count(cuts_ok, (i, j, k, t, s))

    t_grid = np.geomspace(min(t_samples) / 2.0, max(t_samples) * 2.0, 64)
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = dist(i, j)
            lo_d, hi_d = d_ij.cut(0.0)
            worst_excess = 0.0
            for t1, t2 in zip(t_grid[:-1], t_grid[1:]):
                m1 = closeness(d_ij, float(t1)).summary
                m2 = closeness(d_ij, float(t2)).summary
                dt = float(t2 - t1)
                for v1, v2, d in ((m1.l, m2.l, hi_d), (m1.m, m2.m, d_ij.params.dc),
                                  (m1.u, m2.u, lo_d)):
                    bound = dt * d / ((t1 + d) * (t2 + d)) if d > 0 else 0.0
                    worst_excess = max(worst_excess, abs(v2 - v1) - bound)
            continuity.count(worst_excess <= tol, (i, j, worst_excess))

    return MetricAxiomReport(
        tnorm=tnorm.name, positivity=positivity, identity=identity,
        symmetry=symmetry, quadrangle=quadrangle,
        quadrangle_cuts=quadrangle_cuts, continuity=continuity)


def ks_axioms_reference(points, tol=1e-9):
    """The interval-valued metric axioms with one summary triple sum per triple.

    The loop check_ks_axioms replaced (with L = Min and R = Max); its
    reports must agree check by check, failure lists included, and an
    overflowing sum raises ValueError from tri_add.
    """
    if len(points) < 3:
        raise ValueError("at least three points are needed for the axiom checks")

    n = len(points)
    zero_core = CheckResult("zero_core")
    symmetry = CheckResult("symmetry")
    triangle = CheckResult("triangle")

    dists = fuzzy_distances([(a, b) for a in points for b in points])

    def summary(i: int, j: int) -> TriangularTriple:
        return dists[i * n + j].summary

    for i in range(n):
        for j in range(n):
            cores_eq, _ = _points_equal(points[i], points[j])
            zero_core.count((dists[i * n + j].cut(1.0)[1] <= tol) == cores_eq, (i, j))
            if i < j:
                s_ij, s_ji = summary(i, j), summary(j, i)
                worst = max(abs(x - y) for x, y in
                            zip(s_ij.as_tuple(), s_ji.as_tuple()))
                symmetry.count(worst <= tol, (i, j, worst))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                lhs = summary(i, j)
                rhs = tri_add(summary(i, k), summary(k, j))
                ok = (lhs.l <= rhs.l + tol and lhs.m <= rhs.m + tol
                      and lhs.u <= rhs.u + tol)
                triangle.count(ok, {"triple": (i, j, k),
                                    "lhs": lhs.as_tuple(), "rhs": rhs.as_tuple()})

    return KSAxiomReport(zero_core=zero_core, symmetry=symmetry, triangle=triangle)


# --- CLI output --------------------------------------------------------------


def reference_rows(rows, end="\n") -> str:
    """Rows written value by value, as the CLI wrote them before block formatting.

    A number becomes format(float(v), ".9g"); any other cell becomes str(v).
    """
    return "".join(",".join(format(float(v), ".9g") if isinstance(v, (int, float, np.floating))
                            else str(v) for v in row) + end for row in rows)


def _jsonify(obj):
    """Round floats to the fixed output precision for stable serialization."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def reference_json(payload) -> str:
    """A payload as the CLI wrote every JSON file before the fixed-schema templates."""
    return json.dumps(_jsonify(payload), indent=2) + "\n"


# --- midsets as sampled and written before the single-pass sampler ----------


def sample_branch_reference(a, b, alpha, branch, bbox=None,
                            resolution=DEFAULT_RESOLUTION) -> list[np.ndarray]:
    """sample_branch as it was before it sampled x and y as separate arrays.

    Polylines of one branch's zero set inside the bounding box.

    In the frame centred between the cores, x along the core line, c = dc/2
    and t = sinh s, d1 - d2 = k is the hyperbola sheet (k/2 sqrt(1 + t^2),
    sqrt(c^2 - k^2/4) t): the bisector when k = 0 and the ray from the
    nearer core away from the other at internal tangency.  d1 + d2 = k is
    the ellipse (k/2 cos s, sqrt(k^2/4 - c^2) sin s), a circle for
    concentric cores.  A branch inactive at this level gives [].  Exact
    vertices at equal arc-length steps of at most one cell
    max(w, h)/(resolution - 1) are split into the runs inside the bbox.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if bbox is None:
        bbox = support_bbox(a, b)
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"empty bounding box {bbox}")
    cell = max(xmax - xmin, ymax - ymin) / (resolution - 1)
    case = overlap_case(a, b, alpha)
    if branch not in active_branches(case):
        return []
    r1, r2, dc = _pair_radii(a, b)
    k = ((r1 - r2) if branch is Branch.INVERSE else (r1 + r2)) * (1.0 - alpha)
    c = dc / 2.0
    mx, my = 0.5 * (a.core.x + b.core.x), 0.5 * (a.core.y + b.core.y)
    ex, ey = ((b.core.x - mx) / c, (b.core.y - my) / c) if dc > 0.0 else (1.0, 0.0)
    # the bbox lies in the annulus near <= |P - centre| <= far
    far = max(math.hypot(x - mx, y - my) for x in (xmin, xmax) for y in (ymin, ymax))
    near = math.hypot(max(xmin - mx, 0.0, mx - xmax), max(ymin - my, 0.0, my - ymax))
    if branch is Branch.INVERSE:
        half = math.copysign(min(abs(k) / 2.0, c), k)
        minor = math.sqrt(c * c - half * half)
        # |P|^2 = half^2 + c^2 t^2, and P moves at most c per unit of t
        t_lo, t_hi = (math.sqrt(max(r * r - half * half, 0.0)) / c for r in (near, far))
        if case is OverlapCase.INTERNALLY_TANGENT:
            spans = [(t_lo, t_hi)]
        else:
            spans = [(-t_hi, -t_lo), (t_lo, t_hi)] if t_lo > 0.0 else [(-t_hi, t_hi)]
        speed = c
    else:
        half = max(k / 2.0, c)
        minor = math.sqrt(half * half - c * c)
        spans, speed = [(0.0, 2.0 * math.pi)], half

    polylines = []
    for t0, t1 in spans:
        # dense exact samples at most h = cell/16 apart; arc-length steps of
        # at most cell - h snapped to them keep every chord within one cell
        t = np.linspace(t0, t1, math.ceil(16.0 * speed * (t1 - t0) / cell) + 2)
        if branch is Branch.INVERSE:
            x, y = half * np.sqrt(1.0 + t * t), minor * t
        else:
            x, y = half * np.cos(t), minor * np.sin(t)
        pts = np.column_stack((mx + x * ex - y * ey, my + x * ey + y * ex))
        if branch is Branch.SAME:
            pts[-1] = pts[0]
        seg = np.hypot(*np.diff(pts, axis=0).T)
        arc = np.concatenate(([0.0], np.cumsum(seg)))
        steps = max(1, math.ceil(arc[-1] / (cell - seg.max())))
        pts = pts[np.unique(np.searchsorted(arc, np.linspace(0.0, arc[-1], steps + 1)))]
        inside = ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
                  & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
        runs = np.split(np.arange(len(pts)), np.flatnonzero(np.diff(inside)) + 1)
        if branch is Branch.SAME and len(runs) > 1 and inside[0] and inside[-1]:
            # the closed ellipse re-enters at its start: join the first and last runs
            runs = [np.concatenate((runs[-1][:-1], runs[0]))] + runs[1:-1]
        polylines += [pts[r] for r in runs if inside[r[0]] and len(r) > 1]
    return polylines


def midset_files_reference(a, b, result, size=640):
    """The midset CSV texts per level and the SVG text, as the CLI wrote them
    when each vertex was formatted once for the CSV and again for the SVG.

    Returns ({alpha: csv text}, svg text).
    """
    csvs = {}
    for alpha, entries in groupby(result.entries, key=attrgetter("alpha")):
        csvs[alpha] = "branch,polyline,x,y\n" + "".join([
            fmt_rows(f"{entry.branch.value},{fmt(j)},", polyline)
            for entry in entries for j, polyline in enumerate(entry.polylines)])

    xmin, ymin, xmax, ymax = result.bbox
    width = xmax - xmin
    height = ymax - ymin
    scale = size / max(width, height)
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

    for entry in result.entries:
        color = _alpha_color(entry.alpha, entry.branch)
        for polyline in entry.polylines:
            parts.append(
                f'<polyline points="{fmt_rows("", polyline, end=" ")[:-1]}" '
                f'fill="none" stroke="{color}" stroke-width="{fmt(stroke)}"/>')

    parts.append("</g>")
    parts.append("</svg>")
    return csvs, "\n".join(parts) + "\n"
