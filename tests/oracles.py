"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (dense grids,
boundary sampling, direct root finding) without touching the optimized
code paths under test.
"""

import numpy as np
from scipy.spatial import cKDTree

import fuzgeo as fg
from fuzgeo.metric import (CheckResult, FuzzyDistance, MetricAxiomReport,
                           _points_equal, closeness, fuzzy_distance)
from fuzgeo.midset import (DEFAULT_RESOLUTION, Branch, InvarianceReport, _pair_radii,
                           active_branches, overlap_case, support_bbox)

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
                clear_nonzero_d = abs_d >= 2.0 * tol
                clear_nonzero_m = res_m_scaled >= 2.0 * tol
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
                lo0, _ = m.value.cut(0.0)
                positivity.count(lo0 > 0.0, (i, j, t, lo0))

            cores_eq, spreads_eq = _points_equal(points[i], points[j])
            core_grade_one = all(abs(closeness(d_ij, t).value.cut(1.0)[0] - 1.0) <= tol
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
                            zip(m_ij.value.cut(float(a)), m_ji.value.cut(float(a))))
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

                        cl_ab = closeness(dist(i, j), t).value
                        cl_bc = closeness(dist(j, k), s).value
                        cl_ac = closeness(dist(i, k), t + s).value
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
