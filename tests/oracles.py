"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the
semilinear oracle is a damped Newton iteration (the package uses
nonlinear multigrid), quadratures go through scipy.integrate, and
closed forms are spelled out where they exist.
"""

import numpy as np
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def newton_semilinear(B, rhs, phi_vec, u0=None, tol=1e-12, max_iter=100):
    """Damped Newton for  B u + phi_vec(u) = rhs  with B an M-matrix.

    phi_vec maps an interior vector to the reaction values at those
    points.  The Jacobian of the reaction is approximated by forward
    differences, which is fine for the piecewise-smooth reactions used
    in the tests.
    """
    B = sp.csc_matrix(B)
    n = B.shape[0]
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()

    def residual(v):
        return B @ v + phi_vec(v) - rhs

    r = residual(u)
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return u
        eps = 1e-7 * max(1.0, np.max(np.abs(u)))
        dphi = (phi_vec(u + eps) - phi_vec(u)) / eps
        J = B + sp.diags(np.maximum(dphi, 0.0))
        step = spla.spsolve(J, r)
        # damped line search on the residual norm
        alpha = 1.0
        base = np.max(np.abs(r))
        for _ in range(60):
            trial = u - alpha * step
            r_trial = residual(trial)
            if np.max(np.abs(r_trial)) < base:
                u, r = trial, r_trial
                break
            alpha *= 0.5
        else:
            return u
    return u


def quad(f, a, b):
    """Adaptive quadrature with a tight tolerance."""
    val, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
    return val


def bump_raw(s):
    """Unnormalized bump profile exp(-1/(1-s^2)) on (-1, 1)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def green_1d(x, y):
    """Green function of -u'' on (0,1) with zero boundary values."""
    x, y = np.minimum(x, y), np.maximum(x, y)
    return x * (1.0 - y)


def laplace_1d_matrix(n, h):
    """Dense  B = -A_II  for the 1D second difference on n interior points."""
    B = np.zeros((n, n))
    np.fill_diagonal(B, 2.0 / h**2)
    idx = np.arange(n - 1)
    B[idx, idx + 1] = -1.0 / h**2
    B[idx + 1, idx] = -1.0 / h**2
    return B


# closed forms -------------------------------------------------------------

def cell_average_inverse_distance():
    """Average of 1/|z| over the unit cube, via the smooth reduced integral.

    Symmetry reduces the cube average to 3 * int_0^1 int_0^1
    du dv / sqrt(1 + u^2 + v^2) after integrating the radial direction
    analytically; the integrand is smooth so fixed-order quadrature
    converges fast.
    """
    val, _ = scipy.integrate.dblquad(
        lambda u, v: 1.0 / np.sqrt(1.0 + u * u + v * v),
        0.0,
        1.0,
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return 3.0 * val


def cell_average_log_distance():
    """Average of -log|z| over the unit square: 3/2 + log(2)/2 - pi/4."""
    return 1.5 + 0.5 * np.log(2.0) - np.pi / 4.0


def kato_direct_sum(mask, p, alpha):
    """Truncated singular sum at every interior center, by direct summation.

    For each interior center x (in ``mask.interior_flat`` order) the sum
    h^d * sum_y |p(y)| k(x - y) runs over every active point y, with the
    kernel 1/|z| (d = 3) or log(alpha/|z|) (d = 2) zeroed where
    |z| > alpha(1 + 1e-12) and clipped at 0; the y = x term is the cell
    average of the kernel from the quadratures above.  The inner sum over
    all active points is one dot product; there is no neighbour search and
    no FFT.  ``p`` is a constant or a callable on (n, d) points.  Returns
    (sup, first center attaining it).
    """
    grid = mask.grid
    h = np.asarray(grid.spacing)
    hbar = float(np.mean(h))
    if grid.dim == 3:
        self_term = cell_average_inverse_distance() / hbar
    else:
        self_term = np.log(alpha / hbar) + cell_average_log_distance()
    points = grid.points()
    ys = points[np.concatenate([mask.interior_flat, mask.boundary_flat])]
    pv = np.abs(p(ys)) if callable(p) else np.full(len(ys), abs(float(p)))
    best, best_x = -np.inf, None
    for x in points[mask.interior_flat]:
        r = np.sqrt(np.sum((ys - x) ** 2, axis=1))
        with np.errstate(divide="ignore"):
            k = 1.0 / r if grid.dim == 3 else np.log(alpha / r)
        k[r == 0.0] = self_term
        k[r > alpha * (1.0 + 1e-12)] = 0.0
        total = float(np.prod(h)) * float(np.dot(pv, np.maximum(k, 0.0)))
        if total > best:
            best, best_x = total, x
    return best, best_x


def majorant_table(phi, points, deltas):
    """The concave majorant of phi built point by point, on t = linspace(0, 2, 257).

    Each point gets its own affine bounds (2 c1 / delta) p(x) t
    + 2 (phi_x * eta_delta)(0), their minimum over ``deltas`` is pinned
    to 0 at t = 0 and read at min(t, 1), and 2 p(x) t is added, so the
    profile is never factored out of p.  Uses the package's mollifier and
    ``mollified_at_zero``, which binds phi and reads it node by node;
    ``build_concave_majorant`` calls neither.  Returns (t, table) with one
    row per point.
    """
    import ellipot as ep
    from ellipot.geometry import values_at

    points = np.asarray(points, dtype=float)
    t = np.linspace(0.0, 2.0, 257)
    tc = np.minimum(t, 1.0)
    pv = values_at(phi.p, points)
    c1 = ep.Mollifier().slope_constant()
    psi = np.full((len(points), len(t)), np.inf)
    for d in deltas:
        intercept = 2.0 * ep.mollified_at_zero(phi, points, d)
        psi = np.minimum(psi, (2.0 * c1 / d) * pv[:, None] * tc[None, :]
                         + intercept[:, None])
    psi[:, tc == 0.0] = 0.0
    return t, 2.0 * pv[:, None] * t[None, :] + psi


def majorant_profile(phi):
    """The majorant's profile psi of phi = p rho as one reaction p = 1
    bound at one point builds it: per radius delta = 1, ..., 2^-12, one
    ``mollified_at_zero``, which reads rho one node at a time, and the
    running minimum of the affine bounds (2 c1 / delta) t + 2 (rho *
    eta_delta)(0) on t = linspace(0, 2, 257), pinned to 0 at t = 0."""
    import ellipot as ep

    t = np.linspace(0.0, 2.0, 257)
    moll = ep.Mollifier()
    unit, origin = ep.ProductPhi(1.0, phi.rho), np.zeros((1, 1))
    c1 = moll.slope_constant()
    psi = np.full(len(t), np.inf)
    for d in 2.0 ** (-np.arange(13, dtype=float)):
        intercept = 2.0 * ep.mollified_at_zero(unit, origin, d, moll)[0]
        np.minimum(psi, (2.0 * c1 / d) * t + intercept, out=psi)
    psi[0] = 0.0
    return psi


def hypotheses_report(phi, p, points):
    """``check_hypotheses`` as a table of phi bound to the points and
    evaluated at each t-node of linspace(0, 2, 257), with the density p
    given apart from phi.  Returns the package's HypothesisReport, so
    that the two compare field by field."""
    import ellipot as ep
    from ellipot.geometry import values_at
    from ellipot.nonlinearity import HypothesisReport

    points = np.asarray(points, dtype=float)
    t_grid = np.linspace(0.0, 2.0, 257)
    pv = values_at(p, points)
    bound = phi.bind(points)
    messages = []
    try:
        with np.errstate(all="ignore"):
            rho0 = float(np.asarray(phi.rho(np.zeros(1)), dtype=float).flat[0])
    except (ArithmeticError, ValueError, ep.ExprError):
        rho0 = np.nan
    vanishes = rho0 == 0.0
    if not vanishes:
        messages.append(f"rho(0) = {rho0:.3g}, not 0: phi jumps at t = 0")
    table = np.stack([bound(t) for t in t_grid], axis=1)
    steps = np.diff(table, axis=1)
    min_step = float(steps.min()) if steps.size else 0.0
    scale = max(1.0, float(np.abs(table).max()))
    defect = 2.0 * table[:, 1:-1] - table[:, :-2] - table[:, 2:]
    cdef = float(defect.min()) if defect.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = pv[:, None] * (t_grid[None, :] + 1.0)
        ratio = np.where(denom > 0, table / denom, 0.0)
    cbound = float(ratio.max()) if ratio.size else 0.0
    return HypothesisReport(
        vanishes, min_step >= -1e-12 * scale, min_step, cdef, cdef >= -1e-9 * scale,
        cbound, cbound <= 1e6, messages,
    )


def field_csv_rows(field):
    """The data rows of ``save_field``'s CSV as ``csv.writer`` writes them,
    one row per active point in flat-index order."""
    import csv
    import io

    from ellipot.geometry import INTERIOR

    g = field.mask.grid
    classes = field.mask.classes.ravel()
    vals = field.values.ravel()
    active = np.sort(np.concatenate([field.mask.interior_flat, field.mask.boundary_flat]))
    pts = g.points()
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"x{k + 1}" for k in range(g.dim)] + ["index", "class", "value"])
    for idx in active:
        ch = "i" if classes[idx] == INTERIOR else "b"
        writer.writerow([f"{x:.17g}" for x in pts[idx]] + [int(idx), ch, f"{vals[idx]:.17g}"])
    return out.getvalue()


def domination_gap(phi, majorant, points):
    """min over points and the majorant's t-grid of majorant - phi,
    both bound and evaluated at every point and node."""
    upper = majorant.bind(points)
    lower = phi.bind(points)
    return min(float((upper(t) - lower(t)).min()) for t in majorant.t_grid)
