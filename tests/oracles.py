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


# operator set-up by scipy's generic sparse routines ------------------------
#
# The package builds its matrices, colourings and transfers from the
# stencil and CSR arrays directly; these build the same objects the generic
# way (COO assembly, Kronecker products and sums, sparse differences and
# fancy indexing, a breadth-first search), so that tests can require the
# two to agree byte for byte.

def bfs_connected(flags):
    """Whether the set marked by ``flags`` is axis-connected (or empty),
    by a breadth-first search that grows one lattice step per pass."""
    from ellipot.geometry import _neighbor_or

    total = int(flags.sum())
    if total == 0:
        return True
    seen = np.zeros_like(flags)
    seen[np.unravel_index(np.flatnonzero(flags.ravel())[0], flags.shape)] = True
    frontier, reached = seen.copy(), 1
    while True:
        grown = _neighbor_or(frontier) & flags & ~seen
        if not grown.any():
            return reached == total
        seen |= grown
        frontier = grown
        reached += int(grown.sum())


def ellipticity_report(coeffs, mask):
    """``check_ellipticity`` with a and c evaluated and a's eigenvalues
    taken at every interior point."""
    from ellipot.operators import EllipticityReport

    pts = mask.interior_points()
    a = coeffs.a_at(pts, mask.grid.dim)
    c = coeffs.c_at(pts)
    messages = []
    sym_err = float(np.max(np.abs(a - np.transpose(a, (0, 2, 1))))) if len(a) else 0.0
    symmetric = sym_err <= 1e-12 * max(1.0, float(np.max(np.abs(a))))
    if not symmetric:
        messages.append(f"a is not symmetric (max asymmetry {sym_err:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (a + np.transpose(a, (0, 2, 1))))
    lo, hi = float(eigs.min()), float(eigs.max())
    if lo <= 0.0:
        messages.append(f"a is not positive definite (min eigenvalue {lo:.3e})")
    cmax = float(c.max()) if c.size else 0.0
    if cmax > 0.0:
        messages.append(f"c is positive somewhere (max {cmax:.3e})")
    ok = symmetric and lo > 0.0 and cmax <= 0.0
    return EllipticityReport(lo, hi, cmax, symmetric, ok, messages)


def coo_blocks(op):
    """The interior and boundary blocks of ``op`` rebuilt from its entries,
    shuffled, as one COO matrix converted to CSR, its duplicates summed and
    its columns sliced."""
    nI = op.n_interior
    both = sp.hstack([op.interior_matrix, op.boundary_matrix]).tocoo()
    order = np.random.default_rng(7).permutation(both.nnz)
    A = sp.coo_matrix(
        (both.data[order], (both.row[order], both.col[order])), shape=both.shape
    ).tocsr()
    A.sum_duplicates()
    return A[:, :nI].tocsr(), A[:, nI:].tocsr()


def kronsum_box(op):
    """(shape, diagonal, leg weights) of the DST-I box solver of ``op``'s
    B = -A_II, or None: B must fill a block and differ from the Kronecker
    sum of 1D second differences rebuilt from its first diagonal entry and
    legs by at most 1e-12 of max|B|."""
    mask = op.mask
    idx = np.unravel_index(mask.interior_flat, mask.grid.shape)
    shape = tuple(int(i.max() - i.min()) + 1 for i in idx)
    if int(np.prod(shape)) != mask.n_interior:
        return None
    B = (-op.interior_matrix).tocsr()
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    weights = [-B[0, s] if n > 1 else 0.0 for s, n in zip(strides, shape)]
    diag = B[0, 0]
    kron = sp.csr_matrix((1, 1))
    for n, w in zip(shape, weights):
        second = sp.diags([-w, -w], [-1, 1], shape=(n, n))
        kron = sp.kronsum(second, kron, format="csr")
    kron = kron + diag * sp.identity(mask.n_interior, format="csr")
    if float(abs(B - kron).max()) > 1e-12 * float(abs(B).max()):
        return None
    return shape, diag, weights


def colour_rows(colours, B):
    """Per colour of ``colours``, in increasing order: its rows, their
    slice of B minus its diagonal (zeros eliminated) and their diagonal."""
    diag = B.diagonal()
    off = sp.csr_matrix(B - sp.diags(diag))
    off.eliminate_zeros()
    rows = [np.flatnonzero(colours == c) for c in np.unique(colours)]
    return [(r, off[r], diag[r]) for r in rows]


def axis_restrictions(m, m_coarse):
    """The 1D full weighting and iterate restriction from m points to
    m_coarse as CSR matrices: odd m keeps 2j + 1 (weights 1/4, 1/2, 1/4
    and injection), even m the midpoints of s + 2j and s + 2j + 1,
    s = m / 2 - m_coarse (weights 1/8, 3/8, 3/8, 1/8 and the pair mean);
    the identity where the axis does not coarsen."""
    if m_coarse == m:
        eye = sp.identity(m, format="csr")
        return eye, eye
    j = np.arange(m_coarse)[:, None]
    if m % 2:
        legs, weights, kept, means = 2 * j + np.arange(3), [0.25, 0.5, 0.25], 2 * j + 1, [1.0]
    else:
        s = m // 2 - m_coarse
        legs, weights = s + 2 * j + np.arange(-1, 3), [0.125, 0.375, 0.375, 0.125]
        kept, means = s + 2 * j + np.arange(2), [0.5, 0.5]

    def restriction(cols, vals):
        rows = np.broadcast_to(j, cols.shape)
        on = (cols >= 0) & (cols < m)
        vals = np.broadcast_to(vals, cols.shape)
        return sp.csr_matrix((vals[on], (rows[on], cols[on])), shape=(m_coarse, m))

    return restriction(legs, weights), restriction(kept, means)


def fas_levels(op):
    """The levels of the FAS hierarchy of ``op``, built the generic way:
    per level its B (canonicalized through ``coo_blocks``; level 0's is
    -A_II), colour slices (``colour_rows`` on the package's colouring) and,
    but on the coarsest, the full weighting and iterate restriction as
    ``sp.kron`` chains of ``axis_restrictions``, fancy-indexed to the
    interiors.  Coarse levels are assembled by ``ellipot.assemble`` on the
    blocks and bounds of ``_fas_sides``, as the package does."""
    import ellipot as ep
    from ellipot.geometry import BOUNDARY, INTERIOR, DomainMask
    from ellipot.solver import _fas_sides, _lattice_colours

    def colouring(mask, B):
        off = (B - sp.diags(B.diagonal())).tocoo()
        off.eliminate_zeros()
        return colour_rows(_lattice_colours(mask, off.row, off.col), B)

    grid = op.mask.grid
    sides = _fas_sides(op.mask)
    idx = np.unravel_index(op.mask.interior_flat, grid.shape)
    bounds = [(grid.axis(k)[i.min() - 1], grid.axis(k)[i.max() + 1]) for k, i in enumerate(idx)]
    inside = np.ravel_multi_index(tuple(i - i.min() for i in idx), sides[0])
    mask, B = op.mask, sp.csr_matrix(-op.interior_matrix)
    levels = []
    for fine, coarse in zip(sides, sides[1:] + [None]):
        level = {"B": B, "colours": colouring(mask, B)}
        levels.append(level)
        if coarse is None:
            break
        axes = [axis_restrictions(m, mc) for m, mc in zip(fine, coarse)]
        full, restrict = axes[0]
        for weights, means in axes[1:]:
            full = sp.kron(full, weights, format="csr")
            restrict = sp.kron(restrict, means, format="csr")
        outside = np.ones(restrict.shape[1])
        outside[inside] = 0.0
        coarse_inside = np.flatnonzero(restrict @ outside == 0.0)
        if not coarse_inside.size:
            break
        if coarse_inside.size < restrict.shape[0] or inside.size < restrict.shape[1]:
            full = full[coarse_inside][:, inside]
            restrict = restrict[coarse_inside][:, inside]
        level["full"], level["restrict"] = full, restrict
        for k, (m, mc) in enumerate(zip(fine, coarse)):
            if mc < m and m % 2 == 0:
                shift = m // 2 - mc - 0.5
                lo, hi = bounds[k]
                h = (hi - lo) / (m + 1)
                bounds[k] = (lo + shift * h, hi - shift * h)
        classes = np.full([m + 2 for m in coarse], BOUNDARY, dtype=np.int8)
        classes[tuple(i + 1 for i in np.unravel_index(coarse_inside, coarse))] = INTERIOR
        mask = DomainMask(ep.build_grid(grid.dim, classes.shape, bounds), classes,
                          _validated=True)
        inside = coarse_inside
        coarse_op = ep.assemble(mask, op.coeffs, op.scheme, validate=False)
        B = sp.csr_matrix(-coo_blocks(coarse_op)[0])
    return levels

