"""Monotone solution of the semilinear Dirichlet problem  L u = phi(., u).

The scheme is a shifted Picard iteration started at the harmonic
extension of the boundary data: with B = -A_II and a diagonal shift
Lambda chosen at least as large as the steepest secant slope of phi over
the working range,

    (B + Lambda) u_{k+1} = Lambda u_k - phi(u_k) + A_IB f.

Because B is an M-matrix and t -> Lambda t - phi(t) is nondecreasing, the
iterates decrease monotonically from the harmonic extension and stay
nonnegative for nonnegative data, so the limit is the largest solution
below the harmonic extension; convergence is geometric.  Next to a dead
core of a sublinear phi the shift cannot match phi' = gamma u^(gamma-1),
which is unbounded, and Picard alone stalls.  So in a solve where some
shift exceeds B's diagonal, each Picard step is followed by one exact
nonlinear Gauss-Seidel sweep (nonlinear SOR for M-functions, Ortega and
Rheinboldt, Iterative Solution of Nonlinear Equations in Several
Variables, ch. 13): colour by colour on the lattice parity, every point
solves its scalar equation B_ii t + p_i rho(t) = s_i to tol / 100.

Nonlinear multigrid.  On a 2D lattice whose interior fills a full
rectangular block with every side odd under m -> (m - 1) / 2 until it is
at most _COARSEST_SIDE (127 -> 63 -> ... -> 3 qualifies, 65 -> 32 does
not), and where p >= 0 and B has the M-matrix sign pattern, the solve runs
Full Approximation Scheme V-cycles from the same start instead (Brandt,
Multi-level adaptive solutions to boundary-value problems, Math. Comp.
31, 1977; Brandt and Cryer, SIAM J. Sci. Stat. Comput. 4, 1983, for the
free boundary that the edge of a dead core is).  F(u) = B u + phi(u) is
then an M-function, so the same exact sweep is a convergent smoother on
every level.  The hierarchy is built in the solve: each coarser level
re-assembles the operator's coefficients and scheme on the box with
sides (m - 1) / 2 over the same bounds, residuals restrict by full
weighting, iterates by injection, and corrections prolong bilinearly and
are clamped as Picard iterates are.  Every other solve (1D, 3D, discs and predicate masks,
sides that do not halve, a signed p, centered drift or corner cross
terms) takes shifted Picard.

Both paths run in one loop with one set of gates: convergence is declared
on the increment and the recomputed residual; a run whose increment
stays flat without meeting them stops as stagnated, not converged; the
step budget counts Picard steps or V-cycles.  The constants below fix
how the shift is estimated and refreshed, when a run counts as stalled,
how the pointwise roots stop and the shape of a cycle.

Linear algebra.  The harmonic extension, the identity certificate and the
error bound are solves with B through ``AssembledOperator.solve``: on a
full box with constant coefficients and no drift or cross terms, two
type-I discrete sine transforms; elsewhere the operator's cached SuperLU
factor (minimum-degree ordering of A^T + A, see ``operators._sparse_lu``),
so an operator reused across solves is factored at most once.  The path
for the shifted systems with B + Lambda is fixed per solve by the lattice
and by B's symmetry, following nested-dissection fill (George, Nested
dissection of a regular finite element mesh, SIAM J. Numer. Anal. 10,
1973): a factor costs O(n^(3/2)) on a 2D lattice and O(n^2) on a 3D one.
On a 1D or 2D lattice, or when B is not exactly symmetric, B + Lambda is
factored from the first step and refactored at each shift refresh.  On a
3D lattice with symmetric B each step runs Jacobi-preconditioned CG
warm-started from the current iterate, to the absolute sup-norm residual
tol (a tenth of the 10 * tol equation gate; at the fixed point of the
inexact map the equation residual equals the inner one), checked on the
true residual; should CG break down or miss tol within n iterations, its
exact-arithmetic bound, the solve factors B + Lambda and stays on that
factor.  The Gauss-Seidel sweep needs no solve: per colour, one
matrix-vector product with the colour's rows of B's off-diagonal part; a
FAS cycle needs none either.  The report names the path, counts the
factorizations a solve built, their fill and its CG iterations, and each
solve logs one DEBUG line on the ``ellipot.solver`` logger.
"""
from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonConvergenceError, SolverBreakdownError
from .geometry import box_mask, build_grid, values_at
from .nonlinearity import _vanishing
from .operators import _sign_pattern, _sparse_lu, assemble
from .potentials import Field, boundary_values, interior_values

log = logging.getLogger(__name__)

# Slopes are probed down to _T_FLOOR: for reactions with unbounded slope
# at zero (fractional powers) the secant from the floor replaces the
# derivative.  A run whose increment stays flat at or below _T_FLOOR over
# _STALL_WINDOW steps without meeting the gates is stopped as stagnated,
# with the residual reported as measured.
_T_FLOOR = 1e-8
_STALL_WINDOW = 200
# _LADDER_SIZE probing nodes span each point's range; _LAMBDA_SAFETY is a
# margin over the steepest secant for slopes the ladder misses
_LADDER_SIZE = 64
_LAMBDA_SAFETY = 1.1
# the shift is re-estimated every _REFRESH_EVERY steps as the iterates
# shrink; the matrix changes when the shifts halve or some point needs
# more, and a solve on a shifted factor then refactors
_REFRESH_EVERY = 50
# the pointwise roots of the Gauss-Seidel sweep stop at |g| <= tol /
# _ROOT_SHARE, or after _ROOT_STEPS trials where rho jumps at t = 0 (an
# affine offset) and no such point exists
_ROOT_SHARE = 100.0
_ROOT_STEPS = 60
# a residual row is computed to within a few units in the last place of
# its largest terms, so no iterate meets an equation gate below
# _ROUNDING * (|B| |u| + |phi(u)| + |A_IB f|)_i in row i; for a positive
# tol a row whose gate 10 * tol lies below its floor is held to the floor
# (large boundary data), and a pointwise root stops within _ROUNDING * s
# of its right side s
_ROUNDING = 4.0 * np.finfo(float).eps
# a FAS V-cycle sweeps _PRE_SWEEPS times before each coarse correction and
# _POST_SWEEPS times after it: V(1, 1) takes 10 to 11 cycles on 127^2
# dead-core boxes against 8 to 9 for V(2, 2), and about 20% less time
_PRE_SWEEPS = 1
_POST_SWEEPS = 1
# a side stops coarsening at _COARSEST_SIDE points or fewer, and the
# coarsest level (at most 9 points in 2D) gets _COARSEST_SWEEPS sweeps:
# on dead-core, drift, cross-term and linear boxes 5 gave the cycle counts
# of 40, and 3 added cycles
_COARSEST_SIDE = 3
_COARSEST_SWEEPS = 5


@dataclass
class SemilinearParams:
    """Settings of one semilinear solve.

    tol : convergence requires the sup-norm increment <= tol and, in
        every row, the equation residual <= 10 * tol, or, for tol > 0,
        <= that row's rounding floor when it is larger (``_ROUNDING``);
        tol = 0 asks for an exact solve and ends as stagnated.
    max_iterations : the step budget: Picard steps, or V-cycles on the
        FAS path (see the module docstring for which solves take it).

    A solve that misses the gates within the budget, or stagnates first,
    raises ``NonConvergenceError`` carrying its report and iterate.
    """

    tol: float = 1e-10
    max_iterations: int = 200000


@dataclass
class SolveReport:
    """Outcome of one semilinear solve.

    ``method`` names the path the solve took: "shifted-picard", or "fas"
    on a 2D box that coarsens (module docstring), where ``iterations``
    counts V-cycles instead of Picard steps.
    ``factorizations`` counts the sparse LUs the solve built: the
    operator's own factor when it was not cached yet (never on a box whose
    B is solved by DST), plus the shifted matrix B + Lambda, factored on
    1D and 2D lattices and for non-symmetric B from the first step, on 3D
    lattices only once CG gave it up, and refactored at each later
    refresh.  So a 1D or 2D Picard box solve counts 1 +
    ``lambda_refreshes``.  ``factor_nnz`` sums their fill as SuperLU
    reports it (``SuperLU.nnz``).
    ``inner_iterations`` counts the CG iterations of the shifted solves
    on 3D lattices with symmetric B, including those of an attempt given
    up for a factor; it is 0 on 1D and 2D lattices and for non-symmetric
    B.
    ``lambda_max`` and ``lambda_refreshes`` describe the Picard shift.  A
    FAS solve has no shift and no shifted system, so these two and
    ``inner_iterations`` read 0 there, and ``factorizations`` counts only
    the operator's own factor (drift or variable coefficients); the
    fields stay so that every report has the same keys.
    ``converged`` is True only when both gates of ``SemilinearParams.tol``
    were met, and a solve returns only such reports; an unconverged one
    rides on the ``NonConvergenceError`` the solve raises.  ``status``
    says how the loop ended: "converged", "stagnated" (the increment went
    flat; ``message`` then starts "increment stagnated") or "failed" (the
    step budget ran out).  ``final_residual`` is
    the sup-norm of r = B u + phi(u) - A_IB f recomputed at the returned u,
    and ``error_bound`` = sup |B^-1 |r||, one more solve with B, bounds
    the distance to the discrete solution u*: u - u* = (B + D)^-1 r for a
    diagonal D >= 0 when phi = p rho is nondecreasing in t (p >= 0 and rho
    nondecreasing, the package's standing hypothesis on rho), and
    0 <= (B + D)^-1 <= B^-1 entrywise when B is an M-matrix.  Where p < 0
    somewhere or B breaks the M-matrix sign pattern (centered drift, the
    corner cross scheme) the bound does not hold: ``error_bound`` is then
    inf and the message says so.
    """

    converged: bool
    status: str
    iterations: int
    final_increment: float
    final_residual: float
    identity_residual: float
    error_bound: float
    lambda_max: float
    lambda_refreshes: int
    sup_solution: float
    min_solution: float
    tol: float
    message: str = ""
    method: str = "shifted-picard"
    factorizations: int = 0
    factor_nnz: int = 0
    inner_iterations: int = 0

    def as_dict(self):
        return asdict(self)


def _slope_profile(phi_bound, t_max):
    """Per-point shift: _LAMBDA_SAFETY * max secant slope over a coarse ladder.

    ``t_max`` is a per-point upper end of the working range (iterates
    decrease monotonically, so each point only needs to cover its own
    range); the ladder nodes are _T_FLOOR plus _LADDER_SIZE even steps up
    to t_max, probed per point.
    """
    t_max = np.asarray(t_max, dtype=float)
    collapsed = t_max <= 10.0 * _T_FLOOR
    t_max = np.maximum(t_max, 10.0 * _T_FLOOR)
    fracs = np.linspace(0.0, 1.0, _LADDER_SIZE + 1)[1:]
    prev_t = np.full(t_max.shape, _T_FLOOR)
    prev_v = phi_bound(prev_t)
    lam = np.zeros(t_max.shape)
    # where the iterate has collapsed below the floor the relevant bound is
    # the chord from zero, which for a concave reaction dominates every
    # secant above it; without this the shift undershoots the slope near
    # the zero set and those points never settle
    lam[collapsed] = prev_v[collapsed] / _T_FLOOR
    for frac in fracs:
        t = frac * t_max
        v = phi_bound(t)
        dt = t - prev_t
        ok = dt > 0
        if ok.any():
            slope = np.zeros(t_max.shape)
            slope[ok] = (v[ok] - prev_v[ok]) / dt[ok]
            np.maximum(lam, slope, out=lam)
        # never step the anchor backwards below the floor
        prev_t = np.where(ok, t, prev_t)
        prev_v = np.where(ok, v, prev_v)
    return np.maximum(_LAMBDA_SAFETY * lam, 0.0)


class _ShiftedSolve:
    """Solves with B + diag(lam) for one semilinear solve.

    The path is chosen once, from the lattice dimension and B's exact
    symmetry.  On a 1D or 2D lattice, or for B that is not symmetric, the
    matrix is factored at once.  Otherwise Jacobi-CG runs, and the matrix
    is factored for good once CG breaks down or misses its tolerance
    within n = B.shape[0] iterations.
    """

    def __init__(self, B, lam, dim):
        self.B = B
        self.lu = None
        self.on_lu = dim <= 2 or (B != B.T).nnz > 0
        self.factorizations = 0
        self.factor_nnz = 0
        self.inner_iterations = 0
        self.shift(lam)

    def shift(self, lam):
        """Replace the shift; refactors when already on a factor."""
        self.matrix = self.B + sp.diags(lam)
        if self.on_lu:
            self._factor()
        else:
            self.diag_inv = 1.0 / self.matrix.diagonal()

    def _factor(self):
        # drop a stale factor first, so that one factor is alive at a time
        self.lu = None
        self.lu = _sparse_lu(self.matrix)
        self.on_lu = True
        self.factorizations += 1
        self.factor_nnz += int(self.lu.nnz)

    def solve(self, rhs, x0, tol):
        """x with sup|(B + lam) x - rhs| <= tol on CG, else the LU solve."""
        if not self.on_lu:
            x = self._cg(rhs, x0, tol)
            if x is not None:
                return x
            self._factor()
        return self.lu.solve(rhs)

    def _cg(self, rhs, x0, tol):
        """Warm-started Jacobi-CG; None on breakdown or after n iterations."""
        A = self.matrix
        x = x0.copy()
        r = rhs - A @ x
        converged = np.max(np.abs(r), initial=0.0) <= tol
        z = self.diag_inv * r
        p = z.copy()
        rz = float(r @ z)
        its = 0
        while not converged and its < A.shape[0]:
            its += 1
            q = A @ p
            pq = float(p @ q)
            if not pq > 0.0:  # breakdown: the matrix is not definite
                break
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            if np.max(np.abs(r)) <= tol:
                # the recursive residual drifts from the true one by
                # rounding; replace it and go on when the check misses
                r = rhs - A @ x
                converged = np.max(np.abs(r)) <= tol
            z = self.diag_inv * r
            rz_new = float(r @ z)
            p *= rz_new / rz
            p += z
            rz = rz_new
        self.inner_iterations += its
        return x if converged else None


def _lattice_colours(mask, off):
    """Colour of each interior point such that no two points of one colour
    are coupled by the off-diagonal part ``off`` of B.

    Red-black (parity of the index sum) when that suffices, else the
    parity vector sum_k (i_k mod 2) 2^k, which separates every pair of
    points within one lattice step per axis, cross legs included.
    """
    parity = [i % 2 for i in np.unravel_index(mask.interior_flat, mask.grid.shape)]
    coo = off.tocoo()
    colours = sum(parity) % 2
    if np.any(colours[coo.row] == colours[coo.col]):
        colours = sum(bit << k for k, bit in enumerate(parity))
    return colours


def _pointwise_root(b, p, rho, s, t0, eps):
    """Per entry, t in [0, s/b] with |b t + p rho(t) - s| <= eps, or within
    the rounding of s (_ROUNDING * s) where that is larger.

    Needs b > 0, p >= 0, s > 0 and rho nondecreasing and nonnegative for
    t > 0, so that G(t) = b t + p rho(t) is increasing and G(s/b) >= s.
    Safeguarded secants on the bracket [0, s/b].  The first trial is a
    Newton step from the warm start ``t0`` (s/b where t0 is outside the
    bracket), its slope a forward difference; it settles most entries of a
    sweep, and settled entries leave before any bracket bookkeeping.  Where
    that step leaves the bracket the first trial is the difference point,
    whose secant with the warm start is that step again and so is replaced
    like any trial outside the bracket.
    Each next trial follows the secant through the last two points.  Where
    the bracket spans more than a factor 2 and either has a point below the
    root or the linear secant falls below 0, the secant is taken in log-log
    coordinates, exact for a power of t, so a root decades below the warm
    start is reached in a few steps.  A trial outside the bracket is
    replaced by geometric bisection, or, while no trial has fallen below
    the root, by the chord of G from the origin, moving at least halfway to
    0 (rho(0+) > 0 flattens that chord).  Entries without such a point
    after _ROOT_STEPS trials (rho jumping at 0) return the bracket's upper
    end.
    """
    hi = s / b
    out = hi.copy()
    t0 = np.where((t0 > 0.0) & (t0 < hi), t0, hi)
    t_fd = t0 * (1.0 + 2.0**-26)
    r_fd = b * t_fd + p * rho(t_fd) - s
    r0 = b * t0 + p * rho(t0) - s
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t0 - r0 * (t0 - t_fd) / (r0 - r_fd)
    t = np.where((t > 0.0) & (t < hi), t, t_fd)
    t_prev, r_prev = t0, r0
    lo = np.zeros(t.size)
    # G - s at hi, known once a trial lands at or above the root
    r_hi = np.full(t.size, np.inf)
    gate = np.maximum(eps, _ROUNDING * s)
    todo = np.arange(t.size)
    for _ in range(_ROOT_STEPS):
        r = b * t + p * rho(t) - s
        settle = (np.abs(r) <= gate) | (hi - lo <= 1e-15 * hi)
        if settle.any():
            out[todo[settle]] = t[settle]
            keep = np.flatnonzero(~settle)
            if not keep.size:
                return out
            todo, b, p, s, gate, lo, hi, r_hi, t_prev, r_prev, t, r = (
                a[keep]
                for a in (todo, b, p, s, gate, lo, hi, r_hi, t_prev, r_prev, t, r)
            )
        below = r < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        r_hi = np.where(below, r_hi, r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trial = t - r * (t - t_prev) / (r - r_prev)
            wide = np.flatnonzero((hi > 2.0 * lo) & ((lo > 0.0) | ~(trial > 0.0)))
            if wide.size:
                tw, gw, sw = t[wide], r[wide] + s[wide], s[wide]
                trial[wide] = tw * (sw / gw) ** (
                    np.log(tw / t_prev[wide]) / np.log(gw / (r_prev[wide] + sw))
                )
            out_of = np.flatnonzero(~((trial > lo) & (trial < hi)))
            if out_of.size:
                lo_o, hi_o, s_o = lo[out_of], hi[out_of], s[out_of]
                trial[out_of] = np.where(
                    lo_o > 0.0,
                    np.sqrt(lo_o * hi_o),
                    hi_o * np.minimum(s_o / (r_hi[out_of] + s_o), 0.5),
                )
        t_prev, r_prev, t = t, r, trial
    out[todo] = hi
    return out


class _ExactSweep:
    """One nonlinear Gauss-Seidel sweep of  B u + p rho(u) = A_IB f.

    Colour by colour, every point solves its own scalar equation
    B_ii t + p_i rho(t) = s_i, s_i = (A_IB f - B_off u)_i, exactly
    (``_pointwise_root``); points of one colour never couple, so a colour
    is one row-slice matvec and one vectorized root.  The right side is
    given per call, so one sweep serves the Picard path and every level of
    a FAS cycle.  The result is clamped to ``lower`` as the Picard iterate
    is.  Points with p < 0 are left to Picard, as their scalar equation
    need not be monotone.
    """

    def __init__(self, mask, B, diag, p, rho, eps):
        off = sp.csr_matrix(B - sp.diags(diag))
        off.eliminate_zeros()
        colours = _lattice_colours(mask, off)
        self.rho = rho
        self.eps = eps
        self.parts = []
        for c in np.unique(colours):
            rows = np.flatnonzero((colours == c) & (p >= 0.0))
            self.parts.append((rows, off[rows], diag[rows], p[rows]))

    def __call__(self, u, rhs, lower):
        """Sweep ``u`` in place for the right side ``rhs``."""
        for rows, off, diag, p in self.parts:
            s = rhs[rows] - off @ u
            t = s / diag
            pos = s > 0.0
            # a colour inside a dead core may have no point to solve
            if pos.any():
                t[pos] = _pointwise_root(
                    diag[pos], p[pos], self.rho, s[pos], u[rows[pos]], self.eps
                )
            u[rows] = np.maximum(t, lower)


class _PicardStep:
    """Shifted Picard steps of one solve, with the exact sweep next to a
    dead core.

    Each call solves (B + Lambda) u_new = Lambda u - phi(u) + A_IB f,
    clamps to ``lower`` and, once some shift exceeds B's diagonal, sweeps
    once.  Before every step after a multiple of _REFRESH_EVERY the shift
    is re-estimated from the current iterate.
    """

    method = "shifted-picard"

    def __init__(self, mask, B, phi_b, p, rho, rhs, harm, tol, lower):
        self.mask, self.B, self.phi_b, self.p, self.rho = mask, B, phi_b, p, rho
        self.rhs, self.tol, self.lower = rhs, tol, lower
        self.lam = _slope_profile(phi_b, np.maximum(harm, 0.0))
        self.shifted = _ShiftedSolve(B, self.lam, mask.grid.dim)
        self.refreshes = 0
        self.b_diag = B.diagonal()
        self.sweep = None

    # the report's counters, read off the shifted solves
    factorizations = property(lambda self: self.shifted.factorizations)
    factor_nnz = property(lambda self: self.shifted.factor_nnz)
    inner_iterations = property(lambda self: self.shifted.inner_iterations)

    @property
    def lambda_max(self):
        return float(self.lam.max(initial=0.0))

    def __call__(self, u, k):
        if k > 1 and (k - 1) % _REFRESH_EVERY == 0:
            self._refresh(u)
        u_new = self.shifted.solve(self.lam * u - self.phi_b(u) + self.rhs, u, self.tol)
        if not np.all(np.isfinite(u_new)):
            raise SolverBreakdownError(f"non-finite iterate at step {k}")
        np.maximum(u_new, self.lower, out=u_new)
        # the exact sweep joins in once some shift exceeds B's diagonal, as
        # it does next to a dead core; elsewhere the solve is plain Picard
        if self.sweep is None and np.any(self.lam > self.b_diag):
            self.sweep = _ExactSweep(
                self.mask, self.B, self.b_diag, self.p, self.rho, self.tol / _ROOT_SHARE
            )
        if self.sweep is not None:
            self.sweep(u_new, self.rhs, self.lower)
        return u_new

    def _refresh(self, u):
        # the iterates only decrease, so shifts fitted to the current
        # per-point range stay valid except near a zero set, where the
        # needed shift grows as the iterate collapses; refactor when any
        # point needs more, or when the shifts shrink enough to pay for
        # the factorization
        lam = self.lam
        lam_new = _slope_profile(self.phi_b, np.maximum(u, 0.0))
        old_max = float(lam.max(initial=0.0))
        old_mean = float(lam.mean()) if lam.size else 0.0
        if np.any(lam_new > 1.05 * lam):
            np.maximum(lam, lam_new, out=lam)
        elif (
            float(lam_new.max(initial=0.0)) <= 0.5 * old_max
            or (lam.size and float(lam_new.mean()) <= 0.5 * old_mean)
        ):
            self.lam = lam_new
        else:
            return
        self.shifted.shift(self.lam)
        self.refreshes += 1


def _fas_sides(mask):
    """Interior sides of every FAS level, finest first, or None when the
    lattice does not coarsen: it must be 2D, its interior a full
    rectangular block, and every side odd under m -> (m - 1) / 2 until it
    is at most _COARSEST_SIDE, where that side stops coarsening.
    """
    if mask.grid.dim != 2:
        return None
    idx = np.unravel_index(mask.interior_flat, mask.grid.shape)
    sides = tuple(int(i.max() - i.min()) + 1 for i in idx)
    if int(np.prod(sides)) != mask.n_interior:
        return None
    levels = [sides]
    while max(sides) > _COARSEST_SIDE:
        if any(m > _COARSEST_SIDE and m % 2 == 0 for m in sides):
            return None
        sides = tuple((m - 1) // 2 if m > _COARSEST_SIDE else m for m in sides)
        levels.append(sides)
    return levels


def _axis_transfer(m, m_coarse):
    """Full weighting from m interior points of one axis to the m_coarse =
    (m - 1) / 2 at its odd points, with those points' indices; the
    identity where the axis does not coarsen."""
    if m_coarse == m:
        return sp.identity(m, format="csr"), np.arange(m)
    j = np.arange(m_coarse)
    full = sp.csr_matrix(
        (np.tile([0.25, 0.5, 0.25], m_coarse),
         (np.repeat(j, 3), (2 * j[:, None] + np.arange(3)).ravel())),
        shape=(m_coarse, m),
    )
    return full, 2 * j + 1


class _FasCycle:
    """FAS V-cycles (Brandt 1977) of one solve on a 2D box hierarchy.

    Level 0 is the solve's own B and reaction.  Each coarser level is the
    operator re-assembled with the same coefficients and scheme on the box
    whose interior sides ``_fas_sides`` gives, over the same bounds, so
    drift and variable a or c coarsen too; its density is the injected p.
    Residuals restrict by full weighting, a Kronecker product of 1D
    weightings, and corrections prolong by its scaled transpose, the
    bilinear interpolation; iterates and p restrict by injection.
    ``_ExactSweep`` smooths on every level, and a corrected iterate is
    clamped to ``lower`` before its post-sweeps.
    """

    method = "fas"
    lambda_max = 0.0
    refreshes = inner_iterations = factorizations = factor_nnz = 0

    def __init__(self, op, sides, B, phi_b, p, rho, rhs, eps, lower):
        grid = op.mask.grid
        idx = np.unravel_index(op.mask.interior_flat, grid.shape)
        # the interior block with its boundary layer, which every level spans
        bounds = [
            (grid.axis(k)[i.min() - 1], grid.axis(k)[i.max() + 1])
            for k, i in enumerate(idx)
        ]
        self.rhs, self.lower = rhs, lower
        self.levels = []
        mask, react = op.mask, phi_b
        for fine, coarse in zip(sides, sides[1:] + [None]):
            sweep = _ExactSweep(mask, B, B.diagonal(), p, rho, eps)
            if coarse is None:
                self.levels.append((B, react, sweep, None))
                break
            axes = [_axis_transfer(m, mc) for m, mc in zip(fine, coarse)]
            full = axes[0][0]
            for weights, _ in axes[1:]:
                full = sp.kron(full, weights, format="csr")
            # d-linear prolongation is R^T times 2 per axis that coarsens
            halved = sum(mc < m for m, mc in zip(fine, coarse))
            prolong = sp.csr_matrix(full.T * 2.0**halved)
            inject = np.ravel_multi_index(np.ix_(*(odd for _, odd in axes)), fine).ravel()
            self.levels.append((B, react, sweep, (full, inject, prolong)))
            mask = box_mask(build_grid(grid.dim, [m + 2 for m in coarse], bounds))
            # the coefficients were audited, or not, where op was assembled
            coarse_op = assemble(mask, op.coeffs, op.scheme, validate=False)
            B = sp.csr_matrix(-coarse_op.interior_matrix)
            p = p[inject]
            react = _vanishing(p.size, lambda pos, t, p=p: p[pos] * rho(t))

    def __call__(self, u, k):
        u = u.copy()
        self._cycle(0, u, self.rhs)
        if not np.all(np.isfinite(u)):
            raise SolverBreakdownError(f"non-finite iterate at cycle {k}")
        return u

    def _cycle(self, level, u, rhs):
        B, react, sweep, transfers = self.levels[level]
        if transfers is None:
            for _ in range(_COARSEST_SWEEPS):
                sweep(u, rhs, self.lower)
            return
        for _ in range(_PRE_SWEEPS):
            sweep(u, rhs, self.lower)
        full, inject, prolong = transfers
        B_c, react_c = self.levels[level + 1][:2]
        u_c = u[inject]
        # the FAS coarse right side: the restricted residual plus the coarse
        # operator at the injected iterate, so the coarse solve moves u_c
        # by the correction the fine level needs
        rhs_c = B_c @ u_c + react_c(u_c) + full @ (rhs - B @ u - react(u))
        v = u_c.copy()
        self._cycle(level + 1, v, rhs_c)
        u += prolong @ (v - u_c)
        np.maximum(u, self.lower, out=u)
        for _ in range(_POST_SWEEPS):
            sweep(u, rhs, self.lower)


def solve_semilinear_dirichlet(op, phi, boundary, params=None):
    """Solve  L u = phi(., u)  in the interior with u = f on the boundary.

    Returns ``(field, report)``.  The report carries the increment and
    residual actually reached plus the defect of the decomposition
    identity  (harmonic extension) = u + (Green potential of phi(., u)),
    which is an independent certificate of the computed solution.  A solve
    that does not converge raises ``NonConvergenceError`` with both.
    """
    if params is None:
        params = SemilinearParams()
    t_start = time.perf_counter()
    mask = op.mask
    f = boundary_values(mask, boundary)
    pts = mask.interior_points()
    phi_b = phi.bind(pts)

    B = sp.csc_matrix(-op.interior_matrix)
    rhs_b = op.boundary_matrix @ f
    fresh = not op.is_factored
    harm = op.solve(rhs_b)
    if not np.all(np.isfinite(harm)):
        raise SolverBreakdownError("harmonic extension is not finite")
    # the operator's own factor counts when the harmonic extension built it
    factorizations = factor_nnz = 0
    if fresh and op.is_factored:
        factorizations, factor_nnz = 1, int(op.factor().nnz)

    message = ""
    if f.size and float(f.min()) < 0:
        message = "boundary data has negative values; monotonicity not guaranteed"

    p_vals = values_at(phi.p, pts)
    # solutions cannot dip below the boundary minimum (or zero, whichever
    # is smaller): where u < 0 the reaction vanishes and u is L-harmonic,
    # so the discrete minimum principle applies; clamping to this bound
    # removes sub-floor negative excursions at the reaction's zero set
    lower = min(0.0, float(f.min())) if f.size else 0.0
    # B is nonsingular, so its M-matrix sign pattern and weak diagonal
    # dominance make B^-1 >= 0 (check_m_matrix audits the same pattern);
    # with p >= 0 this carries the error bound (see SolveReport), and on a
    # lattice that coarsens it chooses the FAS path
    positive_diagonal, max_off, rowsum, sign_tol = _sign_pattern(B)
    monotone = (
        positive_diagonal
        and max_off <= sign_tol
        and float(rowsum.min(initial=0.0)) >= -sign_tol
        and float(p_vals.min(initial=0.0)) >= 0.0
    )
    sides = _fas_sides(mask) if monotone else None
    if sides is None:
        step = _PicardStep(mask, B, phi_b, p_vals, phi.rho, rhs_b, harm, params.tol, lower)
    else:
        step = _FasCycle(
            op, sides, B, phi_b, p_vals, phi.rho, rhs_b, params.tol / _ROOT_SHARE, lower
        )

    u = harm.copy()
    inc = np.inf
    converged = stalled = False
    inc_hist = []
    k = 0
    while k < params.max_iterations:
        k += 1
        u_new = step(u, k)
        inc = float(np.max(np.abs(u_new - u)))
        u = u_new
        if inc <= params.tol:
            phi_u = phi_b(u)
            r = np.abs(B @ u + phi_u - rhs_b)
            res = float(np.max(r, initial=0.0))
            converged = res <= 10.0 * params.tol
            if not converged and params.tol > 0.0:
                # each row is held to its own rounding floor, never to
                # that of a larger row
                terms = abs(B) @ np.abs(u) + np.abs(phi_u) + np.abs(rhs_b)
                ratio = float(np.max(r / np.maximum(10.0 * params.tol, _ROUNDING * terms)))
                if ratio <= 1.0:
                    converged = True
                    message = (
                        f"residual {res:.3e} met the rounding floor of its rows "
                        f"(worst |r_i| / floor_i {ratio:.2f}), not 10 * tol"
                        + (f"; {message}" if message else "")
                    )
            if converged:
                break
        inc_hist.append(inc)
        if (
            inc <= _T_FLOOR
            and len(inc_hist) > _STALL_WINDOW
            and inc >= 0.95 * inc_hist[-1 - _STALL_WINDOW]
        ):
            # a flat small increment that never meets the gates ends the
            # solve unconverged (slow geometric convergence still decays
            # clearly over the window and keeps iterating); the stagnation
            # text stays first, as reports are classified by it
            message = (
                "increment stagnated at "
                f"{inc:.3e}; values below the slope floor are unresolved"
                + (f"; {message}" if message else "")
            )
            stalled = True
            break
    status = "converged" if converged else "stagnated" if stalled else "failed"

    factorizations += step.factorizations
    factor_nnz += step.factor_nnz
    phi_u = phi_b(u)
    r = B @ u + phi_u - rhs_b
    res = float(np.max(np.abs(r), initial=0.0))
    # why this bounds |u - u*|, and when it does: see SolveReport
    if not monotone:
        # appended, as reports are classified by the message's start
        error_bound = np.inf
        note = "no error bound: B is not an M-matrix or p < 0 somewhere"
        message = f"{message}; {note}" if message else note
    else:
        error_bound = float(np.max(op.solve(np.abs(r)), initial=0.0))
    gphi = op.solve(phi_u)
    identity_residual = float(np.max(np.abs(harm - u - gphi), initial=0.0))

    report = SolveReport(
        converged=converged,
        status=status,
        iterations=k,
        final_increment=inc,
        final_residual=res,
        identity_residual=identity_residual,
        error_bound=error_bound,
        lambda_max=step.lambda_max,
        lambda_refreshes=step.refreshes,
        sup_solution=float(u.max(initial=0.0)),
        min_solution=float(u.min(initial=0.0)),
        tol=params.tol,
        message=message,
        method=step.method,
        factorizations=factorizations,
        factor_nnz=factor_nnz,
        inner_iterations=step.inner_iterations,
    )
    log.debug(
        "solve: %s (%s) after %d iterations, %d factorizations (fill %d), "
        "%d CG iterations, error bound %.3e, %.3f s%s",
        status,
        step.method,
        k,
        factorizations,
        factor_nnz,
        step.inner_iterations,
        error_bound,
        time.perf_counter() - t_start,
        f"; {message}" if message else "",
    )
    field = Field.from_active(mask, u, f)
    if not converged:
        raise NonConvergenceError(
            f"no convergence in {k} iterations "
            f"(increment {inc:.3e}, residual {res:.3e})"
            + (f"; {message}" if message else ""),
            report=report,
            field=field,
        )
    return field, report


def solve_linear_reaction(op, density, boundary):
    """Solve the linear problem  L u = q(x) u  with u = f on the boundary.

    Requires q >= 0 so the shifted matrix keeps its sign structure.
    """
    mask = op.mask
    q = interior_values(mask, density)
    if np.any(q < 0):
        raise ValueError("linear reaction density must be nonnegative")
    f = boundary_values(mask, boundary)
    B = -op.interior_matrix + sp.diags(q)
    u = _sparse_lu(B).solve(op.boundary_matrix @ f)
    if not np.all(np.isfinite(u)):
        raise SolverBreakdownError("linear-reaction solve produced non-finite values")
    return Field.from_active(mask, u, f)


# defect counted as zero: well above the 10 * tol residual of a solve
# converged at the default tol, so a computed solution classifies as one
_CLASSIFY_TOL = 1e-8


@dataclass
class SupSubClassification:
    """Sign audit of the defect  L u - phi(., u)  over the interior."""

    verdict: str
    max_defect: float
    min_defect: float
    tol: float


def classify_super_sub(op, phi, field):
    """Classify a field as solution / supersolution / subsolution / neither.

    A supersolution satisfies  L u <= phi(., u)  (defect <= 0 up to
    _CLASSIFY_TOL); a subsolution the reverse; within _CLASSIFY_TOL on
    both sides it counts as a solution.
    """
    if not field.mask.same_as(op.mask):
        raise ValueError("field and operator live on different masks")
    pts = field.mask.interior_points()
    u_int = field.interior()
    defect = op.apply(field.values) - phi(pts, u_int)
    hi = float(defect.max(initial=0.0))
    lo = float(defect.min(initial=0.0))
    tol = _CLASSIFY_TOL
    if hi <= tol and lo >= -tol:
        verdict = "solution"
    elif hi <= tol:
        verdict = "supersolution"
    elif lo >= -tol:
        verdict = "subsolution"
    else:
        verdict = "neither"
    return SupSubClassification(verdict, hi, lo, tol)
