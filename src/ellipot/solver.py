"""Monotone solution of the semilinear Dirichlet problem  L u = phi(., u).

The scheme is a shifted Picard iteration started at the harmonic
extension of the boundary data: with B = -A_II and a diagonal shift
Lambda chosen at least as large as the steepest secant slope of phi over
the working range,

    (B + Lambda) u_{k+1} = Lambda u_k - phi(u_k) + A_IB f.

Because B is an M-matrix and t -> Lambda t - phi(t) is nondecreasing, the
iterates decrease monotonically from the harmonic extension and stay
nonnegative for nonnegative data, so the limit is the largest solution
below the harmonic extension; convergence is geometric.  The constants
below fix how the shift is estimated and refreshed and when a stalled
run is accepted.

Linear algebra.  The harmonic extension and the identity certificate
are solves with B through ``AssembledOperator.solve``: on a full box with
constant coefficients and no drift or cross terms, two type-I discrete
sine transforms; elsewhere the operator's cached SuperLU factor
(minimum-degree ordering of A^T + A, see ``operators._sparse_lu``), so an
operator reused across solves is factored at most once.  The shifted
systems with B + Lambda are solved without a factor while that is
cheaper: when B is exactly symmetric, each step runs Jacobi-preconditioned
CG warm-started from the current iterate, to the absolute sup-norm
residual tol (a tenth of the 10 * tol equation gate; at the fixed point of
the inexact map the equation residual equals the inner one), checked on
the true residual.  A work ledger in multiply-adds, priced by the fill of
a factor of B (read off the operator's factor, or estimated from the box
lattice when B is solved by DST), sums the CG work in excess of triangular
solves; once one more iteration would push that excess past the cost of a
factorization, B + Lambda is factored and the solve stays on that factor,
refactoring at each shift refresh.  The rule uses no timing, so equal
inputs take equal paths.  Non-symmetric B is factored from the start.
The report counts the factorizations a solve built, their fill and its CG
iterations, and each solve logs one DEBUG line on the ``ellipot.solver``
logger.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonConvergenceError, SolverBreakdownError
from .operators import _sparse_lu
from .potentials import Field, boundary_values, interior_values

log = logging.getLogger(__name__)

# Slopes are probed down to _T_FLOOR: for reactions with unbounded slope
# at zero (fractional powers) the secant from the floor replaces the
# derivative.  Values below it are unresolved, and points straddling the
# zero set can keep flickering at that scale, so a run whose increment
# stays flat at or below _T_FLOOR over _STALL_WINDOW steps is accepted,
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
# nnz(LU) of SuperLU's factor of B on a box with n interior points, as
# coef * n**power per dimension; the ledger prices factors with it on
# boxes, whose B is solved by DST and has no factor to read the fill off.
# Fitted within 7% to fills measured on box interiors: 2D 31^2 / 63^2 /
# 127^2 / 255^2 give 25,498 / 126,628 / 657,020 / 3,382,288, 3D 7^3 /
# 15^3 / 23^3 / 31^3 give 16,182 / 483,686 / 3,459,696 / 15,048,832; 1D
# is about 4 n.
_BOX_FILL = {1: (4.0, 1.0), 2: (8.7, 1.16), 3: (2.0, 1.53)}


@dataclass
class SemilinearParams:
    """Settings of one semilinear solve.

    tol : convergence requires the sup-norm increment <= tol and the
        equation residual <= 10 * tol.
    """

    tol: float = 1e-10
    max_iterations: int = 200000
    raise_on_fail: bool = True


@dataclass
class SolveReport:
    """Outcome of one semilinear solve.

    ``factorizations`` counts the sparse LUs the solve built: the
    operator's own factor when it was not cached yet (never on a box whose
    B is solved by DST, so 0 there unless the shifted matrix is factored),
    plus the shifted matrix once the solve switched to a factor and again
    at each later refresh (from the start when B is not symmetric).
    ``factor_nnz`` sums their fill as SuperLU reports it
    (``SuperLU.nnz``).
    ``inner_iterations`` counts the CG iterations of the shifted solves,
    including those of an attempt abandoned for a factor; it is 0 on a
    pure LU path.
    """

    converged: bool
    iterations: int
    final_increment: float
    final_residual: float
    identity_residual: float
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

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent)


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

    Jacobi-CG runs while a work ledger, in multiply-adds, says it is
    cheaper than a factor: a factorization costs about nnz(LU)^2 / n, a
    triangular solve nnz(LU) and a CG iteration nnz(B + lam) + 5 n, with
    nnz(LU) the fill of a factor of B: measured on the operator's factor,
    or _BOX_FILL on a box solved by DST.  Once one more iteration would
    push the summed excess of CG over triangular solves past the
    factorization cost, the matrix is factored for good.  B that is not
    exactly symmetric is factored from the start.
    """

    def __init__(self, B, lam, lu_nnz):
        self.B = B
        self.n = B.shape[0]
        self.factor_work = lu_nnz * lu_nnz / self.n
        self.tri_work = lu_nnz
        self.excess = 0.0
        self.lu = None
        self.on_lu = (B != B.T).nnz > 0
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
            self.cg_work = self.matrix.nnz + 5 * self.n

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
        """Warm-started Jacobi-CG within the ledger; None once it runs out."""
        A = self.matrix
        budget = int((self.factor_work + self.tri_work - self.excess) // self.cg_work)
        x = x0.copy()
        r = rhs - A @ x
        converged = np.max(np.abs(r), initial=0.0) <= tol
        z = self.diag_inv * r
        p = z.copy()
        rz = float(r @ z)
        its = 0
        while not converged and its < budget:
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
        if not converged:
            return None
        self.excess += its * self.cg_work - self.tri_work
        return x


def solve_semilinear_dirichlet(op, phi, boundary, params=None):
    """Solve  L u = phi(., u)  in the interior with u = f on the boundary.

    Returns ``(field, report)``.  The report carries the increment and
    residual actually reached plus the defect of the decomposition
    identity  (harmonic extension) = u + (Green potential of phi(., u)),
    which is an independent certificate of the computed solution.
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
    # the fill that prices a factor in the ledger; it follows the path
    # op.solve takes, not whether some caller already factored B
    if op.solves_by_dst:
        coef, power = _BOX_FILL[min(mask.grid.dim, 3)]
        lu_nnz = coef * mask.n_interior**power
    else:
        lu_nnz = int(op.factor().nnz)
    # the operator's own factor counts when the harmonic extension built it
    factorizations, factor_nnz = (1, lu_nnz) if fresh and op.is_factored else (0, 0)

    message = ""
    if f.size and float(f.min()) < 0:
        message = "boundary data has negative values; monotonicity not guaranteed"

    lam = _slope_profile(phi_b, np.maximum(harm, 0.0))
    shifted = _ShiftedSolve(B, lam, lu_nnz)
    refreshes = 0

    # solutions cannot dip below the boundary minimum (or zero, whichever
    # is smaller): where u < 0 the reaction vanishes and u is L-harmonic,
    # so the discrete minimum principle applies; clamping to this bound
    # removes sub-floor negative excursions at the reaction's zero set
    lower = min(0.0, float(f.min())) if f.size else 0.0

    u = harm.copy()
    inc = np.inf
    res = np.inf
    converged = False
    inc_hist = []
    k = 0
    while k < params.max_iterations:
        k += 1
        u_new = shifted.solve(lam * u - phi_b(u) + rhs_b, u, params.tol)
        if not np.all(np.isfinite(u_new)):
            raise SolverBreakdownError(f"non-finite iterate at step {k}")
        np.maximum(u_new, lower, out=u_new)
        inc = float(np.max(np.abs(u_new - u)))
        u = u_new
        if inc <= params.tol:
            res = float(np.max(np.abs(B @ u + phi_b(u) - rhs_b)))
            if res <= 10.0 * params.tol:
                converged = True
                break
        inc_hist.append(inc)
        if (
            inc <= _T_FLOOR
            and len(inc_hist) > _STALL_WINDOW
            and inc >= 0.95 * inc_hist[-1 - _STALL_WINDOW]
        ):
            # a genuinely flat small increment means the flickering is
            # confined to the unresolved zero-set ring; slow geometric
            # convergence still shows clear decay over the window and
            # keeps iterating
            converged = True
            # the stagnation text stays first: reports are classified by it
            message = (
                "increment stagnated at "
                f"{inc:.3e}; values below the slope floor are unresolved"
                + (f"; {message}" if message else "")
            )
            break
        if k % _REFRESH_EVERY == 0:
            # the iterates only decrease, so shifts fitted to the current
            # per-point range stay valid except near a zero set, where the
            # needed shift grows as the iterate collapses; refactor when
            # any point needs more, or when the shifts shrink enough to
            # pay for the factorization
            lam_new = _slope_profile(phi_b, np.maximum(u, 0.0))
            old_max = float(lam.max(initial=0.0))
            old_mean = float(lam.mean()) if lam.size else 0.0
            if np.any(lam_new > 1.05 * lam):
                np.maximum(lam, lam_new, out=lam)
                shifted.shift(lam)
                refreshes += 1
            elif (
                float(lam_new.max(initial=0.0)) <= 0.5 * old_max
                or (lam.size and float(lam_new.mean()) <= 0.5 * old_mean)
            ):
                lam = lam_new
                shifted.shift(lam)
                refreshes += 1

    if not np.isfinite(res):
        res = float(np.max(np.abs(B @ u + phi_b(u) - rhs_b)))

    factorizations += shifted.factorizations
    factor_nnz += shifted.factor_nnz
    gphi = op.solve(phi_b(u))
    identity_residual = float(np.max(np.abs(harm - u - gphi), initial=0.0))

    report = SolveReport(
        converged=converged,
        iterations=k,
        final_increment=inc,
        final_residual=res,
        identity_residual=identity_residual,
        lambda_max=float(lam.max(initial=0.0)),
        lambda_refreshes=refreshes,
        sup_solution=float(u.max(initial=0.0)),
        min_solution=float(u.min(initial=0.0)),
        tol=params.tol,
        message=message,
        factorizations=factorizations,
        factor_nnz=factor_nnz,
        inner_iterations=shifted.inner_iterations,
    )
    log.debug(
        "solve: %s after %d iterations, %d factorizations (fill %d), "
        "%d CG iterations, %.3f s%s",
        "converged" if converged else "not converged",
        k,
        factorizations,
        factor_nnz,
        shifted.inner_iterations,
        time.perf_counter() - t_start,
        f"; {message}" if message else "",
    )
    if not converged and params.raise_on_fail:
        raise NonConvergenceError(
            f"no convergence in {k} iterations "
            f"(increment {inc:.3e}, residual {res:.3e})",
            iterations=k,
            final_increment=inc,
        )
    return Field.from_active(mask, u, f), report


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
