"""Solution of the semilinear Dirichlet problem  L u = phi(., u).

With B = -A_II and phi = p rho, the discrete problem is
F(u) = B u + phi(u) = A_IB f at the interior points.  Every lattice,
box, disc, ball or predicate mask in any dimension, solves it by Full
Approximation Scheme V-cycles started at the harmonic extension of the
boundary data (Brandt, Multi-level adaptive solutions to boundary-value
problems, Math. Comp. 31, 1977; Brandt and Cryer, SIAM J. Sci. Stat.
Comput. 4, 1983, for the free boundary that the edge of a dead core is).

Smoother.  Every level sweeps by nonlinear Gauss-Seidel (nonlinear SOR
for M-functions, Ortega and Rheinboldt, Iterative Solution of Nonlinear
Equations in Several Variables, ch. 13): colour by colour on the lattice
parity, every point solves its scalar equation B_ii t + p_i rho(t) = s_i.
The root is inexact, as a FAS smoother may be (Brandt 1977): it stops
once its residual is within tol / 100, or within _FORCING = 0.1 times
B_ii times its last step where that is larger, so it lies within a tenth
of that step of the exact root.  Early sweeps, whose right sides
are far from converged, stop at a rough root, and the gate falls back to
tol / 100 as the updates vanish, so the gates, the error bound and the
certificate below are those of exact roots.  A point with
0 < s_i <= tol / 100 takes t = 0 exactly, so a dead core holds exact
zeros.  The sweep converges where p >= 0 and B has a positive diagonal
and either the M-matrix sign pattern, which makes F an M-function, or
symmetry, which for the positive definite B of an elliptic operator
makes F the gradient of a strictly convex functional and the sweep
coordinate descent (the corner cross scheme with constant a).  Any
other input, a signed p or centered drift at a cell Peclet number above
2, raises ``ValueError`` before any work is done.

Hierarchy.  It is built by the first solve on an operator and kept on
it, so later solves, such as the boundary sweep of one cube, rebuild
only the restricted density p (``_FasHierarchy``, ``_FasCycle``).  It
lies on the bounding block of the interior: each coarser level
re-assembles the operator's coefficients and scheme on a block of about
half the side, until every side is at most _COARSEST_SIDE.  An odd side
m keeps every other point, (m - 1) / 2 of them over the same bounds;
residuals restrict by full weighting and iterates by injection.  An even
side keeps the midpoints of fine pairs, cell-centred style (Trottenberg,
Oosterlee and Schueller, Multigrid, 2001), over bounds moved by half a
fine step; residuals restrict by the transpose of linear interpolation
and iterates by pair means (``_fas_sides``, ``_axis_transfer``).  A
coarse point is interior when every fine point that its iterate
restriction reads is interior, and the transfers are sliced to the
interiors; on a box every point is, and nothing is sliced.  Corrections
prolong d-linearly and are clamped to the lower bound of the solution.

Gates.  Convergence is declared on the increment and the recomputed
residual; the budget counts V-cycles.  A cycle whose increment is not
smaller than the previous one's is flat: the solve has stopped
contracting, and unless the gates are met at that cycle it ends there as
stagnated, not converged.  With large boundary data the increment goes
flat at the rounding of the iterate, above tol; where the residual then
meets its rounding floor and B is an M-matrix, an increment within the
error bound of the iterate is accepted (``SemilinearParams``).  The
constants below fix how the pointwise roots stop and the shape of a cycle.

Linear algebra.  The harmonic extension, the identity certificate and the
error bound are solves with B through ``AssembledOperator.solve``: on a
full box with constant coefficients and no drift or cross terms, two
type-I discrete sine transforms; elsewhere the operator's cached SuperLU
factor (minimum-degree ordering of A^T + A, see ``operators._sparse_lu``),
so an operator reused across solves is factored at most once.  A cycle
needs no solve: a sweep is, per colour, one matrix-vector product with
the colour's rows of B's off-diagonal part.  The report counts the
factorizations a solve built, at most the operator's own, and their
fill, and each solve logs one DEBUG line on the ``ellipot.solver``
logger, which also says whether the solve built the hierarchy or reused
it, and what it cost to build.
"""
from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonConvergenceError, SolverBreakdownError
from .geometry import BOUNDARY, INTERIOR, DomainMask, build_grid, values_at
from .nonlinearity import _vanishing
from .operators import _sign_pattern, _sparse_lu, assemble
from .potentials import Field, boundary_values, interior_values

log = logging.getLogger(__name__)

# the pointwise roots of the Gauss-Seidel sweep stop at |g| <= tol /
# _ROOT_SHARE, or after _ROOT_STEPS trials where rho jumps at t = 0 (an
# affine offset) and no such point exists
_ROOT_SHARE = 100.0
_ROOT_STEPS = 60
# ... and a sweep's root also stops once |g| <= _FORCING * B_ii * |t - t'|,
# t' its previous trial, so its error is at most _FORCING times its last
# step, as a FAS smoother may be inexact (Brandt 1977): any value from
# 0.03 to 0.5 kept the V-cycle counts of the seed-0 benchmark workloads,
# and at 0.1 no root of dichotomy3d's sweeps takes a second trial
_FORCING = 0.1
# a residual row is computed to within a few units in the last place of
# its largest terms, so no iterate meets an equation gate below
# _ROUNDING * (|B| |u| + |phi(u)| + |A_IB f|)_i in row i; for a positive
# tol a row whose gate 10 * tol lies below its floor is held to the floor
# (large boundary data), and a pointwise root stops within _ROUNDING * s
# of its right side s
_ROUNDING = 4.0 * np.finfo(float).eps
# a FAS V-cycle sweeps _PRE_SWEEPS times before each coarse correction and
# _POST_SWEEPS times after it: V(1, 1) takes 10 to 11 cycles on 127^2
# dead-core boxes against 8 to 9 for V(2, 2), and about 20% less time; on
# 25^3 boxes it takes 14 to 18 cycles, and V(2, 1), V(1, 2) and V(2, 2)
# take fewer but no less time
_PRE_SWEEPS = 1
_POST_SWEEPS = 1
# a side stops coarsening at _COARSEST_SIDE points or fewer, and the
# coarsest level (at most 3^d points) gets _COARSEST_SWEEPS
# sweeps: on 2D dead-core, drift, cross-term and linear boxes 5 gave the
# cycle counts of 40, and 3 added cycles; on 25^3 boxes 10 took longer
_COARSEST_SIDE = 3
_COARSEST_SWEEPS = 5


@dataclass(frozen=True)
class SemilinearParams:
    """Settings of one semilinear solve.

    tol : convergence requires the sup-norm increment <= tol and, in
        every row, the equation residual <= 10 * tol, or, for tol > 0,
        <= that row's rounding floor when it is larger (``_ROUNDING``);
        tol = 0 asks for an exact solve and ends as stagnated.  Where a
        row needs its floor and the increment has stopped shrinking, as
        it does at a few units in the last place of large iterates, an
        increment above tol is accepted when it is within sup |B^-1 |r||,
        the iterate's certified distance to the discrete solution (see
        ``SolveReport``; only where that bound holds).  Finite and >= 0.
    max_iterations : the budget of V-cycles, at least 1.

    Other values raise ``ValueError``; checked settings are frozen.  A
    solve that misses the gates within the budget, or at a cycle that does
    not shrink the increment, raises ``NonConvergenceError`` carrying its
    report and iterate.
    """

    tol: float = 1e-10
    max_iterations: int = 200000

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol: must be finite and >= 0, got {self.tol!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be >= 1, got {self.max_iterations}")


@dataclass
class SolveReport:
    """Outcome of one semilinear solve.

    ``iterations`` counts V-cycles, and ``method`` reads "fas", the one
    path (module docstring).  ``factorizations`` is 1 when the solve built
    the operator's own sparse LU, which it needs off the DST boxes (drift,
    variable coefficients, masks) and only when no earlier solve cached
    it, and 0 otherwise; ``factor_nnz`` is that factor's fill as SuperLU
    reports it (``SuperLU.nnz``).  ``lambda_max`` and ``lambda_refreshes``
    always read 0: no shift is estimated, and the fields stay so that
    reports keep their keys.
    ``converged`` is True only when both gates of ``SemilinearParams.tol``
    were met, and a solve returns only such reports; an unconverged one
    rides on the ``NonConvergenceError`` the solve raises.  ``status``
    says how the loop ended: "converged", "stagnated" (a cycle missed the
    gates without shrinking the increment; ``message`` then starts
    "increment stagnated") or "failed" (the budget ran out).
    ``final_residual`` is the sup-norm of r = B u + phi(u) - A_IB f at the
    returned u, and ``error_bound`` = sup |B^-1 |r||, one more solve with
    B, bounds the distance to the discrete solution u*: u - u* =
    (B + D)^-1 r for a diagonal D >= 0 when phi = p rho is nondecreasing
    in t (p >= 0 and rho nondecreasing, the package's standing hypothesis
    on rho), and 0 <= (B + D)^-1 <= B^-1 entrywise when B is an M-matrix.
    Where a symmetric B breaks the M-matrix sign pattern (the corner
    cross scheme) the bound does not hold: ``error_bound`` is then inf
    and the message says so.
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
    method: str = "fas"
    factorizations: int = 0
    factor_nnz: int = 0

    def as_dict(self):
        return asdict(self)


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


def _colour_rows(mask, B):
    """Per colour of ``_lattice_colours``: its rows, their slice of the
    off-diagonal part of B and their diagonal, what ``_GaussSeidelSweep`` needs
    of one level."""
    diag = B.diagonal()
    off = sp.csr_matrix(B - sp.diags(diag))
    off.eliminate_zeros()
    colours = _lattice_colours(mask, off)
    rows = [np.flatnonzero(colours == c) for c in np.unique(colours)]
    return [(r, off[r], diag[r]) for r in rows]


def _pointwise_root(b, p, rho, s, t0, eps, forcing=0.0):
    """Per entry, t in [0, s/b] whose residual G(t) - s, G(t) = b t + p rho(t),
    is within max(eps, _ROUNDING * s, forcing * b * |t - t'|), with t' the
    trial before t (for the first trial the warm start, moved into the
    bracket).

    Needs b > 0, p >= 0, s > 0 and rho nondecreasing and nonnegative for
    t > 0, so that G is increasing, G' >= b and G(s/b) >= s.  A returned t
    then lies within max(eps, _ROUNDING * s) / b of the root, or within
    forcing * |t - t'| of it, at most forcing * s / b since t and t' lie in
    the bracket.  With forcing 0 the root is exact to eps, or
    to the rounding of s where that is larger.  With 0 < forcing < 1 its
    error shrinks with the last step, so early sweeps, whose right sides
    are still far off, stop at a rough root and the gate tightens to eps
    as the iterate settles.
    Safeguarded secants on the bracket [0, s/b].  The first trial is a
    Newton step from the warm start ``t0`` (s/b where t0 is outside the
    bracket), its slope a forward difference; it settles most entries of a
    sweep, and a call whose entries all settle there returns before any
    bracket bookkeeping is allocated.  Where that step leaves the bracket
    the first trial is the difference point, whose secant with the warm
    start is that step again and so is replaced like any trial outside the
    bracket.
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
    t0 = np.where((t0 > 0.0) & (t0 < hi), t0, hi)
    t_fd = t0 * (1.0 + 2.0**-26)
    r_fd = b * t_fd + p * rho(t_fd) - s
    r0 = b * t0 + p * rho(t0) - s
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t0 - r0 * (t0 - t_fd) / (r0 - r_fd)
    t = np.where((t > 0.0) & (t < hi), t, t_fd)
    r = b * t + p * rho(t) - s
    floor = np.maximum(eps, _ROUNDING * s)
    settle = np.abs(r) <= np.maximum(floor, forcing * b * np.abs(t - t0))
    if settle.all():
        # most calls of a sweep end here, on the first trial
        return t
    out = t.copy()
    todo = np.flatnonzero(~settle)
    b, p, s, floor, hi, t_prev, r_prev, t, r = (
        a[todo] for a in (b, p, s, floor, hi, t0, r0, t, r)
    )
    lo = np.zeros(todo.size)
    # G - s at hi, known once a trial lands at or above the root
    r_hi = np.full(todo.size, np.inf)
    for _ in range(_ROOT_STEPS - 1):
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
        r = b * t + p * rho(t) - s
        gate = np.maximum(floor, forcing * b * np.abs(t - t_prev))
        settle = (np.abs(r) <= gate) | (hi - lo <= 1e-15 * hi)
        if settle.all():
            out[todo] = t
            return out
        if settle.any():
            out[todo[settle]] = t[settle]
            keep = np.flatnonzero(~settle)
            todo, b, p, s, floor, lo, hi, r_hi, t_prev, r_prev, t, r = (
                a[keep]
                for a in (todo, b, p, s, floor, lo, hi, r_hi, t_prev, r_prev, t, r)
            )
    # the last trial still narrows the bracket
    out[todo] = np.where(r < 0.0, hi, t)
    return out


class _GaussSeidelSweep:
    """One nonlinear Gauss-Seidel sweep of  B u + p rho(u) = A_IB f.

    Colour by colour, every point solves its own scalar equation
    B_ii t + p_i rho(t) = s_i, s_i = (A_IB f - B_off u)_i, by a root forced
    with _FORCING (``_pointwise_root``): exact to eps once the point's
    updates are small, within a tenth of its last step before that.  A
    point with 0 < s_i <= eps takes t = 0, so a dead core holds exact
    zeros, and one with s_i <= 0 takes s_i / B_ii.  Points of one colour
    never couple, so a colour is one row-slice matvec and one vectorized
    root.  The colours come from the level's ``_colour_rows`` and only p
    is the solve's own.  The right side is given per call, so one sweep
    serves every right side of its level.  The result is clamped to
    ``lower``.  Needs p >= 0, so that every scalar equation is monotone.
    """

    def __init__(self, colours, p, rho, eps):
        self.rho = rho
        self.eps = eps
        self.parts = [(rows, off, diag, p[rows]) for rows, off, diag in colours]

    def __call__(self, u, rhs, lower):
        """Sweep ``u`` in place for the right side ``rhs``."""
        for rows, off, diag, p in self.parts:
            s = rhs[rows] - off @ u
            pos = s > self.eps
            if pos.all():
                # no point to exclude, so no copies of the colour's arrays
                t = _pointwise_root(diag, p, self.rho, s, u[rows], self.eps, _FORCING)
            else:
                # rho vanishes at t <= 0: t = s / B_ii solves a point with
                # s <= 0 exactly, and t = 0 one with 0 < s <= eps to within
                # eps, so a dead core holds exact zeros; a colour inside a
                # dead core may have no point left to solve
                t = np.minimum(s, 0.0) / diag
                if pos.any():
                    t[pos] = _pointwise_root(
                        diag[pos], p[pos], self.rho, s[pos], u[rows[pos]], self.eps, _FORCING
                    )
            u[rows] = np.maximum(t, lower)


def _fas_sides(mask):
    """Sides of the interior's bounding block on every FAS level, finest
    first.

    A side m > _COARSEST_SIDE coarsens to (m - 1) / 2 when it is odd.  An
    even side coarsens to the midpoints of fine pairs, alternating per
    axis between m / 2 (the bounds widen by half a fine step) and m / 2 - 1
    (they narrow by half a step), so every coarse boundary stays within a
    fraction of its own step of the true one: 65 -> 32 -> 16 -> 7 -> 3,
    128 -> 64 -> 31 -> 15 -> 7 -> 3.  On a disc, a ball or any other mask
    these are the blocks that ``_FasCycle`` slices to the interior, and
    its hierarchy may end earlier, where a coarse interior would be empty.
    """
    idx = np.unravel_index(mask.interior_flat, mask.grid.shape)
    sides = tuple(int(i.max() - i.min()) + 1 for i in idx)
    levels = [sides]
    narrow = [0] * len(sides)
    while max(sides) > _COARSEST_SIDE:
        coarse = []
        for k, m in enumerate(sides):
            if m > _COARSEST_SIDE and m % 2:
                m = (m - 1) // 2
            elif m > _COARSEST_SIDE:
                m, narrow[k] = m // 2 - narrow[k], 1 - narrow[k]
            coarse.append(m)
        sides = tuple(coarse)
        levels.append(sides)
    return levels


def _axis_transfer(m, m_coarse):
    """Restrictions of one axis from m interior points to m_coarse, and the
    shift of its bounds in fine steps (positive inward).

    Returns the residual restriction, the iterate restriction and the
    shift.  An odd m keeps every other point, 2j + 1 counted from 0: full
    weighting 1/4, 1/2, 1/4 for residuals and injection, weights exactly
    1.0, for iterates, with the bounds unchanged.  For an even m each
    coarse point lies midway between fine points s + 2j and s + 2j + 1,
    s = m / 2 - m_coarse (0 widens the bounds by half a step, 1 narrows
    them): residuals restrict by the transpose of linear interpolation
    over 2, weights 1/8, 3/8, 3/8, 1/8, and iterates by the pair mean.  In
    both cases twice the transpose of the residual restriction is linear
    interpolation.  Both are the identity where the axis does not coarsen.
    """
    if m_coarse == m:
        eye = sp.identity(m, format="csr")
        return eye, eye, 0.0
    j = np.arange(m_coarse)[:, None]
    if m % 2:
        legs, weights = 2 * j + np.arange(3), [0.25, 0.5, 0.25]
        kept, means, shift = 2 * j + 1, [1.0], 0.0
    else:
        s = m // 2 - m_coarse
        legs, weights = s + 2 * j + np.arange(-1, 3), [0.125, 0.375, 0.375, 0.125]
        kept, means, shift = s + 2 * j + np.arange(2), [0.5, 0.5], s - 0.5

    def restriction(cols, vals):
        rows = np.broadcast_to(j, cols.shape)
        on = (cols >= 0) & (cols < m)
        vals = np.broadcast_to(vals, cols.shape)
        return sp.csr_matrix((vals[on], (rows[on], cols[on])), shape=(m_coarse, m))

    return restriction(legs, weights), restriction(kept, means), shift


class _FasHierarchy:
    """The levels of FAS V-cycles (Brandt 1977) on one operator, any lattice.

    Built by the first solve on an operator and kept on it
    (``AssembledOperator._fas``), since it depends only on the mask, the
    coefficients and the scheme; it holds no reference to the operator.
    Level 0 is the operator itself, whose B each solve brings.  Each
    coarser level is the operator re-assembled with the same coefficients
    and scheme on the block whose sides ``_fas_sides`` gives, so drift and
    variable a or c coarsen too; its bounds are those of the finer block,
    moved by half a fine step on an axis of even side (``_axis_transfer``).
    Residuals restrict by a Kronecker product of 1D weightings on the
    blocks, and iterates and p by a Kronecker product of injections and
    pair means.  A coarse point is interior when every fine point that its
    iterate restriction reads is interior; both restrictions are sliced to
    coarse-interior rows and fine-interior columns, which on a box are all
    of them.  Every other point of a coarse block is a boundary point.
    The hierarchy ends at the last level whose coarsening would leave no
    interior point.

    ``levels`` holds per level its B (None on level 0), its
    ``_colour_rows`` and, but on the coarsest, its transfers (full
    weighting, iterate restriction, the weighting's transpose as a view on
    its arrays, and the prolongation's scale); ``seconds`` is the build
    time.
    """

    def __init__(self, op):
        t_start = time.perf_counter()
        grid = op.mask.grid
        sides = _fas_sides(op.mask)
        idx = np.unravel_index(op.mask.interior_flat, grid.shape)
        # the interior's bounding block with its boundary layer, and the
        # interior's flat indices in the block
        bounds = [
            (grid.axis(k)[i.min() - 1], grid.axis(k)[i.max() + 1])
            for k, i in enumerate(idx)
        ]
        inside = np.ravel_multi_index(tuple(i - i.min() for i in idx), sides[0])
        self.levels = []
        mask, B = op.mask, -op.interior_matrix
        for fine, coarse in zip(sides, sides[1:] + [None]):
            colours = _colour_rows(mask, B)
            # level 0 keeps no B: each solve brings the operator's own
            kept = B if self.levels else None
            if coarse is not None:
                axes = [_axis_transfer(m, mc) for m, mc in zip(fine, coarse)]
                full, restrict = axes[0][:2]
                for weights, means, _ in axes[1:]:
                    full = sp.kron(full, weights, format="csr")
                    restrict = sp.kron(restrict, means, format="csr")
                # a coarse point is interior when every fine point that its
                # iterate restriction reads is interior
                outside = np.ones(restrict.shape[1])
                outside[inside] = 0.0
                coarse_inside = np.flatnonzero(restrict @ outside == 0.0)
            if coarse is None or not coarse_inside.size:
                self.levels.append((kept, colours, None))
                break
            # on a box both index sets are the whole block
            if coarse_inside.size < restrict.shape[0] or inside.size < restrict.shape[1]:
                full = full[coarse_inside][:, inside]
                restrict = restrict[coarse_inside][:, inside]
            # d-linear prolongation is the transpose of the full weighting
            # times 2 per axis that coarsens, an exact scale
            scale = 2.0 ** sum(mc < m for m, mc in zip(fine, coarse))
            # its transpose shares the weighting's arrays, so keeping it
            # copies nothing and spares each cycle building it
            self.levels.append((kept, colours, (full, restrict, full.T, scale)))
            for k, (m, (_, _, shift)) in enumerate(zip(fine, axes)):
                if shift:
                    lo, hi = bounds[k]
                    h = (hi - lo) / (m + 1)
                    bounds[k] = (lo + shift * h, hi - shift * h)
            # every coarse point off the coarse interior is a boundary
            # point, so cross legs stay on active points; a coarse interior
            # may split, each piece closed by boundary points
            classes = np.full([m + 2 for m in coarse], BOUNDARY, dtype=np.int8)
            classes[tuple(i + 1 for i in np.unravel_index(coarse_inside, coarse))] = INTERIOR
            mask = DomainMask(
                build_grid(grid.dim, classes.shape, bounds), classes, _validated=True
            )
            inside = coarse_inside
            # the coefficients were audited, or not, where op was assembled
            coarse_op = assemble(mask, op.coeffs, op.scheme, validate=False)
            B = sp.csr_matrix(-coarse_op.interior_matrix)
        self.seconds = time.perf_counter() - t_start


class _FasCycle:
    """FAS V-cycles of one solve on the levels of a ``_FasHierarchy``.

    Level 0 has the solve's own B and reaction; each coarser level has the
    hierarchy's B and the reaction with the density p restricted from the
    level above by the iterate restriction.  ``_GaussSeidelSweep`` smooths on
    every level.  Corrections prolong by the scaled transpose of the full
    weighting, the d-linear interpolation with zero correction off the
    interior, and a corrected iterate is clamped to ``lower`` before its
    post-sweeps.
    """

    def __init__(self, hierarchy, B, phi_b, p, rho, rhs, eps, lower):
        self.rhs, self.lower = rhs, lower
        self.levels = []
        react = phi_b
        for level, (B_level, colours, transfers) in enumerate(hierarchy.levels):
            if level:
                B = B_level
                react = _vanishing(p.size, lambda pos, t, p=p: p[pos] * rho(t))
            self.levels.append((B, react, _GaussSeidelSweep(colours, p, rho, eps), transfers))
            if transfers is not None:
                p = transfers[1] @ p

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
        full, restrict, prolong, scale = transfers
        B_c, react_c = self.levels[level + 1][:2]
        u_c = restrict @ u
        # the FAS coarse right side: the restricted residual plus the coarse
        # operator at the restricted iterate, so the coarse solve moves u_c
        # by the correction the fine level needs
        rhs_c = B_c @ u_c + react_c(u_c) + full @ (rhs - B @ u - react(u))
        v = u_c.copy()
        self._cycle(level + 1, v, rhs_c)
        u += (prolong @ (v - u_c)) * scale
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

    B = -op.interior_matrix
    rhs_b = op.boundary_matrix @ f
    p_vals = values_at(phi.p, pts)
    # the hypotheses under which the exact sweep converges (module
    # docstring); B nonsingular with the M-matrix sign pattern and weak
    # diagonal dominance also has B^-1 >= 0 (check_m_matrix audits the same
    # pattern), which carries the error bound (see SolveReport)
    positive_diagonal, max_off, rowsum, sign_tol = _sign_pattern(B)
    monotone = max_off <= sign_tol and float(rowsum.min(initial=0.0)) >= -sign_tol
    p_min = float(p_vals.min(initial=0.0))
    if p_min < 0.0:
        raise ValueError(f"the reaction density p must be nonnegative (min {p_min:.3e})")
    if not positive_diagonal:
        raise ValueError("B = -A_II must have a positive diagonal")
    if not monotone and float(np.max(abs(B - B.T).data, initial=0.0)) > sign_tol:
        raise ValueError(
            "B = -A_II must have the M-matrix sign pattern or be symmetric; it has "
            f"positive off-diagonal entries up to {max_off:.3e} and is not symmetric "
            "(centered drift at a cell Peclet number above 2 does this; upwind "
            "drift keeps the sign pattern)"
        )

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

    # solutions cannot dip below the boundary minimum (or zero, whichever
    # is smaller): where u < 0 the reaction vanishes and u is L-harmonic,
    # so the discrete minimum principle applies; clamping to this bound
    # removes sub-floor negative excursions at the reaction's zero set
    lower = min(0.0, float(f.min())) if f.size else 0.0
    eps = params.tol / _ROOT_SHARE
    built = op._fas is None
    if built:
        op._fas = _FasHierarchy(op)
    cycle = _FasCycle(op._fas, B, phi_b, p_vals, phi.rho, rhs_b, eps, lower)

    u = harm.copy()
    inc = np.inf
    converged = False
    for k in range(1, params.max_iterations + 1):
        u_new = cycle(u, k)
        inc, prev = float(np.max(np.abs(u_new - u))), inc
        u = u_new
        # a flat cycle, one that does not shrink the increment, ends the solve
        flat = inc >= prev
        if inc <= params.tol or flat:
            phi_u = phi_b(u)
            r = np.abs(B @ u + phi_u - rhs_b)
            res = float(np.max(r, initial=0.0))
            converged = inc <= params.tol and res <= 10.0 * params.tol
            if res > 10.0 * params.tol and params.tol > 0.0:
                # each row is held to its own rounding floor, never to
                # that of a larger row
                terms = abs(B) @ np.abs(u) + np.abs(phi_u) + np.abs(rhs_b)
                ratio = float(np.max(r / np.maximum(10.0 * params.tol, _ROUNDING * terms)))
                met, note = ratio <= 1.0, ""
                if met and inc > params.tol:
                    # sup |B^-1 |r|| bounds |u - u*| only where B is an M-matrix
                    bound = float(np.max(op.solve(r), initial=0.0)) if monotone else 0.0
                    met = inc <= bound
                    note = f"; increment {inc:.3e} within sup|B^-1 |r|| {bound:.3e}"
                if met:
                    converged = True
                    message = (
                        f"residual {res:.3e} met the rounding floor of its rows "
                        f"(worst |r_i| / floor_i {ratio:.2f}), not 10 * tol{note}"
                        + (f"; {message}" if message else "")
                    )
            if converged:
                break
        if flat:
            # the stagnation text stays first, as reports are classified by it
            message = (
                f"increment stagnated at {inc:.3e} without meeting the gates"
                + (f"; {message}" if message else "")
            )
            break
    status = "converged" if converged else "stagnated" if flat else "failed"

    phi_u = phi_b(u)
    r = B @ u + phi_u - rhs_b
    res = float(np.max(np.abs(r), initial=0.0))
    # why this bounds |u - u*|, and when it does: see SolveReport
    if not monotone:
        # appended, as reports are classified by the message's start
        error_bound = np.inf
        note = "no error bound: B is symmetric but not an M-matrix"
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
        lambda_max=0.0,
        lambda_refreshes=0,
        sup_solution=float(u.max(initial=0.0)),
        min_solution=float(u.min(initial=0.0)),
        tol=params.tol,
        message=message,
        factorizations=factorizations,
        factor_nnz=factor_nnz,
    )
    log.debug(
        "solve: %s after %d iterations, %d factorizations (fill %d), "
        "FAS hierarchy %s in %.3f s, error bound %.3e, %.3f s%s",
        status,
        k,
        factorizations,
        factor_nnz,
        "built" if built else "reused, built",
        op._fas.seconds,
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

    Requires q >= 0 so that B + q keeps the sign structure of B.
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
