"""Finite-difference assembly of second-order elliptic operators.

The operator is  L u = sum_ij a_ij d_i d_j u + sum_i b_i d_i u + c u  with
a(x) symmetric positive definite and c(x) <= 0.  Assembly produces a sparse
matrix over the active points (interior then boundary) of a mask; boundary
values enter through the interior-to-boundary block.  The discrete maximum
principle is available exactly when minus the interior block is an M-matrix,
which the drift and mixed-derivative scheme options control.

Solves with B = -A_II go through ``AssembledOperator.solve``.  When the
interior fills a full rectangular block and B is the Kronecker sum of 1D
second differences (constant diagonal a, constant c, no drift, no cross
terms), B is diagonalized by the type-I discrete sine transform and a
solve is two DSTs and a division (Buzbee, Golub and Nielson, SIAM J.
Numer. Anal. 7, 1970); any other operator is factored once by SuperLU.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import EllipticityError, StencilError
from .geometry import values_at

# Lattice matrices are structurally symmetric, so SuperLU's minimum-degree
# ordering on the pattern of A^T + A keeps far less fill than its default
# COLAMD, which targets unsymmetric patterns (about half the fill on 17^3
# and 25^3 boxes).
_PERMC_SPEC = "MMD_AT_PLUS_A"


def _sparse_lu(matrix):
    """SuperLU factorization with the lattice ordering; every sparse LU of
    the package goes through here.

    ``spla.splu`` is looked up at call time so that a profiler patching
    ``scipy.sparse.linalg.splu`` sees every factorization.
    """
    return spla.splu(sp.csc_matrix(matrix), permc_spec=_PERMC_SPEC)


# B counts as a Kronecker sum when it differs from the one rebuilt from its
# own diagonal and first off-diagonals by at most this, relative to max|B|
_KRON_RTOL = 1e-12


class _BoxSolver:
    """B^-1 by DST-I on a box, where B = d I + sum_k T_k with T_k the
    second difference along axis k, -w_k on its off-diagonals.

    The orthonormal DST-I of each axis diagonalizes T_k with eigenvalues
    -2 w_k cos(pi j / (n_k + 1)), j = 1..n_k, so B^-1 is one forward DST,
    a division by the Kronecker-sum eigenvalues and one inverse DST.
    """

    def __init__(self, shape, diag, weights):
        self.shape = shape
        eig = np.full(shape, float(diag))
        for k, (n, w) in enumerate(zip(shape, weights)):
            lam = -2.0 * w * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            eig += lam.reshape([n if j == k else 1 for j in range(len(shape))])
        self.eigenvalues = eig

    @classmethod
    def of(cls, op):
        """The solver of ``op``'s B, or None when B is no box Kronecker sum."""
        mask = op.mask
        idx = np.unravel_index(mask.interior_flat, mask.grid.shape)
        shape = tuple(int(i.max() - i.min()) + 1 for i in idx)
        # interior_flat is in C order, so a full block is numbered exactly
        # as the C-order raveling of that block
        if int(np.prod(shape)) != mask.n_interior:
            return None
        B = (-op.interior_matrix).tocsr()
        strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
        weights = [-B[0, s] if n > 1 else 0.0 for s, n in zip(strides, shape)]
        diag = B[0, 0]
        kron = sp.csr_matrix((1, 1))
        for n, w in zip(shape, weights):
            second = sp.diags([-w, -w], [-1, 1], shape=(n, n))
            # the new axis varies fastest, as in C order
            kron = sp.kronsum(second, kron, format="csr")
        kron = kron + diag * sp.identity(mask.n_interior, format="csr")
        scale = float(abs(B).max())
        if float(abs(B - kron).max()) > _KRON_RTOL * scale:
            return None
        return cls(shape, diag, weights)

    def solve(self, rhs):
        y = sfft.dstn(np.reshape(rhs, self.shape), type=1, norm="ortho")
        y /= self.eigenvalues
        return sfft.idstn(y, type=1, norm="ortho").ravel()


class CoefficientSet:
    """Coefficients (a, b, c) of the operator, constant or position-dependent.

    Parameters
    ----------
    a : scalar, (d,) array, (d, d) array, or callable
        Diffusion matrix.  A scalar means a*I, a vector a diagonal matrix.
        A callable receives points of shape (n, d) and may return (n,),
        (n, d), or (n, d, d).
    b : None, (d,) array, or callable, optional
        Drift vector; a callable returns (n, d).
    c : None, scalar, or callable, optional
        Zeroth-order coefficient, required <= 0; evaluated by
        :func:`~ellipot.geometry.values_at`.
    """

    def __init__(self, a=1.0, b=None, c=None):
        self.a = a
        self.b = b
        self.c = c

    def a_at(self, points, dim):
        """Diffusion matrices at points, shape (n, dim, dim)."""
        n = len(points)
        a = self.a
        if callable(a):
            a = np.asarray(a(points), dtype=float)
            if a.shape == (n,):
                out = np.zeros((n, dim, dim))
                idx = np.arange(dim)
                out[:, idx, idx] = a[:, None]
                return out
            if a.shape == (n, dim):
                out = np.zeros((n, dim, dim))
                idx = np.arange(dim)
                out[:, idx, idx] = a
                return out
            if a.shape == (n, dim, dim):
                return a
            raise ValueError(f"coefficient a callable returned shape {a.shape}")
        a = np.asarray(a, dtype=float)
        if a.ndim == 0:
            mat = np.eye(dim) * float(a)
        elif a.ndim == 1:
            if a.size != dim:
                raise ValueError(f"diagonal a has length {a.size}, expected {dim}")
            mat = np.diag(a)
        else:
            if a.shape != (dim, dim):
                raise ValueError(f"matrix a has shape {a.shape}, expected {(dim, dim)}")
            mat = a
        return np.broadcast_to(mat, (n, dim, dim)).copy()

    def b_at(self, points, dim):
        """Drift vectors at points, shape (n, dim); zeros when absent."""
        n = len(points)
        b = self.b
        if b is None:
            return np.zeros((n, dim))
        if callable(b):
            b = np.asarray(b(points), dtype=float)
            if b.shape != (n, dim):
                raise ValueError(f"coefficient b callable returned shape {b.shape}")
            return b
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if b.size != dim:
            raise ValueError(f"drift b has length {b.size}, expected {dim}")
        return np.broadcast_to(b, (n, dim)).copy()

    def c_at(self, points):
        """Zeroth-order coefficient at points, shape (n,); zeros when absent."""
        if self.c is None:
            return np.zeros(len(points))
        return values_at(self.c, points)


@dataclass
class SchemeOptions:
    """Discretization choices.

    drift : 'upwind' (one-sided toward the flow, sign-pattern safe) or
        'centered' (second order, safe only for mild drift).
    cross : 'corner' (four-point cross for mixed derivatives) or 'tilted'
        (diagonal second differences; sign-pattern safe when a is
        diagonally dominant).
    """

    drift: str = "upwind"
    cross: str = "corner"

    def __post_init__(self):
        if self.drift not in ("upwind", "centered"):
            raise ValueError(f"unknown drift scheme {self.drift!r}")
        if self.cross not in ("corner", "tilted"):
            raise ValueError(f"unknown cross scheme {self.cross!r}")


@dataclass
class EllipticityReport:
    """Pointwise checks of the coefficient hypotheses over the interior."""

    min_eigenvalue: float
    max_eigenvalue: float
    max_c: float
    symmetric: bool
    ok: bool
    messages: list = field(default_factory=list)


def check_ellipticity(coeffs, mask):
    """Verify a(x) symmetric positive definite and c(x) <= 0 on the interior."""
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


class AssembledOperator:
    """Sparse discretization of L over the active points of a mask.

    Rows are ordered interior first, boundary second.  ``interior_matrix``
    and ``boundary_matrix`` give the blocks A_II and A_IB of the interior
    equations.
    """

    def __init__(self, mask, coeffs, scheme, a_int, b_int, c_int):
        self.mask = mask
        self.coeffs = coeffs
        self.scheme = scheme
        self._a_int = a_int
        self._b_int = b_int
        self._c_int = c_int
        self._A_II = None
        self._A_IB = None
        self._lu = None
        self._assemble()

    @property
    def n_interior(self):
        return self.mask.n_interior

    @property
    def n_boundary(self):
        return self.mask.n_boundary

    @property
    def interior_matrix(self):
        return self._A_II

    @property
    def boundary_matrix(self):
        return self._A_IB

    @property
    def is_factored(self):
        """Whether :meth:`factor` has already built and cached its LU."""
        return self._lu is not None

    @functools.cached_property
    def _box(self):
        """The DST-I solver of B when the box path applies, else None."""
        return _BoxSolver.of(self)

    def factor(self):
        """Cached sparse LU of minus the interior block.

        Built once per operator with SuperLU under the minimum-degree
        ordering of A^T + A (see ``_sparse_lu``).  :meth:`solve` reaches it
        only on operators that are not DST-solvable boxes; callers that
        share an operator share its factor.
        """
        if self._lu is None:
            self._lu = _sparse_lu(-self._A_II)
        return self._lu

    def solve(self, rhs, trans="N"):
        """B^-1 rhs with B = -A_II (B^-T rhs for ``trans="T"``).

        On a full box whose B is the Kronecker sum of 1D second
        differences, two DST-I transforms (``_BoxSolver``, B symmetric
        there); otherwise the cached factor of :meth:`factor`.  Whether the
        box path applies is decided once per operator, by comparing B with
        the Kronecker sum rebuilt from B's own entries.
        """
        if self._box is not None:
            return self._box.solve(rhs)
        return self.factor().solve(rhs, trans=trans)

    def apply(self, values):
        """L applied to full-grid values (array or Field); returns (n_interior,)."""
        mask = self.mask
        if hasattr(values, "mask") and hasattr(values, "values"):
            if not values.mask.same_as(mask):
                raise ValueError("field mask does not match the operator's mask")
            values = values.values
        v = np.asarray(values, dtype=float).ravel()
        return self._A_II @ v[mask.interior_flat] + self._A_IB @ v[mask.boundary_flat]

    def _assemble(self):
        mask = self.mask
        grid = mask.grid
        dim = grid.dim
        h = grid.spacing
        nI, nB = mask.n_interior, mask.n_boundary
        classes = mask.classes.ravel()

        # active-column lookup: interior -> 0..nI-1, boundary -> nI..nI+nB-1
        col_of = np.full(grid.size, -1, dtype=np.int64)
        col_of[mask.interior_flat] = np.arange(nI)
        col_of[mask.boundary_flat] = nI + np.arange(nB)

        strides = np.empty(dim, dtype=np.int64)
        strides[-1] = 1
        for k in range(dim - 2, -1, -1):
            strides[k] = strides[k + 1] * grid.shape[k + 1]

        a = self._a_int
        b = self._b_int
        c = self._c_int
        rows_idx = mask.interior_flat
        row_ids = np.arange(nI)

        diag = c.copy()
        entries_r = []
        entries_c = []
        entries_v = []

        def add(offset_flat, weights):
            """Append one stencil leg; reject nonzero reach into exterior."""
            nz = np.abs(weights) > 0.0
            if not nz.any():
                return
            nbr = rows_idx[nz] + offset_flat
            cols = col_of[nbr]
            bad = cols < 0
            if bad.any():
                where = np.flatnonzero(nz)[bad][0]
                pt = grid.points()[rows_idx[where]]
                raise StencilError(
                    "stencil reaches an exterior point with a nonzero weight "
                    f"near {np.array2string(pt, precision=6)}; "
                    "the mixed-derivative term does not fit this domain shape"
                )
            entries_r.append(row_ids[nz])
            entries_c.append(cols)
            entries_v.append(weights[nz])

        # residual axis coefficients; the tilted scheme shifts mass onto
        # the diagonal legs and reduces these
        axis_coef = np.stack([a[:, k, k] for k in range(dim)], axis=1).copy()

        for k in range(dim):
            for l in range(k + 1, dim):
                w = 2.0 * a[:, k, l]
                if not np.any(np.abs(w) > 0):
                    continue
                hk, hl = h[k], h[l]
                if self.scheme.cross == "corner":
                    quarter = w / (4.0 * hk * hl)
                    add(strides[k] + strides[l], quarter)
                    add(-strides[k] - strides[l], quarter)
                    add(strides[k] - strides[l], -quarter)
                    add(-strides[k] + strides[l], -quarter)
                else:
                    # diagonal second difference along the sign of a_kl
                    pos = np.maximum(a[:, k, l], 0.0)
                    neg = np.maximum(-a[:, k, l], 0.0)
                    wp = pos / (hk * hl)
                    wm = neg / (hk * hl)
                    add(strides[k] + strides[l], wp)
                    add(-strides[k] - strides[l], wp)
                    add(strides[k] - strides[l], wm)
                    add(-strides[k] + strides[l], wm)
                    diag -= 2.0 * (wp + wm)
                    mag = pos + neg
                    axis_coef[:, k] -= mag * hk / hl
                    axis_coef[:, l] -= mag * hl / hk

        for k in range(dim):
            hk = h[k]
            ak = axis_coef[:, k]
            plus = ak / hk**2
            minus = ak / hk**2
            bk = b[:, k]
            if self.scheme.drift == "upwind":
                bp = np.maximum(bk, 0.0)
                bm = np.minimum(bk, 0.0)
                plus = plus + bp / hk
                minus = minus - bm / hk
                diag = diag - (bp - bm) / hk
            else:
                plus = plus + bk / (2.0 * hk)
                minus = minus - bk / (2.0 * hk)
            diag = diag - 2.0 * ak / hk**2
            add(strides[k], plus)
            add(-strides[k], minus)

        entries_r.append(row_ids)
        entries_c.append(col_of[rows_idx])
        entries_v.append(diag)

        A = sp.coo_matrix(
            (
                np.concatenate(entries_v),
                (np.concatenate(entries_r), np.concatenate(entries_c)),
            ),
            shape=(nI, nI + nB),
        ).tocsr()
        A.sum_duplicates()
        self._A_II = A[:, :nI].tocsr()
        self._A_IB = A[:, nI:].tocsr()


def assemble(mask, coeffs=None, scheme=None, validate=True):
    """Assemble the operator on a mask.

    Raises :class:`EllipticityError` when the coefficient hypotheses fail
    (disable with ``validate=False``) and :class:`StencilError` when a
    mixed-derivative leg would reach an exterior point.
    """
    if coeffs is None:
        coeffs = CoefficientSet()
    if scheme is None:
        scheme = SchemeOptions()
    pts = mask.interior_points()
    dim = mask.grid.dim
    a = coeffs.a_at(pts, dim)
    b = coeffs.b_at(pts, dim)
    c = coeffs.c_at(pts)
    if validate:
        rep = check_ellipticity(coeffs, mask)
        if not rep.ok:
            raise EllipticityError("; ".join(rep.messages))
    return AssembledOperator(mask, coeffs, scheme, a, b, c)


@dataclass
class MMatrixReport:
    """Structural audit of minus the interior block."""

    is_m_matrix: bool
    positive_diagonal: bool
    nonpositive_offdiagonal: bool
    weakly_dominant: bool
    has_strict_row: bool
    connected: bool
    max_positive_offdiagonal: float
    notes: list = field(default_factory=list)


def _sign_pattern(B):
    """The M-matrix sign pattern of the CSR or CSC matrix B: whether its
    diagonal is positive, its largest nonzero off-diagonal entry (0 if
    none), its row sums, and the slack the tests allow, 1e-12 of its
    largest entry and at least 1e-12."""
    B.sum_duplicates()
    tol = 1e-12 * max(1.0, float(np.max(np.abs(B.data), initial=0.0)))
    major = np.repeat(np.arange(B.indptr.size - 1), np.diff(B.indptr))
    off = B.data[major != B.indices]
    off = off[off != 0.0]
    max_off = float(off.max()) if off.size else 0.0
    rowsum = np.asarray(B.sum(axis=1)).ravel()
    return bool(np.all(B.diagonal() > 0)), max_off, rowsum, tol


def check_m_matrix(op):
    """Check that B = -A_II is a nonsingular M-matrix.

    Requires a positive diagonal, nonpositive off-diagonal entries, weak
    row diagonal dominance with at least one strictly dominant row, and an
    irreducible (connected) sparsity graph.  Together these guarantee the
    inverse-positivity that the comparison arguments rely on.
    """
    B = (-op.interior_matrix).tocsr()
    n = B.shape[0]
    positive_diagonal, max_pos, rowsum, tol = _sign_pattern(B)
    nonpositive_offdiagonal = max_pos <= tol
    weakly_dominant = bool(np.all(rowsum >= -tol))
    has_strict_row = bool(np.any(rowsum > tol))

    pattern = B.copy()
    pattern.data = np.abs(pattern.data)
    ncomp, _ = csgraph.connected_components(pattern, directed=False)
    connected = ncomp == 1

    notes = []
    if not positive_diagonal:
        notes.append("diagonal has nonpositive entries")
    if not nonpositive_offdiagonal:
        notes.append(
            f"positive off-diagonal entries up to {max_pos:.3e}"
        )
        if op.scheme.drift == "centered":
            notes.append(
                "centered drift differences break the sign pattern here; "
                "upwinding suggested"
            )
        if op.scheme.cross == "corner" and _has_cross_terms(op):
            notes.append(
                "the four-point mixed-derivative cross always carries "
                "positive legs; the tilted scheme keeps the sign pattern "
                "when a is diagonally dominant"
            )
    if not weakly_dominant:
        notes.append("some rows are not weakly diagonally dominant")
    if not has_strict_row:
        notes.append("no strictly dominant row (singular in the limit)")
    if not connected:
        notes.append(f"sparsity graph splits into {ncomp} components")

    ok = (
        positive_diagonal
        and nonpositive_offdiagonal
        and weakly_dominant
        and has_strict_row
        and connected
    )
    if ok and n:
        notes.insert(0, "inverse-positivity guaranteed")
    return MMatrixReport(
        ok,
        positive_diagonal,
        nonpositive_offdiagonal,
        weakly_dominant,
        has_strict_row,
        connected,
        max_pos,
        notes,
    )


def _has_cross_terms(op):
    a = op._a_int
    dim = a.shape[1]
    for k in range(dim):
        for l in range(k + 1, dim):
            if np.any(np.abs(a[:, k, l]) > 0):
                return True
    return False
