import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

import ellipot as ep
from ellipot.errors import EllipticityError, StencilError
from ellipot.operators import _BoxSolver

import oracles


def _interior_coords(mask):
    return mask.grid.points()[mask.interior_flat]


def test_laplacian_1d_matrix_entries(unit_interval_65):
    op = ep.assemble(unit_interval_65)
    h = unit_interval_65.grid.spacing[0]
    B = (-op.interior_matrix).toarray()
    npt.assert_allclose(np.diag(B), 2.0 / h**2)
    npt.assert_allclose(np.diag(B, 1), -1.0 / h**2)
    npt.assert_allclose(np.diag(B, -1), -1.0 / h**2)
    assert np.count_nonzero(B) == 3 * 63 - 2


def test_manufactured_solution_second_order():
    # u = sin(pi x) sin(pi y), Laplacian(u) = -2 pi^2 u, zero boundary data
    errs = []
    for n in (17, 33):
        grid = ep.build_grid(2, n, (0.0, 1.0))
        mask = ep.box_mask(grid)
        op = ep.assemble(mask)
        pts = _interior_coords(mask)
        exact = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        u = ep.solve_interior(op, 2.0 * np.pi**2 * exact, 0.0)
        errs.append(np.max(np.abs(u.interior() - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_variable_coefficients_exact_on_quadratics():
    # a(x) = 1 + x1, b = (-1, 0), u = x1^2: a u_{11} + b . grad u = 2 exactly
    grid = ep.build_grid(2, 13, (0.0, 1.0))
    mask = ep.box_mask(grid)
    coeffs = ep.CoefficientSet(
        a=lambda pts: np.stack(
            [np.stack([1.0 + pts[:, 0], np.zeros(len(pts))], axis=1),
             np.stack([np.zeros(len(pts)), np.ones(len(pts))], axis=1)],
            axis=1,
        ),
        b=np.array([-1.0, 0.0]),
    )
    op = ep.assemble(mask, coeffs, ep.SchemeOptions(drift="centered"))
    f = lambda pts: pts[:, 0] ** 2
    u = ep.solve_interior(op, -2.0 * np.ones(mask.n_interior), f)
    pts = _interior_coords(mask)
    npt.assert_allclose(u.interior(), pts[:, 0] ** 2, atol=1e-10)


@pytest.mark.parametrize("cross", ["corner", "tilted"])
def test_cross_terms_exact_on_bilinear(cross):
    # u = x1 x2 with a12 = 0.3: L u = 2 a12 = 0.6
    grid = ep.build_grid(2, 11, (0.0, 1.0))
    mask = ep.box_mask(grid)
    coeffs = ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.3, 1.0]]))
    op = ep.assemble(mask, coeffs, ep.SchemeOptions(cross=cross))
    f = lambda pts: pts[:, 0] * pts[:, 1]
    u = ep.solve_interior(op, -0.6 * np.ones(mask.n_interior), f)
    pts = _interior_coords(mask)
    npt.assert_allclose(u.interior(), pts[:, 0] * pts[:, 1], atol=1e-10)


def test_upwind_preserves_m_matrix_under_strong_drift():
    grid = ep.build_grid(2, 11, (0.0, 1.0))
    mask = ep.box_mask(grid)
    coeffs = ep.CoefficientSet(b=np.array([50.0, -50.0]))
    up = ep.check_m_matrix(ep.assemble(mask, coeffs))
    assert up.is_m_matrix
    centered = ep.check_m_matrix(
        ep.assemble(mask, coeffs, ep.SchemeOptions(drift="centered"))
    )
    assert not centered.is_m_matrix
    assert any("upwind" in note for note in centered.notes)


def test_tilted_cross_keeps_m_matrix_where_corner_fails():
    grid = ep.build_grid(2, 11, (0.0, 1.0))
    mask = ep.box_mask(grid)
    coeffs = ep.CoefficientSet(a=np.array([[1.0, 0.8], [0.8, 1.0]]))
    corner = ep.check_m_matrix(ep.assemble(mask, coeffs))
    tilted = ep.check_m_matrix(
        ep.assemble(mask, coeffs, ep.SchemeOptions(cross="tilted"))
    )
    assert not corner.is_m_matrix
    assert tilted.is_m_matrix


def test_cross_terms_need_diagonal_neighbors(disc_mask):
    coeffs = ep.CoefficientSet(a=np.array([[1.0, 0.4], [0.4, 1.0]]))
    with pytest.raises(StencilError):
        ep.assemble(disc_mask, coeffs)


def test_ellipticity_rejects_indefinite_a(unit_square_17):
    coeffs = ep.CoefficientSet(a=np.array([[1.0, 2.0], [2.0, 1.0]]))
    rep = ep.check_ellipticity(coeffs, unit_square_17)
    assert not rep.ok
    # eigenvalues of [[1, 2], [2, 1]] are -1 and 3
    assert rep.min_eigenvalue == pytest.approx(-1.0)
    assert rep.max_eigenvalue == pytest.approx(3.0)
    with pytest.raises(EllipticityError):
        ep.assemble(unit_square_17, coeffs)


def test_ellipticity_rejects_positive_c(unit_square_17):
    rep = ep.check_ellipticity(ep.CoefficientSet(c=0.5), unit_square_17)
    assert not rep.ok
    assert rep.max_c == pytest.approx(0.5)


def test_zero_order_term_enters_diagonal(unit_square_17):
    op0 = ep.assemble(unit_square_17)
    opc = ep.assemble(unit_square_17, ep.CoefficientSet(c=-2.0))
    diff = (opc.interior_matrix - op0.interior_matrix).toarray()
    npt.assert_allclose(diff, -2.0 * np.eye(unit_square_17.n_interior), atol=1e-14)


def test_apply_matches_matrix_action(rng, unit_square_17):
    mask = unit_square_17
    coeffs = ep.CoefficientSet(a=np.array([1.0, 2.0]), b=np.array([0.5, 0.0]), c=-0.3)
    op = ep.assemble(mask, coeffs)
    vals = rng.normal(size=mask.grid.size).reshape(mask.grid.shape)
    field = ep.Field(mask, vals)
    out = op.apply(field)
    u_int = vals.ravel()[mask.interior_flat]
    u_bnd = vals.ravel()[mask.boundary_flat]
    expected = op.interior_matrix @ u_int + op.boundary_matrix @ u_bnd
    npt.assert_allclose(out, expected, atol=1e-12)


def test_m_matrix_report_on_laplacian(unit_square_17):
    rep = ep.check_m_matrix(ep.assemble(unit_square_17))
    assert rep.is_m_matrix
    assert rep.positive_diagonal
    assert rep.nonpositive_offdiagonal
    assert rep.weakly_dominant
    assert rep.has_strict_row
    assert rep.connected


def test_factor_uses_a_fill_reducing_ordering():
    # SuperLU's default COLAMD ordering targets unsymmetric patterns; the
    # minimum-degree ordering of A^T + A roughly halves the fill on lattices
    op = ep.assemble(ep.box_mask(ep.build_grid(3, 17, (-1.0, 1.0))))
    B = (-op.interior_matrix).tocsc()
    assert not op.is_factored
    lu = op.factor()
    assert op.is_factored and op.factor() is lu
    assert lu.nnz <= 0.6 * spla.splu(B).nnz
    rhs = np.random.default_rng(7).uniform(-1.0, 1.0, op.n_interior)
    u = lu.solve(rhs)
    scale = abs(B).max() * np.abs(u).max() + np.abs(rhs).max()
    assert np.max(np.abs(B @ u - rhs)) <= 1e-12 * scale


# --------------------------------------------- solves with B = -A_II

def _box(dim, shape, bounds):
    return ep.box_mask(ep.build_grid(dim, shape, bounds))


def _solve_error(op, rng):
    """Relative sup distance of op.solve from the LU solve, and whether
    op.solve went through a factor."""
    rhs = rng.uniform(-1.0, 1.0, op.n_interior)
    x = op.solve(rhs)
    used_factor = op.is_factored
    ref = op.factor().solve(rhs)
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))), used_factor


_ANISO_3D = ([9, 11, 13], [(0.0, 1.0), (-2.0, 3.0), (0.0, 0.5)])


_DST_BOXES = [
    (_box(1, 65, (0.0, 1.0)), None),
    (_box(2, [17, 25], [(0.0, 1.0), (-2.0, 3.0)]),
     ep.CoefficientSet(a=np.array([1.0, 3.0]), c=-2.5)),
    (_box(3, *_ANISO_3D), ep.CoefficientSet(a=np.array([2.0, 1.0, 0.5]), c=-1.0)),
    (ep.build_exhaustion(_box(3, *_ANISO_3D), 3).levels[0],
     ep.CoefficientSet(a=np.array([2.0, 1.0, 0.5]))),
]
_DST_BOX_IDS = ["1d", "2d-aniso-c", "3d-aniso-c", "3d-exhaustion-sub-box"]


@pytest.mark.parametrize("mask, coeffs", _DST_BOXES, ids=_DST_BOX_IDS)
def test_box_solve_by_dst_matches_the_factor(rng, mask, coeffs):
    op = ep.assemble(mask, coeffs)
    err, used_factor = _solve_error(op, rng)
    assert not used_factor
    assert err <= 1e-12


_DISC = ep.mask_from_predicate(ep.build_grid(2, 25, (-1.0, 1.0)),
                               lambda pts: np.sum(pts**2, axis=1) < 0.81)
_SQUARE = _box(2, 17, (-1.0, 1.0))


_FACTORED = [
    (_DISC, None, None),
    (_SQUARE, ep.CoefficientSet(b=np.array([1.0, 0.0])), None),
    (_SQUARE, ep.CoefficientSet(c=lambda pts: -1.0 - pts[:, 0] ** 2), None),
    (_SQUARE, ep.CoefficientSet(a=lambda pts: 1.0 + pts[:, 0] ** 2), None),
    (_SQUARE, ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.3, 1.0]])), None),
    (_SQUARE, ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.3, 1.0]])),
     ep.SchemeOptions(cross="tilted")),
]
_FACTORED_IDS = ["disc", "upwind-drift", "variable-c", "variable-a", "cross-corner",
                 "cross-tilted"]


@pytest.mark.parametrize("mask, coeffs, scheme", _FACTORED, ids=_FACTORED_IDS)
def test_solve_falls_back_to_the_factor(rng, mask, coeffs, scheme):
    op = ep.assemble(mask, coeffs, scheme)
    err, used_factor = _solve_error(op, rng)
    assert used_factor
    assert err == 0.0


def _nudged(op):
    """``op`` with one off-diagonal entry of B, in a row inside the block,
    moved by 1e-10 of itself."""
    A = op.interior_matrix
    row = op.n_interior // 2
    at = A.indptr[row] + int(np.flatnonzero(A.indices[A.indptr[row]:A.indptr[row + 1]] != row)[0])
    A.data[at] *= 1.0 + 1e-10
    return op


def _wrapped(op):
    """``op`` with a leg of B from the end of its first line to the start
    of the next, equal to the legs within lines."""
    A = op.interior_matrix.tolil()
    line = op.mask.grid.shape[-1] - 2
    A[line - 1, line] = A[0, 1]
    op._A_II = A.tocsr()
    return op


def _dropped(op):
    """``op`` with one leg of B, in a row inside the block, removed from
    its matrix."""
    A = op.interior_matrix.tolil()
    row = op.n_interior // 2
    A[row, row + 1] = 0.0
    op._A_II = A.tocsr()
    op._A_II.eliminate_zeros()
    return op


@pytest.mark.parametrize(
    "make_op",
    [lambda mask=mask, coeffs=coeffs: ep.assemble(mask, coeffs) for mask, coeffs in _DST_BOXES]
    + [lambda mask=mask, coeffs=coeffs, scheme=scheme: ep.assemble(mask, coeffs, scheme)
       for mask, coeffs, scheme in _FACTORED]
    + [
        lambda: _nudged(ep.assemble(*_DST_BOXES[1])),
        lambda: ep.assemble(_SQUARE, ep.CoefficientSet(a=lambda pts: np.full(len(pts), 2.0))),
        lambda: _wrapped(ep.assemble(_SQUARE)),
        lambda: _dropped(ep.assemble(_SQUARE)),
    ],
    ids=[f"box-{i}" for i in _DST_BOX_IDS] + [f"factored-{i}" for i in _FACTORED_IDS]
    + ["nudged-leg", "constant-callable-a", "leg-across-lines", "leg-missing"],
)
def test_box_decision_matches_the_kronecker_sum(make_op):
    # deciding from B's CSR arrays agrees with comparing B with the
    # Kronecker sum rebuilt from its entries, and on a box builds the same
    # eigenvalues
    op = make_op()
    box, want = _BoxSolver.of(op), oracles.kronsum_box(op)
    assert (box is None) == (want is None)
    if box is not None:
        assert box.shape == want[0]
        assert box.eigenvalues.tobytes() == _BoxSolver(*want).eigenvalues.tobytes()


@pytest.mark.parametrize(
    "coeffs",
    [
        ep.CoefficientSet(a=2.5),
        ep.CoefficientSet(a=np.array([1.0, 1e-3])),
        ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.3, 2.0]])),
        ep.CoefficientSet(a=np.array([[1.0, 2.0], [2.0, 1.0]])),
        ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.1, 1.0]])),
        ep.CoefficientSet(c=lambda pts: pts[:, 0] - 0.5),
        ep.CoefficientSet(a=lambda pts: 1.0 + pts[:, 0] ** 2, c=-1.0),
    ],
    ids=["scalar-a", "vector-a", "matrix-a", "indefinite-a", "asymmetric-a", "signed-c",
         "callable-a"],
)
def test_ellipticity_report_matches_the_pointwise_audit(unit_square_17, coeffs):
    # a constant a is audited as one matrix, with the report of auditing
    # it at every interior point
    want = repr(oracles.ellipticity_report(coeffs, unit_square_17))
    assert repr(ep.check_ellipticity(coeffs, unit_square_17)) == want


def test_assemble_evaluates_callable_coefficients_once(unit_square_17):
    calls = {"a": 0, "c": 0}

    def a(pts):
        calls["a"] += 1
        return 1.0 + pts[:, 0] ** 2

    def c(pts):
        calls["c"] += 1
        return -1.0 - pts[:, 1] ** 2

    ep.assemble(unit_square_17, ep.CoefficientSet(a=a, c=c))
    assert calls == {"a": 1, "c": 1}


@pytest.mark.parametrize(
    "mask, coeffs, scheme",
    _FACTORED + [
        (_box(3, *_ANISO_3D), ep.CoefficientSet(a=np.array([2.0, 1.0, 0.5]), c=-1.0), None),
        (_box(2, 17, (-1.0, 1.0)), ep.CoefficientSet(b=np.array([300.0, -1.0])),
         ep.SchemeOptions(drift="centered")),
    ],
    ids=_FACTORED_IDS + ["3d-aniso-c", "centered-drift"],
)
def test_blocks_are_the_canonical_csr_of_their_entries(mask, coeffs, scheme):
    # built straight from the stencil legs, A_II and A_IB equal the CSR
    # blocks that COO conversion and column slicing give, byte for byte
    op = ep.assemble(mask, coeffs, scheme)
    for got, want in zip((op.interior_matrix, op.boundary_matrix), oracles.coo_blocks(op)):
        assert got.shape == want.shape
        for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
