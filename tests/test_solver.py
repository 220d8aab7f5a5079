import logging

import numpy as np
import numpy.testing as npt
import pytest

import ellipot as ep
from ellipot.errors import NonConvergenceError

import oracles


def test_1d_linear_reaction_matches_cosh(unit_interval_65):
    # u'' = u with u = 1 at both ends has solution cosh(x - 1/2)/cosh(1/2)
    op = ep.assemble(unit_interval_65)
    phi = ep.power_phi(1.0, 1.0)
    u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    x = unit_interval_65.grid.points()[unit_interval_65.interior_flat][:, 0]
    exact = np.cosh(x - 0.5) / np.cosh(0.5)
    h = unit_interval_65.grid.spacing[0]
    assert np.max(np.abs(u.interior() - exact)) <= 5.0 * h * h
    assert rep.converged
    # center value against the analytic one
    assert u.at([0.5]) == pytest.approx(1.0 / np.cosh(0.5), abs=5 * h * h)
    assert 1.0 / np.cosh(0.5) == pytest.approx(0.8868188839700739, abs=1e-15)


def test_agrees_with_newton_oracle(rng, unit_square_17):
    mask = unit_square_17
    coeffs = ep.CoefficientSet(b=np.array([0.4, -0.2]), c=-0.1)
    op = ep.assemble(mask, coeffs)
    pts = mask.grid.points()[mask.interior_flat]
    p = 1.0 / (1.0 + np.sum(pts**2, axis=1))
    phi = ep.power_phi(lambda q: 1.0 / (1.0 + np.sum(q**2, axis=1)), 0.5)
    f = lambda q: 1.0 + 0.5 * q[:, 0]
    u, rep = ep.solve_semilinear_dirichlet(op, phi, f)
    assert rep.converged

    B = -op.interior_matrix
    fb = ep.boundary_values(mask, f)
    rhs = op.boundary_matrix @ fb

    def phi_vec(v):
        return p * np.sqrt(np.maximum(v, 0.0))

    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)


def test_identity_residual_small(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    assert rep.identity_residual <= 1e-9


def test_solution_below_harmonic_extension(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    f = lambda pts: 1.0 + pts[:, 1]
    u, _ = ep.solve_semilinear_dirichlet(op, phi, f)
    h = ep.harmonic_extension(op, f)
    assert np.all(u.interior() <= h.interior() + 1e-12)
    assert np.all(u.interior() >= -1e-12)


def test_monotone_in_boundary_data(rng, unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    for _ in range(10):
        f1 = rng.uniform(0.2, 1.0, size=unit_square_17.n_boundary)
        f2 = f1 + rng.uniform(0.0, 0.5, size=unit_square_17.n_boundary)
        u1, _ = ep.solve_semilinear_dirichlet(op, phi, f1)
        u2, _ = ep.solve_semilinear_dirichlet(op, phi, f2)
        assert np.all(u2.interior() >= u1.interior() - 1e-10)


def test_linear_reaction_scales_exactly(unit_square_17):
    # phi = p t makes the solution map linear in the boundary data
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(2.0, 1.0)
    u1, _ = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    u3, _ = ep.solve_semilinear_dirichlet(op, phi, 3.0)
    npt.assert_allclose(u3.interior(), 3.0 * u1.interior(), atol=1e-9)


def test_nonpositive_boundary_data_gives_harmonic_solution(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    f = lambda pts: -1.0 - pts[:, 0]
    u, rep = ep.solve_semilinear_dirichlet(op, phi, f)
    h = ep.harmonic_extension(op, f)
    npt.assert_allclose(u.interior(), h.interior(), atol=1e-10)
    assert "negative" in rep.message


def test_classify_super_sub(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    u, _ = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    assert ep.classify_super_sub(op, phi, u).verdict == "solution"
    up = u + ep.Field.constant(unit_square_17, 0.3)
    assert ep.classify_super_sub(op, phi, up).verdict == "supersolution"
    down = u - ep.Field.constant(unit_square_17, 0.3)
    assert ep.classify_super_sub(op, phi, down).verdict == "subsolution"
    wob = ep.Field.from_function(
        unit_square_17, lambda pts: 1.0 + np.sin(20.0 * pts[:, 0])
    )
    assert ep.classify_super_sub(op, phi, wob).verdict == "neither"


def test_minimum_of_supersolutions_is_supersolution(unit_square_17):
    # pointwise minimum of two supersolutions stays a supersolution
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    u1, _ = ep.solve_semilinear_dirichlet(op, phi, lambda pts: 1.0 + pts[:, 0])
    u2, _ = ep.solve_semilinear_dirichlet(op, phi, lambda pts: 2.0 - pts[:, 1])
    vals = np.minimum(u1.values, u2.values)
    m = ep.Field(unit_square_17, vals)
    verdict = ep.classify_super_sub(op, phi, m).verdict
    assert verdict in ("supersolution", "solution")


def test_non_convergence_raises_with_details(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 0.5)
    params = ep.SemilinearParams(tol=1e-14, max_iterations=2)
    with pytest.raises(NonConvergenceError) as err:
        ep.solve_semilinear_dirichlet(op, phi, 1.0, params)
    assert err.value.iterations == 2
    assert err.value.final_increment > 0

    params = ep.SemilinearParams(tol=1e-14, max_iterations=2, raise_on_fail=False)
    u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0, params)
    assert not rep.converged
    assert rep.iterations == 2


def test_dead_core_terminates_cleanly():
    # strong sqrt absorption on a wide box collapses the middle to zero;
    # the solver must stop instead of chasing sub-resolution flicker
    grid = ep.build_grid(1, 257, (-20.0, 20.0))
    mask = ep.box_mask(grid)
    op = ep.assemble(mask)
    phi = ep.power_phi(1.0, 0.5)
    u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    assert rep.converged
    assert u.at([0.0]) <= 1e-8
    assert rep.iterations < 5000
    # u'' = sqrt(u), u(wall) = 1, touches zero at distance 2*sqrt(3) from
    # the wall with the quartic profile u = (2 sqrt(3) - s)^4 / 144
    x = mask.grid.points()[mask.interior_flat][:, 0]
    s = 20.0 - np.abs(x)
    s0 = 2.0 * np.sqrt(3.0)
    profile = np.maximum(s0 - s, 0.0) ** 4 / 144.0
    err = np.max(np.abs(u.interior() - profile))
    h = grid.spacing[0]
    assert err <= 10.0 * h * h


def test_solve_linear_reaction_matches_dense(unit_square_17, rng):
    op = ep.assemble(unit_square_17)
    q = rng.uniform(0.0, 3.0, size=unit_square_17.n_interior)
    u = ep.solve_linear_reaction(op, q, 1.0)
    B = (-op.interior_matrix).toarray() + np.diag(q)
    fb = np.ones(unit_square_17.n_boundary)
    ref = np.linalg.solve(B, op.boundary_matrix @ fb)
    npt.assert_allclose(u.interior(), ref, atol=1e-10)
    with pytest.raises(ValueError):
        ep.solve_linear_reaction(op, -np.ones(unit_square_17.n_interior), 1.0)


def test_report_round_trips_to_json(unit_square_17):
    op = ep.assemble(unit_square_17)
    phi = ep.power_phi(1.0, 1.0)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    import json

    back = json.loads(rep.to_json())
    assert back["converged"] is True
    assert back["method"] == "shifted-picard"
    assert back["iterations"] == rep.iterations


def test_upwind_drift_solve_certifies_and_counts_factorizations(unit_square_17):
    # strong upwinded drift makes -A_II far from symmetric, so the LU's
    # partial pivoting is exercised under the fill-reducing ordering
    op = ep.assemble(unit_square_17, ep.CoefficientSet(b=np.array([6.0, -4.0])))
    phi = ep.power_phi(1.0, 0.5)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, lambda pts: 1.0 + pts[:, 0])
    assert rep.converged
    assert rep.identity_residual <= 1e-8
    # the operator's own factor plus the shifted one and its refreshes
    assert rep.factorizations == 2 + rep.lambda_refreshes
    assert rep.factor_nnz > 0
    # the operator's factor is cached now: a second solve builds only the
    # shifted factorizations
    _, again = ep.solve_semilinear_dirichlet(op, phi, 2.0)
    assert again.factorizations == 1 + again.lambda_refreshes
    assert again.identity_residual <= 1e-8


def test_each_solve_logs_one_debug_line(unit_square_17, caplog):
    op = ep.assemble(unit_square_17)
    with caplog.at_level(logging.DEBUG, logger="ellipot.solver"):
        _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    lines = [r.getMessage() for r in caplog.records if r.name == "ellipot.solver"]
    assert len(lines) == 1
    assert f"after {rep.iterations} iterations" in lines[0]
    assert f"{rep.factorizations} factorizations (fill {rep.factor_nnz})" in lines[0]


def test_nonsymmetric_operator_never_enters_cg(unit_square_17):
    # CG needs a symmetric matrix: a drift term keeps the LU path, with
    # the shifted factor built before the first step
    op = ep.assemble(unit_square_17, ep.CoefficientSet(b=np.array([0.4, -0.2])))
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert rep.converged
    assert rep.inner_iterations == 0
    assert rep.factorizations == 2 + rep.lambda_refreshes


def test_debug_line_counts_cg_iterations(caplog):
    op = ep.assemble(ep.box_mask(ep.build_grid(3, 9, (0.0, 1.0))))
    with caplog.at_level(logging.DEBUG, logger="ellipot.solver"):
        _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    lines = [r.getMessage() for r in caplog.records if r.name == "ellipot.solver"]
    assert rep.inner_iterations > 0
    assert f"{rep.inner_iterations} CG iterations" in lines[0]


def test_stagnated_solve_keeps_negative_data_warning():
    # tol = 0 cannot be met, so the solve ends through the stagnation
    # branch; the warning about negative boundary data must survive it
    mask = ep.box_mask(ep.build_grid(2, 9, (-1.0, 1.0)))
    op = ep.assemble(mask)
    params = ep.SemilinearParams(tol=0.0, max_iterations=3000, raise_on_fail=False)
    _, rep = ep.solve_semilinear_dirichlet(
        op, ep.power_phi(1.0, 1.0), lambda pts: pts[:, 0], params
    )
    assert rep.iterations < params.max_iterations
    assert rep.message.startswith("increment stagnated")
    assert "boundary data has negative values" in rep.message


def _equation_residual(op, u_int, phi_vec, f):
    B = -op.interior_matrix
    rhs = op.boundary_matrix @ ep.boundary_values(op.mask, f)
    return float(np.max(np.abs(B @ u_int + phi_vec(u_int) - rhs))), B, rhs


@pytest.mark.parametrize("m", [1.0, 100.0, 1e4])
def test_cg_inner_solves_meet_the_outer_gate(m):
    # an off-centre 3D box keeps m = 1e4 clear of a dead core while its
    # shifts reach 1e5, so CG runs on badly scaled systems; the absolute
    # inner tolerance must still deliver the equation residual it claims
    mask = ep.box_mask(ep.build_grid(3, 17, (2.0, 3.0)))
    op = ep.assemble(mask)
    weight = lambda q: m * (1.0 + np.sqrt(np.sum(q**2, axis=1))) ** -3
    p = weight(mask.interior_points())
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(weight, 0.5), 1.0)
    assert rep.converged
    assert rep.factorizations <= 1
    assert rep.inner_iterations > 0

    def phi_vec(v):
        return p * np.sqrt(np.maximum(v, 0.0))

    res, B, rhs = _equation_residual(op, u.interior(), phi_vec, 1.0)
    assert res <= 10.0 * rep.tol
    assert rep.identity_residual <= 1e-8
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)


def _pays_for_a_shifted_factor(mask):
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert rep.converged

    def phi_vec(v):
        return np.sqrt(np.maximum(v, 0.0))

    res, B, rhs = _equation_residual(op, u.interior(), phi_vec, 1.0)
    assert res <= 10.0 * rep.tol
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)
    return op, rep


def test_2d_solve_pays_for_a_shifted_factor():
    # in 2D a factor costs fewer multiply-adds than the CG iterations a
    # Picard step needs, so the ledger switches to a shifted LU; a disc
    # is no box, so its B is factored too
    grid = ep.build_grid(2, 65, (-1.0, 1.0))
    disc = ep.mask_from_predicate(grid, lambda pts: np.sum(pts**2, axis=1) < 0.81)
    _, rep = _pays_for_a_shifted_factor(disc)
    assert rep.factorizations >= 2


def test_2d_box_pays_for_a_shifted_factor_only():
    # on a box the ledger prices the factor from _BOX_FILL, and B itself
    # is solved by DST: every factorization counted is a shifted one
    op, rep = _pays_for_a_shifted_factor(ep.box_mask(ep.build_grid(2, 65, (-1.0, 1.0))))
    assert not op.is_factored
    assert rep.factorizations == 1 + rep.lambda_refreshes


def test_box_ledger_does_not_depend_on_a_cached_factor():
    # the ledger's price follows the path op.solve takes, so a box that a
    # caller has already factored runs the same iterations as a fresh one
    mask = ep.box_mask(ep.build_grid(2, 33, (-1.0, 1.0)))
    phi = ep.power_phi(1.0, 0.5)
    fresh = ep.assemble(mask)
    factored = ep.assemble(mask)
    factored.factor()
    u0, rep0 = ep.solve_semilinear_dirichlet(fresh, phi, 1.0)
    u1, rep1 = ep.solve_semilinear_dirichlet(factored, phi, 1.0)
    assert fresh.solves_by_dst and not fresh.is_factored
    assert rep1.inner_iterations == rep0.inner_iterations
    assert (rep1.factorizations, rep1.factor_nnz) == (rep0.factorizations, rep0.factor_nnz)
    npt.assert_array_equal(u1.values, u0.values)
