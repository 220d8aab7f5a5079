import json
import logging

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ellipot as ep
from ellipot import cli
from ellipot.errors import NonConvergenceError
from ellipot.solver import _lattice_colours, _pointwise_root

import oracles


def _picard_square():
    # the unit square with 18 points a side: its interior side 16 does not
    # halve to an odd side, so solves on it keep the shifted-Picard path
    return ep.box_mask(ep.build_grid(2, 18, (0.0, 1.0)))


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
    up = ep.Field(unit_square_17, u.values + 0.3)
    assert ep.classify_super_sub(op, phi, up).verdict == "supersolution"
    down = ep.Field(unit_square_17, u.values - 0.3)
    assert ep.classify_super_sub(op, phi, down).verdict == "subsolution"
    x = unit_square_17.grid.points()[:, 0]
    wob = ep.Field(unit_square_17, 1.0 + np.sin(20.0 * x))
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
    with pytest.raises(NonConvergenceError, match="no convergence in 2 iterations") as err:
        ep.solve_semilinear_dirichlet(op, phi, 1.0, params)
    rep = err.value.report
    assert not rep.converged
    assert rep.status == "failed"
    assert rep.iterations == 2
    assert rep.final_increment > 0
    assert f"increment {rep.final_increment:.3e}" in str(err.value)
    u = err.value.field
    assert u.mask is unit_square_17
    assert u.sup_interior() == rep.sup_solution


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


def test_report_round_trips_to_json():
    op = ep.assemble(_picard_square())
    phi = ep.power_phi(1.0, 1.0)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    back = json.loads(json.dumps(rep.as_dict()))
    assert back["converged"] is True
    assert back["method"] == "shifted-picard"
    assert back["iterations"] == rep.iterations


def test_fas_report_round_trips_to_json(unit_square_17):
    # interior side 15 -> 7 -> 3: the box takes FAS, whose iterations are
    # V-cycles and whose shift fields stay 0
    op = ep.assemble(unit_square_17)
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 1.0), 1.0)
    back = json.loads(json.dumps(rep.as_dict()))
    assert back["converged"] is True
    assert back["status"] == "converged"
    assert back["method"] == "fas"
    assert back["iterations"] == rep.iterations
    assert (back["lambda_max"], back["lambda_refreshes"]) == (0.0, 0)
    assert (back["factorizations"], back["inner_iterations"]) == (0, 0)


def test_upwind_drift_solve_certifies_and_counts_factorizations():
    # strong upwinded drift makes -A_II far from symmetric, so the LU's
    # partial pivoting is exercised under the fill-reducing ordering
    op = ep.assemble(_picard_square(), ep.CoefficientSet(b=np.array([6.0, -4.0])))
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


def test_upwind_drift_fas_solve_factors_only_the_operator(unit_square_17):
    # on a box that coarsens the drift operator takes FAS: the harmonic
    # extension factors B once, and no shifted matrix is factored
    op = ep.assemble(unit_square_17, ep.CoefficientSet(b=np.array([6.0, -4.0])))
    phi = ep.power_phi(1.0, 0.5)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, lambda pts: 1.0 + pts[:, 0])
    assert rep.method == "fas"
    assert rep.identity_residual <= 1e-8
    assert rep.factorizations == 1
    assert rep.factor_nnz > 0
    _, again = ep.solve_semilinear_dirichlet(op, phi, 2.0)
    assert again.factorizations == again.factor_nnz == 0


def test_each_solve_logs_one_debug_line(unit_square_17, caplog):
    op = ep.assemble(unit_square_17)
    with caplog.at_level(logging.DEBUG, logger="ellipot.solver"):
        _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    lines = [r.getMessage() for r in caplog.records if r.name == "ellipot.solver"]
    assert len(lines) == 1
    assert f"after {rep.iterations} iterations" in lines[0]
    assert f"{rep.factorizations} factorizations (fill {rep.factor_nnz})" in lines[0]


def test_nonsymmetric_operator_never_enters_cg():
    # CG needs a symmetric matrix: a drift term keeps the LU path, with
    # the shifted factor built before the first step
    op = ep.assemble(_picard_square(), ep.CoefficientSet(b=np.array([0.4, -0.2])))
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
    params = ep.SemilinearParams(tol=0.0, max_iterations=3000)
    with pytest.raises(NonConvergenceError) as err:
        ep.solve_semilinear_dirichlet(
            op, ep.power_phi(1.0, 1.0), lambda pts: pts[:, 0], params
        )
    rep = err.value.report
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
    # on a 2D lattice B + Lambda is factored from the first step; a disc
    # is no box, so its B is factored too
    grid = ep.build_grid(2, 65, (-1.0, 1.0))
    disc = ep.mask_from_predicate(grid, lambda pts: np.sum(pts**2, axis=1) < 0.81)
    _, rep = _pays_for_a_shifted_factor(disc)
    assert rep.factorizations >= 2


def test_2d_box_pays_for_a_shifted_factor_only():
    # B itself is solved by DST: every factorization counted is a shifted one
    # (interior side 65 halves to 32, so the box keeps shifted Picard)
    op, rep = _pays_for_a_shifted_factor(ep.box_mask(ep.build_grid(2, 67, (-1.0, 1.0))))
    assert not op.is_factored
    assert rep.factorizations == 1 + rep.lambda_refreshes


@pytest.mark.parametrize("dim, shape", [(1, 129), (2, 35)])
def test_1d_and_2d_box_solves_factor_from_the_first_step(dim, shape):
    # the lattice picks the path: no CG iteration before the shifted factor
    # (a 2D interior side of 33 halves to 16, so FAS does not apply)
    op = ep.assemble(ep.box_mask(ep.build_grid(dim, shape, (-1.0, 1.0))))
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert rep.converged
    assert rep.inner_iterations == 0
    assert rep.factorizations == 1 + rep.lambda_refreshes


def test_3d_box_hands_over_to_a_factor_after_n_cg_iterations():
    # a residual of 1e-14 is below what CG reaches on a 9^3 box, so the
    # first step runs n = 7^3 iterations, then factors B + Lambda for good
    op = ep.assemble(ep.box_mask(ep.build_grid(3, 9, (-1.0, 1.0))))
    params = ep.SemilinearParams(tol=1e-14, max_iterations=3)
    with pytest.raises(NonConvergenceError) as err:
        ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0, params)
    rep = err.value.report
    assert not rep.converged
    assert rep.inner_iterations == op.n_interior == 343
    assert rep.factorizations == 1


def test_box_solve_does_not_depend_on_a_cached_factor():
    # the shifted path follows the lattice, so a box that a caller has
    # already factored runs the same steps as a fresh one
    mask = ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0)))
    phi = ep.power_phi(1.0, 0.5)
    fresh = ep.assemble(mask)
    factored = ep.assemble(mask)
    factored.factor()
    u0, rep0 = ep.solve_semilinear_dirichlet(fresh, phi, 1.0)
    u1, rep1 = ep.solve_semilinear_dirichlet(factored, phi, 1.0)
    assert not fresh.is_factored
    assert rep1.inner_iterations == rep0.inner_iterations
    assert (rep1.factorizations, rep1.factor_nnz) == (rep0.factorizations, rep0.factor_nnz)
    npt.assert_array_equal(u1.values, u0.values)


def test_stagnated_solve_is_not_converged():
    # the stagnation branch stops a solve that cannot meet its gates; it
    # raises, with the stop in its message and its report (interior side
    # 7 halves to 3, so the V-cycles of FAS reach rounding and go flat)
    mask = ep.box_mask(ep.build_grid(2, 9, (-1.0, 1.0)))
    op = ep.assemble(mask)
    params = ep.SemilinearParams(tol=0.0, max_iterations=3000)
    with pytest.raises(NonConvergenceError, match="increment stagnated") as err:
        ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 1.0), 1.0, params)
    rep = err.value.report
    assert not rep.converged
    assert (rep.method, rep.status) == ("fas", "stagnated")
    assert rep.iterations < params.max_iterations
    assert rep.message.startswith("increment stagnated")


def _cross_operator(cross, mask=None):
    if mask is None:
        mask = ep.box_mask(ep.build_grid(2, 17, (-1.0, 1.0)))
    dim = mask.grid.dim
    a = 0.7 * np.eye(dim) + 0.15 * np.ones((dim, dim))
    return ep.assemble(mask, ep.CoefficientSet(a=a), ep.SchemeOptions(cross=cross))


@pytest.mark.parametrize(
    "make_op, n_colours",
    [
        (lambda: ep.assemble(ep.box_mask(ep.build_grid(2, 17, (-1.0, 1.0)))), 2),
        (lambda: ep.assemble(ep.box_mask(ep.build_grid(3, 9, (0.0, 1.0)))), 2),
        (lambda: ep.assemble(ep.mask_from_predicate(
            ep.build_grid(2, 33, (-1.0, 1.0)), lambda q: np.sum(q**2, axis=1) < 0.81)), 2),
        # cross legs couple diagonal neighbours: 2^d colours
        (lambda: _cross_operator("corner"), 4),
        (lambda: _cross_operator("tilted"), 4),
        (lambda: _cross_operator("tilted", ep.box_mask(ep.build_grid(3, 9, (0.0, 1.0)))), 8),
    ],
    ids=["box2d", "box3d", "disc", "corner", "tilted", "tilted3d"],
)
def test_no_colour_couples_to_itself(make_op, n_colours):
    op = make_op()
    B = sp.csr_matrix(-op.interior_matrix)
    off = (B - sp.diags(B.diagonal())).tocoo()
    off.eliminate_zeros()
    colours = _lattice_colours(op.mask, off)
    assert off.nnz > 0
    assert not np.any(colours[off.row] == colours[off.col])
    assert len(np.unique(colours)) == n_colours


@pytest.mark.parametrize(
    "rho",
    [
        lambda t: np.power(t, 0.5),
        lambda t: np.power(t, 3.0),
        lambda t: np.minimum(t, 0.3),
        lambda t: 2.0 * t + 0.5,
        cli._compile_profile("t^0.25 + t/(1 + t)"),
        ep.build_concave_majorant(ep.power_phi(1.0, 0.5)).rho,
    ],
    ids=["sqrt", "cubic", "capped", "affine", "expr", "majorant"],
)
def test_pointwise_root_is_exact(rho):
    # known roots from 1e-20 to 10, warm starts off by factors of 1e13
    # down to exact, densities from 0 to 1e3
    rng = np.random.default_rng(3)
    n = 400
    root = 10.0 ** rng.uniform(-20.0, 1.0, n)
    root[:50] = 10.0 ** rng.uniform(-20.5, -19.5, 50)
    b = 10.0 ** rng.uniform(0.0, 4.0, n)
    p = np.where(np.arange(n) % 7 == 0, 0.0, 10.0 ** rng.uniform(-1.0, 3.0, n))
    s = b * root + p * rho(root)
    t0 = root * 10.0 ** rng.uniform(-1.0, 13.0, n)
    t0[:50] = 1e-7
    t0[-20:] = root[-20:]
    eps = 1e-12
    t = _pointwise_root(b, p, rho, s, t0, eps)
    g = np.abs(b * t + p * rho(t) - s)
    # within eps, or within the rounding of s where s is too large for eps
    floor = 4.0 * np.finfo(float).eps * s
    assert np.all(g[floor <= eps] <= eps)
    assert np.all(g <= np.maximum(eps, floor))
    assert np.all(t >= 0.0)


def test_pointwise_root_stops_at_a_jump():
    # rho = t + 1 jumps at t = 0, so b t + rho(t) = 1/2 has no root: the
    # trial budget runs out and the bracket's upper end, near 0, comes back
    t = _pointwise_root(
        np.array([4.0]), np.array([1.0]), lambda t: t + 1.0, np.array([0.5]),
        np.array([0.1]), 1e-12,
    )
    assert 0.0 < t[0] < 1e-6


def _dead_core_box_67():
    # interior side 65 halves to 32: the box keeps shifted Picard, whose
    # iterates are clamped to exact zeros in the dead core
    mask = ep.box_mask(ep.build_grid(2, 67, (-8.0, 8.0)))
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    return op, u, rep


def test_dead_core_box_converges_honestly():
    # sqrt absorption empties the middle of a 2D box: the exact pointwise
    # sweep settles the ring around the dead core, so the solve meets the
    # gate on the recomputed residual instead of stalling
    op, u, rep = _dead_core_box_67()
    assert u.at([0.0, 0.0]) == 0.0
    assert rep.converged
    assert not rep.message.startswith("increment stagnated")

    def phi_vec(v):
        return np.sqrt(np.maximum(v, 0.0))

    res, _, _ = _equation_residual(op, u.interior(), phi_vec, 1.0)
    assert res <= 10.0 * rep.tol
    assert rep.error_bound <= 1e-8


def test_dead_core_with_cross_terms_converges():
    # tilted cross legs couple diagonal neighbours, so the sweep runs on
    # the four parity colours; the solve still meets its gate
    mask = ep.box_mask(ep.build_grid(2, 49, (-8.0, 8.0)))
    op = _cross_operator("tilted", mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert u.at([0.0, 0.0]) == 0.0
    assert rep.converged
    res, _, _ = _equation_residual(op, u.interior(), lambda v: np.sqrt(np.maximum(v, 0.0)), 1.0)
    assert res <= 10.0 * rep.tol
    assert rep.error_bound <= 1e-8


def test_error_bound_covers_the_true_error():
    # a loose tol leaves a visible error; the linear reaction q t has its
    # discrete solution in closed form, (B + q) u* = A_IB f
    mask = ep.box_mask(ep.build_grid(2, 33, (-1.0, 1.0)))
    op = ep.assemble(mask)
    q = 3.0 * (1.0 + mask.interior_points()[:, 0] ** 2)
    params = ep.SemilinearParams(tol=1e-5)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(q, 1.0), 1.0, params)
    B = -op.interior_matrix + sp.diags(q)
    exact = spla.spsolve(sp.csc_matrix(B), op.boundary_matrix @ np.ones(mask.n_boundary))
    err = float(np.max(np.abs(u.interior() - exact)))
    assert err > 0.0
    assert err <= rep.error_bound <= 1e3 * err


def test_error_bound_covers_the_newton_solution(unit_square_17):
    op = ep.assemble(unit_square_17)
    params = ep.SemilinearParams(tol=1e-6)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(5.0, 0.5), 1.0, params)

    def phi_vec(v):
        return 5.0 * np.sqrt(np.maximum(v, 0.0))

    _, B, rhs = _equation_residual(op, u.interior(), phi_vec, 1.0)
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    assert float(np.max(np.abs(u.interior() - ref))) <= rep.error_bound


def test_debug_line_reports_the_error_bound(caplog):
    with caplog.at_level(logging.DEBUG, logger="ellipot.solver"):
        _, _, rep = _dead_core_box_67()
    lines = [r.getMessage() for r in caplog.records if r.name == "ellipot.solver"]
    assert f"error bound {rep.error_bound:.3e}" in lines[0]


def test_no_sweep_where_shifts_stay_below_the_diagonal(monkeypatch):
    # without a dead core every shift stays below B's diagonal and the
    # solve is plain shifted Picard
    from ellipot import solver

    def refuse(*args, **kwargs):
        raise AssertionError("sweep built")

    monkeypatch.setattr(solver, "_ExactSweep", refuse)
    _, rep = ep.solve_semilinear_dirichlet(
        ep.assemble(_picard_square()), ep.power_phi(1.0, 0.5), 1.0
    )
    assert rep.converged


def test_large_data_is_held_to_the_rounding_floor():
    # with u ~ 1e4 next to the wall, no double vector has a residual below
    # about 1e-8 on this grid: the gate is the rounding floor, and the
    # report says so instead of stagnating
    op = ep.assemble(ep.box_mask(ep.build_grid(1, 257, (-1.0, 1.0))))
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 3.0), 1e4)
    assert rep.converged
    assert rep.final_residual > 10.0 * rep.tol
    assert rep.message.startswith(f"residual {rep.final_residual:.3e} met the rounding floor")
    assert rep.error_bound <= 1e-7


def test_each_row_is_held_to_its_own_rounding_floor():
    # the rows next to the wall carry terms near 1e5 times those of the
    # middle; a middle row (u ~ 2) is held to 10 tol, not to the floor of
    # the wall rows, which is some 300 times larger
    op = ep.assemble(ep.box_mask(ep.build_grid(1, 257, (-1.0, 1.0))))
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 3.0), 1e4)
    B, rhs = -op.interior_matrix, op.boundary_matrix @ np.full(op.n_boundary, 1e4)
    v = u.interior()
    r = np.abs(B @ v + v**3 - rhs)
    floor = 4.0 * np.finfo(float).eps * (abs(B) @ np.abs(v) + v**3 + np.abs(rhs))
    small = floor < 10.0 * rep.tol
    assert small.any() and r.max() < floor.max()
    assert np.all(r[small] <= 10.0 * rep.tol)
    assert np.all(r <= np.maximum(10.0 * rep.tol, floor))


def test_a_small_row_is_not_excused_by_the_floor_of_a_large_row():
    # a reaction that wobbles by 1e-8 on the small values leaves the middle
    # rows a residual near 1e-8: above 10 tol and above their own floor,
    # below the floor of the wall rows (about 3e-7); the solve must not
    # converge on it
    op = ep.assemble(ep.box_mask(ep.build_grid(1, 257, (-1.0, 1.0))))
    calls = [0]

    def wobbly(t):
        calls[0] += 1
        return t**3 + 1e-8 * (-1.0) ** calls[0] * (t < 10.0)

    params = ep.SemilinearParams(max_iterations=2000)
    with pytest.raises(NonConvergenceError) as err:
        ep.solve_semilinear_dirichlet(op, ep.ProductPhi(1.0, wobbly), 1e4, params)
    rep = err.value.report
    assert not rep.converged
    assert rep.message.startswith("increment stagnated")


_DRIFT = ep.CoefficientSet(b=np.array([50.0, -50.0]))
_CROSS = ep.CoefficientSet(a=np.array([[1.0, 0.8], [0.8, 1.0]]))


@pytest.mark.parametrize(
    "coeffs, scheme, p",
    [
        (None, None, 1.0),
        (None, None, lambda q: q[:, 0] - 0.5),
        (_DRIFT, None, 1.0),
        (_DRIFT, ep.SchemeOptions(drift="centered"), 1.0),
        (_CROSS, None, 1.0),
        (_CROSS, ep.SchemeOptions(cross="tilted"), 1.0),
    ],
    ids=["laplacian", "signed_p", "upwind", "centered", "corner", "tilted"],
)
def test_error_bound_is_withheld_off_its_hypotheses(unit_square_17, coeffs, scheme, p):
    # a reaction decreasing in t where p < 0, or a B whose inverse has
    # negative entries, breaks (B + D)^-1 <= B^-1: no bound is claimed,
    # and the operators check_m_matrix passes keep theirs
    op = ep.assemble(unit_square_17, coeffs, scheme)
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(p, 0.5), 1.0)
    held = ep.check_m_matrix(op).is_m_matrix and not callable(p)
    assert np.isfinite(rep.error_bound) == held
    assert ("no error bound" in rep.message) == (not held)


def test_fas_dead_core_box_matches_the_1d_profile():
    # sqrt absorption on a 65-point box of half-width 8: the interior side
    # 63 halves to 31, 15, 7 and 3, so the solve runs FAS V-cycles
    mask = ep.box_mask(ep.build_grid(2, 65, (-8.0, 8.0)))
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    # each cycle cuts the error by about an order of magnitude: ten
    # cycles from the harmonic extension to tol
    assert rep.iterations <= 15
    v = u.interior()
    res, _, _ = _equation_residual(op, v, lambda t: np.sqrt(np.maximum(t, 0.0)), 1.0)
    assert res <= 10.0 * rep.tol
    assert np.all(v >= 0.0)
    # on the midline x2 = 0, far from the corners, the profile is the 1D
    # quartic (2 sqrt(3) - s)^4 / 144 in the distance s to the wall
    pts = mask.interior_points()
    mid = pts[:, 1] == 0.0
    s = 8.0 - np.abs(pts[mid, 0])
    profile = np.maximum(2.0 * np.sqrt(3.0) - s, 0.0) ** 4 / 144.0
    h = mask.grid.spacing[0]
    assert np.max(np.abs(v[mid] - profile)) <= 10.0 * h * h


@pytest.mark.parametrize(
    "make_mask",
    [
        lambda: ep.box_mask(ep.build_grid(2, 33, (-1.0, 1.0))),
        # sides 31 and 7: the short side stops coarsening at 3 while the
        # long one goes on to 15, 7 and 3
        lambda: ep.box_mask(ep.build_grid(2, (33, 9), ((-1.0, 1.0), (0.0, 0.5)))),
        # an interior block inside a larger lattice: the levels span the
        # block and its boundary layer, not the whole grid
        lambda: ep.mask_from_interior(
            ep.build_grid(2, 33, (-1.0, 1.0)),
            np.pad(np.ones((15, 7), dtype=bool), ((4, 14), (8, 18))),
        ),
    ],
    ids=["square", "oblong", "block"],
)
def test_fas_solve_with_drift_and_variable_coefficients_matches_newton(make_mask):
    # upwinded drift, variable a and c <= 0 are re-assembled on every level
    mask = make_mask()
    coeffs = ep.CoefficientSet(
        a=lambda q: 1.0 + 0.5 * q[:, 0] ** 2, b=np.array([4.0, -2.0]), c=-0.5
    )
    op = ep.assemble(mask, coeffs)
    weight = lambda q: 2.0 / (1.0 + np.sum(q**2, axis=1))
    f = lambda q: 1.0 + 0.5 * q[:, 0]
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(weight, 0.5), f)
    assert (rep.method, rep.status) == ("fas", "converged")
    p = weight(mask.interior_points())

    def phi_vec(v):
        return p * np.sqrt(np.maximum(v, 0.0))

    res, B, rhs = _equation_residual(op, u.interior(), phi_vec, f)
    assert res <= 10.0 * rep.tol
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)


@pytest.mark.parametrize(
    "make_mask",
    [
        # interior side 33 halves to 16
        lambda: ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0))),
        lambda: ep.mask_from_predicate(
            ep.build_grid(2, 33, (-1.0, 1.0)), lambda q: np.sum(q**2, axis=1) < 0.81
        ),
        lambda: ep.box_mask(ep.build_grid(1, 129, (-1.0, 1.0))),
        lambda: ep.box_mask(ep.build_grid(3, 9, (-1.0, 1.0))),
    ],
    ids=["box35", "disc", "box1d", "box3d"],
)
def test_lattices_off_the_fas_rule_keep_shifted_picard(make_mask):
    op = ep.assemble(make_mask())
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("shifted-picard", "converged")


def test_picard_solve_at_zero_tol_ends_stagnated():
    # the shifted-Picard twin of test_stagnated_solve_is_not_converged
    params = ep.SemilinearParams(tol=0.0, max_iterations=3000)
    with pytest.raises(NonConvergenceError, match="increment stagnated") as err:
        ep.solve_semilinear_dirichlet(
            ep.assemble(_picard_square()), ep.power_phi(1.0, 1.0), 1.0, params
        )
    rep = err.value.report
    assert (rep.method, rep.status) == ("shifted-picard", "stagnated")
    assert rep.iterations < params.max_iterations
