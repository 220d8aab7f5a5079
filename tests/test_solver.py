import gc
import itertools
import json
import logging
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

import ellipot as ep
from ellipot import cli, solver
from ellipot.errors import NonConvergenceError
from ellipot.nonlinearity import _sqrt_inverse
from ellipot.solver import (
    _FasCycle,
    _FasHierarchy,
    _GaussSeidelSweep,
    _fas_sides,
    _lattice_colours,
    _pointwise_root,
)

import oracles


def _disc():
    # a disc in the unit square with 18 points a side: no box, so its B is
    # factored by SuperLU
    grid = ep.build_grid(2, 18, (0.0, 1.0))
    return ep.mask_from_predicate(grid, lambda q: np.sum((q - 0.5) ** 2, axis=1) < 0.2)


def _disc_of(shape):
    # a disc of radius 0.9 in [-1, 1]^2
    grid = ep.build_grid(2, shape, (-1.0, 1.0))
    return ep.mask_from_predicate(grid, lambda q: np.sum(q**2, axis=1) < 0.81)


def _ball():
    # a ball in the unit cube
    grid = ep.build_grid(3, 14, (0.0, 1.0))
    return ep.mask_from_predicate(grid, lambda q: np.sum((q - 0.5) ** 2, axis=1) < 0.2)


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
    op = ep.assemble(_disc())
    phi = ep.power_phi(1.0, 1.0)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
    back = json.loads(json.dumps(rep.as_dict()))
    assert back["converged"] is True
    assert back["method"] == "fas"
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
    assert back["factorizations"] == 0


def test_upwind_drift_solve_certifies_and_counts_factorizations():
    # strong upwinded drift makes -A_II far from symmetric, so the LU's
    # partial pivoting is exercised under the fill-reducing ordering
    op = ep.assemble(_disc(), ep.CoefficientSet(b=np.array([6.0, -4.0])))
    phi = ep.power_phi(1.0, 0.5)
    _, rep = ep.solve_semilinear_dirichlet(op, phi, lambda pts: 1.0 + pts[:, 0])
    assert rep.converged
    assert rep.identity_residual <= 1e-8
    # the operator's own factor, built by the harmonic extension
    assert rep.factorizations == 1
    assert rep.factor_nnz > 0
    # the operator's factor is cached now: a second solve builds none
    _, again = ep.solve_semilinear_dirichlet(op, phi, 2.0)
    assert again.factorizations == again.factor_nnz == 0
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
    # the first cycle that does not shrink the increment ends the solve
    assert rep.iterations <= 20
    assert rep.message.startswith("increment stagnated")
    assert "boundary data has negative values" in rep.message


def _equation_residual(op, u_int, phi_vec, f):
    B = -op.interior_matrix
    rhs = op.boundary_matrix @ ep.boundary_values(op.mask, f)
    return float(np.max(np.abs(B @ u_int + phi_vec(u_int) - rhs))), B, rhs


def _badly_scaled_solve(mask, m):
    # an off-centre 3D box keeps m = 1e4 clear of a dead core; the solve
    # must deliver the equation residual it claims and Newton's solution
    op = ep.assemble(mask)
    weight = lambda q: m * (1.0 + np.sqrt(np.sum(q**2, axis=1))) ** -3
    p = weight(mask.interior_points())
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(weight, 0.5), 1.0)
    assert rep.converged

    def phi_vec(v):
        return p * np.sqrt(np.maximum(v, 0.0))

    res, B, rhs = _equation_residual(op, u.interior(), phi_vec, 1.0)
    assert res <= 10.0 * rep.tol
    assert rep.identity_residual <= 1e-8
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)
    return rep


@pytest.mark.parametrize("m", [1.0, 100.0, 1e4])
def test_fas_solves_of_badly_scaled_reactions_match_newton(m):
    # the FAS twin: interior side 15 halves to 7 and 3, so the same
    # weights run V-cycles, and neither B nor a shifted matrix is factored
    rep = _badly_scaled_solve(ep.box_mask(ep.build_grid(3, 17, (2.0, 3.0))), m)
    assert (rep.method, rep.status) == ("fas", "converged")
    assert rep.factorizations == 0


def test_box_solve_does_not_depend_on_a_cached_factor():
    # the path follows the lattice, so a box that a caller has already
    # factored runs the same steps as a fresh one
    mask = ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0)))
    phi = ep.power_phi(1.0, 0.5)
    fresh = ep.assemble(mask)
    factored = ep.assemble(mask)
    factored.factor()
    u0, rep0 = ep.solve_semilinear_dirichlet(fresh, phi, 1.0)
    u1, rep1 = ep.solve_semilinear_dirichlet(factored, phi, 1.0)
    assert not fresh.is_factored
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
    assert rep.iterations <= 20
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
    colours = _lattice_colours(op.mask, off.row, off.col)
    assert off.nnz > 0
    assert not np.any(colours[off.row] == colours[off.col])
    assert len(np.unique(colours)) == n_colours


_ROOT_PROFILES = pytest.mark.parametrize(
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


def _root_inputs(rho):
    # known roots from 1e-20 to 10, warm starts off by factors of 1e13
    # down to exact (the last 20), densities from 0 to 1e3
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
    return b, p, s, t0, 1e-12


@_ROOT_PROFILES
def test_pointwise_root_is_exact(rho):
    b, p, s, t0, eps = _root_inputs(rho)
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


@_ROOT_PROFILES
def test_forced_pointwise_root_stays_within_its_bound(rho):
    # the forced gate admits |G(t) - s| <= forcing * b |t - t'| with t'
    # the previous trial, and both lie in the bracket [0, s/b], so t is
    # within forcing * s / b of the root, or within max(eps, _ROUNDING * s)
    # / b where that is larger
    b, p, s, t0, eps = _root_inputs(rho)
    exact = _pointwise_root(b, p, rho, s, t0, eps)
    t = _pointwise_root(b, p, rho, s, t0, eps, forcing=solver._FORCING)
    floor = np.maximum(eps, 4.0 * np.finfo(float).eps * s)
    assert np.all(t >= 0.0)
    assert np.all(np.abs(b * t + p * rho(t) - s) <= np.maximum(floor, solver._FORCING * s))
    # the exact root is itself within floor / b of the true one
    assert np.all(np.abs(t - exact) <= np.maximum(floor, solver._FORCING * s) / b + floor / b)
    # from an exact warm start the first step is tiny, so the gate is the
    # exact root's
    g = np.abs(b * t + p * rho(t) - s)
    assert np.all(g[-20:] <= floor[-20:])


def test_sqrt_inverse_is_the_exact_root():
    # the closed form of b t + p sqrt(t) = s against the exact iterative
    # root, on the sqrt profile's inputs (every 7th has p = 0)
    b, p, s, t0, eps = _root_inputs(np.sqrt)
    t = _sqrt_inverse(b, p, s)
    floor = np.maximum(eps, solver._ROUNDING * s)
    assert np.all(np.abs(b * t + p * np.sqrt(t) - s) <= floor)
    # both lie within floor / b of the true root, on either side of it
    exact = _pointwise_root(b, p, np.sqrt, s, t0, eps, forcing=0.0)
    assert np.all(np.abs(t - exact) <= floor / b)
    # at p = 0 the root is s / b to the last bit
    zero = p == 0.0
    assert zero.sum() == 58
    assert np.array_equal(t[zero], s[zero] / b[zero])
    for scale in (1e-300, 1e12):
        t = _sqrt_inverse(b, p, np.full(s.size, scale))
        assert np.all(np.isfinite(t) & (t >= 0.0))


@pytest.mark.parametrize(
    "phi, forcing",
    [(ep.power_phi(1.0, 0.5), 0.0), (ep.ProductPhi(1.0, np.sqrt), solver._FORCING)],
    ids=["closed_form", "forced"],
)
def test_sweep_holds_exact_zeros(phi, forcing):
    # on both root branches, a point whose right side is 0 < s <= eps takes
    # t = 0 exactly, one with s <= 0 takes s / B_ii, and the others their
    # root, exact in closed form and forced otherwise; one colour with no
    # coupling, so each point's right side is its rhs entry
    n = 6
    rows = np.arange(n)
    diag = np.full(n, 4.0)
    eps = 1e-12
    sweep = _GaussSeidelSweep([(rows, sp.csr_matrix((n, n)), diag)], phi, np.ones(n), eps)
    rhs = np.array([eps, 0.5 * eps, 1e-300, -2.0, 1.0, 3.0])
    u = np.full(n, 0.7)
    sweep(u, rhs, -10.0)
    assert np.array_equal(u[:3], np.zeros(3))
    assert u[3] == -0.5
    g = diag[4:] * u[4:] + np.sqrt(u[4:]) - rhs[4:]
    floor = np.maximum(eps, solver._ROUNDING * rhs[4:])
    assert np.all((u[4:] > 0.0) & (np.abs(g) <= np.maximum(floor, forcing * rhs[4:])))


def _closed_forced_and_exact_solves(monkeypatch, make_op, p, boundary):
    # power_phi's sqrt takes the closed form; the same sqrt without an
    # inverse takes the forced root, and with _FORCING at 0 the exact one
    no_inverse = ep.ProductPhi(p, lambda t: t ** 0.5)
    solves = [
        ep.solve_semilinear_dirichlet(make_op(), ep.power_phi(p, 0.5), boundary),
        ep.solve_semilinear_dirichlet(make_op(), no_inverse, boundary),
    ]
    monkeypatch.setattr(solver, "_FORCING", 0.0)
    solves.append(ep.solve_semilinear_dirichlet(make_op(), no_inverse, boundary))
    return [(u.values, rep) for u, rep in solves]


def _radial_density(q):
    return (1.0 + np.sqrt(np.sum(q**2, axis=1))) ** -3


@pytest.mark.parametrize(
    "make_op, p, boundary, extra_cycles",
    [
        (lambda: ep.assemble(ep.box_mask(ep.build_grid(2, 67, (-8.0, 8.0)))), 1.0, 1.0, 0),
        (
            lambda: ep.assemble(ep.box_mask(ep.build_grid(3, 19, (-8.0, 8.0)))),
            _radial_density,
            1.0,
            0,
        ),
        (lambda: ep.assemble(_disc_of(65)), 1.0, 1.0, 0),
        (lambda: ep.assemble(_ball()), 1.0, 1.0, 0),
        (lambda: ep.assemble(ep.box_mask(ep.build_grid(1, 513, (-8.0, 8.0)))), 1.0, 1.0, 0),
        (
            lambda: ep.assemble(
                ep.box_mask(ep.build_grid(2, 35, (-2.0, 2.0))),
                ep.CoefficientSet(b=np.array([6.0, -4.0])),
            ),
            1.0,
            1.0,
            0,
        ),
        # hundreds of cycles that each shrink the increment only a little
        (
            lambda: ep.assemble(
                ep.box_mask(ep.build_grid(2, 65, (-1.0, 1.0))),
                ep.CoefficientSet(a=np.array([1.0, 0.01])),
            ),
            1.0,
            1.0,
            0,
        ),
        # the solve ends at a flat cycle on its rows' rounding floor, which
        # any change of the iterates' last digits moves by a cycle either way
        (lambda: ep.assemble(ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0)))), 1.0, 1e6, 2),
    ],
    ids=["deadcore2d", "box3d", "disc", "ball", "box1d", "upwind", "anisotropic", "boundary1e6"],
)
def test_forced_roots_solve_as_exact_roots_do(monkeypatch, make_op, p, boundary, extra_cycles):
    # the forced gate only loosens roots in sweeps whose points still move,
    # and the closed form is exact, so either solve takes no more V-cycles
    # than with exact roots, lands within the two certified error bounds
    # and holds the same exact zeros
    closed, forced, (ref_u, ref) = _closed_forced_and_exact_solves(
        monkeypatch, make_op, p, boundary
    )
    for u, rep in (forced, closed):
        assert (rep.status, ref.status) == ("converged", "converged")
        assert rep.iterations <= ref.iterations + extra_cycles
        assert np.nanmax(np.abs(u - ref_u)) <= rep.error_bound + ref.error_bound
        assert np.sum(u == 0.0) == np.sum(ref_u == 0.0)


def _dead_core_solve(mask):
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    return op, u, rep


def _dead_core_box_67():
    # interior side 65 halves to 32, 16, 7 and 3: the box takes FAS
    return _dead_core_solve(ep.box_mask(ep.build_grid(2, 67, (-8.0, 8.0))))


def _converges_honestly(op, u, rep):
    assert u.at([0.0, 0.0]) == 0.0
    assert rep.converged
    assert not rep.message.startswith("increment stagnated")

    def phi_vec(v):
        return np.sqrt(np.maximum(v, 0.0))

    res, _, _ = _equation_residual(op, u.interior(), phi_vec, 1.0)
    assert res <= 10.0 * rep.tol
    assert rep.error_bound <= 1e-8


def test_dead_core_box_converges_honestly():
    # sqrt absorption empties the middle of a 2D box: the exact pointwise
    # sweep settles the ring around the dead core, so the solve meets the
    # gate on the recomputed residual instead of stalling
    _converges_honestly(*_dead_core_box_67())


def test_dead_core_disc_converges_honestly():
    # a disc takes FAS on its bounding block, sliced to the interior; the
    # sweep on every level holds exact zeros in the dead core
    grid = ep.build_grid(2, 67, (-8.0, 8.0))
    op, u, rep = _dead_core_solve(
        ep.mask_from_predicate(grid, lambda q: np.sum(q**2, axis=1) < 56.25)
    )
    assert rep.method == "fas"
    _converges_honestly(op, u, rep)


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
    assert rep.iterations <= 20
    assert rep.message.startswith("increment stagnated")


@pytest.mark.parametrize(
    "a, b, shape, half_width",
    [
        (np.array([1.0, 1e-3]), None, 65, 8.0),
        (np.array([[1.0, 0.95], [0.95, 1.0]]), None, 33, 1.0),
        (1.0, np.array([1000.0, 0.0]), 65, 1.0),
    ],
    ids=["anisotropic", "corner_cross", "upwind"],
)
def test_slow_contracting_solves_still_converge(a, b, shape, half_width):
    # V-cycles that cut the increment only a little each time (tens of
    # cycles here) keep shrinking it, so no cycle of these solves is flat
    # before the gates are met
    mask = ep.box_mask(ep.build_grid(2, shape, (-half_width, half_width)))
    op = ep.assemble(mask, ep.CoefficientSet(a=a, b=b))
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert rep.status == "converged"
    assert rep.iterations >= 20


def test_reaction_jumping_at_zero_stagnates_at_once():
    # rho = t + 1/2 for t > 0 jumps at 0: the edge of the dead core cannot
    # settle, the residual stays near p / 2, and the first flat cycle ends
    # the solve where a window of cycles used to run on past 200
    op = ep.assemble(ep.box_mask(ep.build_grid(2, 33, (-4.0, 4.0))))
    with pytest.raises(NonConvergenceError, match="increment stagnated") as err:
        ep.solve_semilinear_dirichlet(op, ep.ProductPhi(1.0, lambda t: t + 0.5), 1.0)
    rep = err.value.report
    assert rep.status == "stagnated"
    assert rep.iterations <= 10
    assert rep.final_residual > 0.1


def test_no_bound_accepts_a_flat_increment_off_the_m_matrix_pattern():
    # with c = 1e6 the increment goes flat above tol while the residual
    # meets its rows' rounding floor; the corner cross scheme has no
    # error bound to accept that increment against, so the solve ends
    # stagnated at that cycle
    mask = ep.box_mask(ep.build_grid(2, 17, (-1.0, 1.0)))
    op = ep.assemble(mask, ep.CoefficientSet(a=np.array([[1.0, 0.5], [0.5, 1.0]])))
    with pytest.raises(NonConvergenceError, match="increment stagnated") as err:
        ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1e6)
    rep = err.value.report
    assert rep.final_increment > rep.tol
    assert rep.iterations <= 30


@pytest.mark.parametrize(
    "kwargs, where",
    [
        ({"tol": np.inf}, "tol"),
        ({"tol": np.nan}, "tol"),
        ({"tol": -1e-10}, "tol"),
        ({"max_iterations": 0}, "max_iterations"),
    ],
    ids=["inf", "nan", "negative", "no_budget"],
)
def test_solver_settings_are_checked_where_they_are_made(kwargs, where):
    # an infinite tol would accept any first cycle and a NaN tol none
    with pytest.raises(ValueError, match=f"^{where}: must be"):
        ep.SemilinearParams(**kwargs)


_DRIFT = ep.CoefficientSet(b=np.array([50.0, -50.0]))
_CROSS = ep.CoefficientSet(a=np.array([[1.0, 0.8], [0.8, 1.0]]))


@pytest.mark.parametrize(
    "coeffs, scheme, p, raises",
    [
        (None, None, 1.0, None),
        (None, None, lambda q: q[:, 0] - 0.5, "p must be nonnegative"),
        (_DRIFT, None, 1.0, None),
        # cell Peclet number 50 h = 3.1 > 2: B is neither an M-matrix nor
        # symmetric
        (_DRIFT, ep.SchemeOptions(drift="centered"), 1.0,
         "M-matrix sign pattern or be symmetric"),
        (_CROSS, None, 1.0, None),
        (_CROSS, ep.SchemeOptions(cross="tilted"), 1.0, None),
    ],
    ids=["laplacian", "signed_p", "upwind", "centered", "corner", "tilted"],
)
def test_error_bound_is_withheld_off_its_hypotheses(unit_square_17, coeffs, scheme, p,
                                                    raises):
    # a symmetric B whose inverse has negative entries (the corner cross)
    # breaks (B + D)^-1 <= B^-1: the solve claims no bound, and the
    # operators check_m_matrix passes keep theirs; a reaction decreasing
    # in t where p < 0, or a B neither an M-matrix nor symmetric, leaves
    # the exact sweep without its hypotheses, and the solve refuses it
    op = ep.assemble(unit_square_17, coeffs, scheme)
    if raises:
        with pytest.raises(ValueError, match=raises):
            ep.solve_semilinear_dirichlet(op, ep.power_phi(p, 0.5), 1.0)
        return
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(p, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    held = ep.check_m_matrix(op).is_m_matrix
    assert np.isfinite(rep.error_bound) == held
    assert ("no error bound" in rep.message) == (not held)


def _matches_the_1d_dead_core_profile(dim, shape):
    # sqrt absorption on a box of half-width 8, whose solve runs FAS
    # V-cycles
    mask = ep.box_mask(ep.build_grid(dim, shape, (-8.0, 8.0)))
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    # each cycle cuts the error by about an order of magnitude: 10 cycles
    # in 2D and 14 in 3D from the harmonic extension to tol
    assert rep.iterations <= 15
    # a point whose scalar right side is at most the root tolerance is
    # set to 0, which solves it to that tolerance: the dead core holds
    # exact zeros, at the centre or, on an even side, the points around it
    pts = mask.interior_points()
    h = mask.grid.spacing[0]
    v = u.interior()
    assert np.all(v[np.all(np.abs(pts) < 0.75 * h, axis=1)] == 0.0)
    res, _, _ = _equation_residual(op, v, lambda t: np.sqrt(np.maximum(t, 0.0)), 1.0)
    assert res <= 10.0 * rep.tol
    assert np.all(v >= 0.0)
    # on the midline through the centre of a face (the lattice lines next
    # to it on an even side), far from the edges, the profile is the 1D
    # quartic (2 sqrt(3) - s)^4 / 144 in the distance s to the wall
    mid = np.all(np.abs(pts[:, 1:]) < 0.75 * h, axis=1)
    s = 8.0 - np.abs(pts[mid, 0])
    profile = np.maximum(2.0 * np.sqrt(3.0) - s, 0.0) ** 4 / 144.0
    assert np.max(np.abs(v[mid] - profile)) <= 10.0 * h * h


def test_fas_dead_core_box_matches_the_1d_profile():
    # interior side 63 -> 31 -> 15 -> 7 -> 3
    _matches_the_1d_dead_core_profile(2, 65)


def test_fas_dead_core_cube_matches_the_1d_profile():
    # the 3D twin: interior side 31 -> 15 -> 7 -> 3
    _matches_the_1d_dead_core_profile(3, 33)


def test_fas_dead_core_box_with_even_sides_matches_the_1d_profile():
    # interior side 66 -> 33 -> 16 -> 7 -> 3: the even sides coarsen to
    # pair midpoints, widening at 66 and narrowing at 16
    _matches_the_1d_dead_core_profile(2, 68)


@pytest.mark.parametrize(
    "side, levels",
    [
        (65, [32, 16, 7, 3]),
        (64, [32, 15, 7, 3]),
        (128, [64, 31, 15, 7, 3]),
        (9, [4, 2]),
        (21, [10, 5, 2]),
        (23, [11, 5, 2]),
    ],
)
def test_fas_levels_alternate_widening_and_narrowing_on_even_sides(side, levels):
    # an odd side m halves to (m - 1) / 2; an axis's successive even
    # halvings take m / 2 and m / 2 - 1 in turn
    sides = _fas_sides(ep.box_mask(ep.build_grid(2, side + 2, (-1.0, 1.0))))
    assert sides == [(m, m) for m in [side] + levels]


def test_fas_levels_of_an_oblong_box_coarsen_axis_by_axis():
    # a side at most 3 stops while the others go on
    sides = _fas_sides(ep.box_mask(ep.build_grid(3, (11, 12, 23), (-1.0, 1.0))))
    assert sides == [(9, 10, 21), (4, 5, 10), (2, 2, 5), (2, 2, 2)]


@pytest.mark.parametrize("dim, shape", [(2, 33), (3, 17)])
def test_fas_with_large_boundary_data_meets_the_rounding_floor(dim, shape):
    # with u ~ 1e6 or 1e8 the increment goes flat at a few ulps of u, above
    # tol; once it stops shrinking, the residual at its rows' rounding
    # floor and an increment within sup |B^-1 |r|| end the solve
    op = ep.assemble(ep.box_mask(ep.build_grid(dim, shape, (-1.0, 1.0))))
    for c, params in [(1e6, None), (1e8, ep.SemilinearParams(max_iterations=100))]:
        u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), c, params)
        assert (rep.method, rep.status) == ("fas", "converged")
        assert rep.iterations <= 30
        assert rep.final_increment > rep.tol
        assert rep.message.startswith(f"residual {rep.final_residual:.3e} met the rounding floor")
        assert f"increment {rep.final_increment:.3e} within" in rep.message
        assert rep.final_increment <= rep.error_bound <= 1e-7 * c


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
        # interior side 7 halves to 3 on all three axes
        lambda: ep.box_mask(ep.build_grid(3, 9, (-1.0, 1.0))),
        # even sides: 34 -> 17 -> 8 -> 3 against 9 -> 4 -> 2
        lambda: ep.box_mask(ep.build_grid(2, (36, 11), ((-1.0, 1.0), (0.0, 0.5)))),
        # interior side 10 -> 5 -> 2 on all three axes
        lambda: ep.box_mask(ep.build_grid(3, 12, (-1.0, 1.0))),
        # interior side 65 -> 32 -> 16 -> 7 -> 3 on a line
        lambda: ep.box_mask(ep.build_grid(1, 67, (-1.0, 1.0))),
        # masks: the hierarchy of the bounding block, sliced to the interior
        lambda: _disc_of(33),
        _ball,
    ],
    ids=["square", "oblong", "block", "box3d", "even_oblong", "even_box3d", "box1d",
         "disc", "ball"],
)
def test_fas_solve_with_drift_and_variable_coefficients_matches_newton(make_mask):
    # upwinded drift, variable a and c <= 0 are re-assembled on every level
    mask = make_mask()
    coeffs = ep.CoefficientSet(
        a=lambda q: 1.0 + 0.5 * q[:, 0] ** 2,
        b=np.array([4.0, -2.0, 1.0][: mask.grid.dim]),
        c=-0.5,
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
        # interior side 33 halves to 16, 8, then narrows to 3
        lambda: ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0))),
        # interior side 8 halves to 4 and 2
        lambda: ep.box_mask(ep.build_grid(3, 10, (-1.0, 1.0))),
    ],
    ids=["box35", "box3d"],
)
def test_boxes_with_even_sides_take_fas(make_mask):
    op = ep.assemble(make_mask())
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")


@pytest.mark.parametrize(
    "make_mask",
    [
        lambda: _disc_of(33),
        lambda: ep.box_mask(ep.build_grid(1, 129, (-1.0, 1.0))),
        _ball,
    ],
    ids=["disc", "box1d", "ball"],
)
def test_masks_and_1d_boxes_take_fas(make_mask):
    op = ep.assemble(make_mask())
    _, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    assert (rep.lambda_max, rep.lambda_refreshes) == (0.0, 0)


def test_fas_1d_box_with_a_fine_dead_core_converges():
    # 2047 interior points over [-8, 8]: the quartic dead-core profile is
    # resolved to the gates in a few V-cycles, with exact zeros in the core
    op = ep.assemble(ep.box_mask(ep.build_grid(1, 2049, (-8.0, 8.0))))
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    assert rep.iterations <= 15
    assert u.at([0.0]) == 0.0
    assert rep.error_bound <= 1e-8


def _fas_cycle(op):
    mask = op.mask
    phi = ep.power_phi(1.0, 0.5)
    rhs = op.boundary_matrix @ np.ones(mask.n_boundary)
    return _FasCycle(
        _FasHierarchy(op), sp.csc_matrix(-op.interior_matrix), phi,
        phi.bind(mask.interior_points()), rhs, 1e-12, 0.0,
    )


def test_fas_sides_of_a_disc_are_its_bounding_block_levels():
    # 33 points over [-1, 1]: the disc's interior spans 27 of them a side
    assert _fas_sides(_disc_of(33)) == [(27, 27), (13, 13), (6, 6), (3, 3)]


@pytest.mark.parametrize("shape", [33, 34], ids=["odd", "even"])
def test_coarse_disc_interior_reads_only_fine_interior_points(shape):
    # a coarse point is interior when its twin (odd side) or both points
    # of its pair (even side) are interior; its iterate restriction is
    # then a mean of interior points and lands on the coarse point
    mask = _disc_of(shape)
    (m, _), (mc, _) = _fas_sides(mask)[:2]
    assert (m % 2, mc) == ((1, 13) if shape == 33 else (0, 14))
    idx = np.unravel_index(mask.interior_flat, mask.grid.shape)
    low = [int(i.min()) for i in idx]
    block = np.zeros((m, m), dtype=bool)
    block[tuple(i - lo for i, lo in zip(idx, low))] = True
    j = np.arange(mc)
    reads = [2 * j + 1] if m % 2 else [m // 2 - mc + 2 * j, m // 2 - mc + 2 * j + 1]
    inside = np.ones((mc, mc), dtype=bool)
    for rows in reads:
        for cols in reads:
            inside &= block[np.ix_(rows, cols)]
    axis = mask.grid.axis(0)
    coords = [np.mean([axis[lo + r] for r in reads], axis=0) for lo in low]
    expected = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)[inside]
    cycle = _fas_cycle(ep.assemble(mask))
    restrict = cycle.levels[0][3][1]
    assert restrict.shape == (int(inside.sum()), mask.n_interior)
    npt.assert_allclose(restrict @ mask.interior_points(), expected, atol=1e-12)
    assert cycle.levels[1][0].shape == (int(inside.sum()),) * 2


def test_fas_on_a_ring_whose_coarse_interior_splits_converges():
    # a ring of width 0.3 on 65^2: the 6^2 block's interior falls apart
    # into four pieces, and the hierarchy ends there, one level early
    grid = ep.build_grid(2, 65, (-1.0, 1.0))
    ring = ep.mask_from_predicate(
        grid, lambda q: (np.sum(q**2, axis=1) > 0.36) & (np.sum(q**2, axis=1) < 0.81)
    )
    op = ep.assemble(ring)
    cycle = _fas_cycle(op)
    pieces = [
        csgraph.connected_components(abs(B), directed=False)[0] for B, *_ in cycle.levels
    ]
    assert pieces == [1, 1, 1, 4]
    assert len(_fas_sides(ring)) == 5
    u, rep = ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    assert (rep.method, rep.status) == ("fas", "converged")
    assert rep.error_bound <= 1e-8

    def phi_vec(v):
        return np.sqrt(np.maximum(v, 0.0))

    _, B, rhs = _equation_residual(op, u.interior(), phi_vec, 1.0)
    ref = oracles.newton_semilinear(B, rhs, phi_vec, u0=u.interior())
    npt.assert_allclose(u.interior(), ref, atol=1e-8)


def test_a_second_solve_on_one_operator_assembles_no_coarse_level(assembled, caplog):
    # the first solve builds the FAS hierarchy, re-assembling every coarse
    # level once; later solves on the operator reuse it
    op = ep.assemble(ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0))))
    assembled.clear()
    phi = ep.power_phi(1.0, 0.5)
    with caplog.at_level(logging.DEBUG, logger="ellipot.solver"):
        ep.solve_semilinear_dirichlet(op, phi, 1.0)
        assert len(assembled) == len(_fas_sides(op.mask)) - 1
        ep.solve_semilinear_dirichlet(op, ep.power_phi(2.0, 0.25), 3.0)
    assert len(assembled) == len(_fas_sides(op.mask)) - 1
    first, second = [r.getMessage() for r in caplog.records if r.name == "ellipot.solver"]
    assert "FAS hierarchy built in" in first
    assert "FAS hierarchy reused, built in" in second


@pytest.mark.parametrize(
    "make_mask",
    [
        lambda: ep.box_mask(ep.build_grid(2, 35, (-1.0, 1.0))),
        lambda: _disc_of(33),
        lambda: ep.box_mask(ep.build_grid(1, 129, (-8.0, 8.0))),
    ],
    ids=["box", "disc", "box1d"],
)
def test_solves_on_a_reused_hierarchy_match_solves_on_a_fresh_operator(make_mask):
    # the hierarchy keeps no density, reaction, root tolerance or lower
    # bound of an earlier solve: alternating them on one operator gives
    # the iterates of a freshly assembled one, bit for bit
    shared = ep.assemble(make_mask())
    phis = [
        ep.power_phi(1.0, 0.5),
        ep.power_phi(lambda q: 2.0 / (1.0 + np.sum(q**2, axis=1)), 0.25),
    ]
    tols = [1e-10, 1e-7]
    for phi, tol, c in itertools.product(phis, tols, [2.0, -0.5]):
        params = ep.SemilinearParams(tol=tol)
        u, rep = ep.solve_semilinear_dirichlet(shared, phi, c, params)
        fresh_u, fresh_rep = ep.solve_semilinear_dirichlet(
            ep.assemble(make_mask()), phi, c, params
        )
        assert np.array_equal(u.values, fresh_u.values, equal_nan=True)
        # off the DST boxes only the first solve on an operator factors B
        same = {k: v for k, v in rep.as_dict().items() if not k.startswith("factor")}
        assert same == {
            k: v for k, v in fresh_rep.as_dict().items() if not k.startswith("factor")
        }


def test_a_solved_operator_is_freed_with_its_hierarchy():
    # nothing outside the operator keeps it alive, and its hierarchy holds
    # no reference back to it, so its last reference frees it without a
    # cyclic garbage collection
    op = ep.assemble(_disc_of(33))
    ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    ref = weakref.ref(op)
    gc.disable()
    try:
        del op
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------- set-up against generic builds

def _same_csr(a, b):
    """Equal shapes and equal bytes of indptr, indices and data."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    )


def _box_of(dim, shape, half_width=1.0):
    return ep.box_mask(ep.build_grid(dim, shape, (-half_width, half_width)))


def _with_a_stored_zero(op):
    """``op`` with one off-diagonal entry of A_II set to a stored 0."""
    A = op.interior_matrix
    A.data[np.flatnonzero(A.indices[A.indptr[5]:A.indptr[6]] != 5)[0] + A.indptr[5]] = 0.0
    return op


@pytest.mark.parametrize(
    "make_op",
    [
        lambda: ep.assemble(_box_of(3, 25, 2.0)),
        lambda: ep.assemble(_box_of(2, 129, 16.0), ep.CoefficientSet(c=-1.0)),
        lambda: ep.assemble(ep.build_exhaustion(_box_of(2, 129, 16.0), 2).levels[0]),
        lambda: ep.assemble(ep.build_exhaustion(_box_of(3, 25, 2.0), 3).levels[1]),
        lambda: ep.assemble(ep.box_mask(ep.build_grid(2, (66, 41), (-1.0, 1.0)))),
        lambda: ep.assemble(_disc_of(34)),
        lambda: ep.assemble(ep.mask_from_predicate(
            ep.build_grid(3, 17, (-1.0, 1.0)), lambda q: np.sum(q**2, axis=1) < 0.8)),
        lambda: ep.assemble(_box_of(2, 33), ep.CoefficientSet(b=np.array([3.0, -1.0]))),
        lambda: ep.assemble(_box_of(2, 33), ep.CoefficientSet(a=np.array([[1.0, 0.3], [0.3, 1.0]])),
                            ep.SchemeOptions(cross="tilted")),
        lambda: _with_a_stored_zero(ep.assemble(_box_of(2, 17))),
    ],
    ids=["box-23^3", "box-127^2", "exhaustion-2d", "exhaustion-3d", "even-66x41", "disc",
         "ball", "upwind-drift", "tilted-cross", "stored-zero"],
)
def test_hierarchy_levels_match_the_generic_sparse_builds(make_op):
    # coarse B, colour slices, full weighting and iterate restriction of
    # every level equal those of COO assembly, B - diag(B), sp.kron chains
    # and fancy indexing, byte for byte
    op = make_op()
    levels, want = _FasHierarchy(op).levels, oracles.fas_levels(op)
    assert len(levels) == len(want) >= 3
    for k, ((B, colours, transfers), ref) in enumerate(zip(levels, want)):
        assert B is None if k == 0 else _same_csr(B, ref["B"])
        assert len(colours) == len(ref["colours"])
        for (rows, off, diag), (rows_ref, off_ref, diag_ref) in zip(colours, ref["colours"]):
            assert rows.tobytes() == rows_ref.tobytes()
            assert diag.tobytes() == diag_ref.tobytes()
            assert _same_csr(off, off_ref)
        assert (transfers is None) == ("full" not in ref)
        if transfers is not None:
            full, restrict, prolong, _ = transfers
            assert _same_csr(full, ref["full"])
            assert _same_csr(restrict, ref["restrict"])
            assert _same_csr(prolong.T, ref["full"])


def test_a_solve_evaluates_its_density_once():
    # the p >= 0 check, level 0 and the restricted coarse densities all
    # read the one evaluation that phi.bind makes
    sizes = []

    def p(points):
        sizes.append(len(points))
        return 1.0 + points[:, 0] ** 2

    op = ep.assemble(_box_of(2, 17))
    phi = ep.power_phi(p, 0.5)
    for _ in range(2):
        sizes.clear()
        ep.solve_semilinear_dirichlet(op, phi, 1.0)
        assert sizes == [op.n_interior]


def test_the_sign_audit_runs_once_per_operator(monkeypatch):
    # B's sign pattern depends on the operator only, so the second solve
    # reuses the first one's audit along with its hierarchy
    audits = []
    sign_pattern = solver._sign_pattern
    monkeypatch.setattr(solver, "_sign_pattern", lambda B: audits.append(B.shape) or sign_pattern(B))
    op = ep.assemble(_disc_of(33))
    ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
    ep.solve_semilinear_dirichlet(op, ep.power_phi(2.0, 0.5), 3.0)
    assert audits == [(op.n_interior,) * 2]
