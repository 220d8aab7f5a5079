"""Acceptance workloads: eight numbered end-to-end checks.

Every test prints one `[k] PASS/FAIL - ...` line on the uncaptured
stdout (so the lines are visible in any pytest run) and then asserts the
same conditions with the stated tolerances and budgets.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ellipot as ep
from ellipot.experiments import assemble_levels

pytestmark = pytest.mark.acceptance


def _report(capsys, num, ok, details):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{num}] {status} - {details}", flush=True)


def _bowl(points):
    return 1.0 / (1.0 + np.sum(np.asarray(points) ** 2, axis=-1))


def _interior(field):
    return field.values.ravel()[field.mask.interior_flat]


# ------------------------------------------------------------------ 1


def test_1_linear_reaction_matches_cosh_profile(capsys):
    t0 = time.perf_counter()
    grid = ep.build_grid(1, 129, (0.0, 1.0))
    mask = ep.box_mask(grid)
    op = ep.assemble(mask)
    u, rep = ep.solve_semilinear_dirichlet(op, ep.AffinePhi(1.0), 1.0)
    x = grid.points()[:, 0]
    exact = np.cosh(x - 0.5) / np.cosh(0.5)
    err = float(np.abs(u.values.ravel() - exact)[mask.interior_flat].max())
    dt = time.perf_counter() - t0
    tol = 5.0 / 128.0 ** 2
    ok = err <= tol and dt < 1.0
    _report(capsys, 1, ok, f"1D linear reaction vs cosh profile: "
                   f"max err {err:.3e} (tol {tol:.2e}), {dt:.2f}s (budget 1s)")
    assert rep.converged
    assert err <= tol
    assert dt < 1.0


# ------------------------------------------------------------------ 2


def _random_operator(rng, allow_cross):
    dim = int(rng.integers(2, 4))
    if dim == 2:
        shape = int(rng.choice([9, 11, 13, 15, 17]))
    else:
        shape = int(rng.choice([9, 11, 13]))
    half = float(rng.uniform(0.5, 2.0))
    grid = ep.build_grid(dim, shape, (-half, half))
    mask = ep.box_mask(grid)
    a_diag = rng.uniform(0.5, 2.0, size=dim)
    b = rng.uniform(-3.0, 3.0, size=dim)
    c = -float(rng.uniform(0.0, 1.0))
    scheme = ep.SchemeOptions(drift="upwind")
    if allow_cross and dim == 2 and rng.random() < 0.4:
        # a mild positive cross coefficient keeps the tilted stencil
        # inside the sign pattern of an M-matrix
        gamma = float(rng.uniform(0.0, 0.4)) * float(a_diag.min())
        a = np.diag(a_diag)
        a[0, 1] = a[1, 0] = gamma
        scheme = ep.SchemeOptions(drift="upwind", cross="tilted")
        coeffs = ep.CoefficientSet(a=a, b=b, c=c)
    else:
        coeffs = ep.CoefficientSet(a=a_diag, b=b, c=c)
    return ep.assemble(mask, coeffs, scheme), coeffs, scheme


def test_2_decomposition_identity_on_random_instances(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202608232)
    worst = 0.0
    for k in range(20):
        op, _, _ = _random_operator(rng, allow_cross=True)
        mask = op.mask
        fam = k % 3
        if fam == 0:
            phi = ep.power_phi(_bowl, 0.5)
        elif fam == 1:
            phi = ep.power_phi(_bowl, 1.0)
        else:
            phi = ep.build_concave_majorant(ep.power_phi(_bowl, 0.5))
        assert ep.check_m_matrix(op).is_m_matrix
        fval = float(rng.uniform(0.5, 3.0))
        u, _ = ep.solve_semilinear_dirichlet(op, phi, fval)
        # recompute every piece of  (harmonic extension) = u + (Green
        # potential of the reaction along u)  with a direct solve
        A_II = sp.csc_matrix(op.interior_matrix)
        fb = np.full(mask.boundary_flat.size, fval)
        harm = spla.spsolve(-A_II, op.boundary_matrix @ fb)
        ui = _interior(u)
        gpot = spla.spsolve(-A_II, phi(mask.interior_points(), ui))
        worst = max(worst, float(np.abs(harm - ui - gpot).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-7 and dt < 120.0
    _report(capsys, 2, ok, f"decomposition identity on 20 random operators: "
                   f"worst residual {worst:.3e} (tol 1e-07), {dt:.1f}s (budget 120s)")
    assert worst <= 1e-7
    assert dt < 120.0


# ------------------------------------------------------------------ 3


def _concave_family(k):
    fam = k % 4
    if fam == 0:
        return ep.power_phi(_bowl, 0.5)
    if fam == 1:
        return ep.power_phi(_bowl, 0.9)
    if fam == 2:
        return ep.capped_linear_phi(_bowl, 1.0)
    return ep.power_phi(_bowl, 1.0)


def test_3_order_properties_on_random_instances(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202608233)
    checks = []

    for k in range(15):
        dim = int(rng.integers(2, 4))
        if dim == 2:
            shape = int(rng.choice([9, 11, 13, 15, 17]))
        else:
            shape = int(rng.choice([9, 11]))
        half = float(rng.uniform(0.5, 2.0))
        grid = ep.build_grid(dim, shape, (-half, half))
        mask = ep.box_mask(grid)
        coeffs = ep.CoefficientSet(
            a=rng.uniform(0.5, 2.0, size=dim),
            b=rng.uniform(-3.0, 3.0, size=dim),
            c=-float(rng.uniform(0.0, 1.0)),
        )
        scheme = ep.SchemeOptions(drift="upwind")
        op = ep.assemble(mask, coeffs, scheme)
        nb = mask.boundary_flat.size
        pts = mask.interior_points()
        phi = _concave_family(k)
        A_II = sp.csc_matrix(op.interior_matrix)
        A_IB = op.boundary_matrix

        f1 = rng.uniform(0.2, 2.0, size=nb)
        u1, _ = ep.solve_semilinear_dirichlet(op, phi, f1)
        i1 = _interior(u1)
        harm = spla.spsolve(-A_II, A_IB @ f1)

        # larger boundary data gives a larger solution
        f2 = f1 + rng.uniform(0.0, 1.0, size=nb)
        u2, _ = ep.solve_semilinear_dirichlet(op, phi, f2)
        checks.append(("monotone", float((i1 - _interior(u2)).max())))

        # an independently built supersolution dominates the solution:
        # under-absorb with q <= phi(., w), where the one-step lower
        # bound  w_min = harm - G phi(., harm)  certifies the inequality
        w_min = harm - spla.spsolve(-A_II, phi(pts, harm))
        theta = float(rng.uniform(0.2, 1.0))
        q_sup = theta * phi(pts, np.maximum(w_min, 0.0))
        w_sup = spla.spsolve(-A_II, A_IB @ f1 - q_sup)
        checks.append(("supersolution", float((i1 - w_sup).max())))

        # an independently built subsolution stays below: over-absorb
        # with q >= phi(., harm) >= phi(., w)
        q_sub = (1.0 + rng.uniform(0.0, 1.0, size=harm.size)) * phi(pts, harm)
        w_sub = spla.spsolve(-A_II, A_IB @ f1 - q_sub)
        checks.append(("subsolution", float((w_sub - i1).max())))

        # growing the domain can only lower the solution
        exh = ep.build_exhaustion(mask, 2)
        small, big = assemble_levels(exh, coeffs, scheme)
        cval = float(rng.uniform(0.5, 2.0))
        us, _ = ep.solve_semilinear_dirichlet(small, phi, cval)
        ub, _ = ep.solve_semilinear_dirichlet(big, phi, cval)
        si = small.mask.interior_flat
        checks.append(("domain", float(
            (ub.values.ravel()[si] - us.values.ravel()[si]).max())))

        # the solution map is convex in the boundary data
        g = rng.uniform(0.2, 2.0, size=nb)
        th = float(rng.uniform(0.2, 0.8))
        ug, _ = ep.solve_semilinear_dirichlet(op, phi, g)
        umix, _ = ep.solve_semilinear_dirichlet(op, phi, th * f1 + (1 - th) * g)
        mix = th * i1 + (1 - th) * _interior(ug)
        checks.append(("convexity", float((_interior(umix) - mix).max())))

        # scaling the boundary data up scales the solution at least
        # linearly (concave reaction)
        for alpha in (2.0, 10.0):
            ua, _ = ep.solve_semilinear_dirichlet(op, phi, alpha * f1)
            checks.append((f"scaling{int(alpha)}",
                           float((alpha * i1 - _interior(ua)).max())))

    worst = max(v for _, v in checks)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and len(checks) >= 100 and dt < 300.0
    _report(capsys, 3, ok, f"order properties, {len(checks)} randomized checks: "
                   f"worst violation {worst:.3e} (tol 1e-08), {dt:.1f}s (budget 300s)")
    assert len(checks) >= 100
    assert worst <= 1e-8
    assert dt < 300.0


# ------------------------------------------------------------------ 4


def test_4_concave_majorants_dominate(capsys):
    t0 = time.perf_counter()
    # every point of the box is active: interior and boundary alike
    pts = ep.build_grid(2, 17, (-1.0, 1.0)).points()
    bases = [
        ep.power_phi(_bowl, 0.5),
        ep.power_phi(_bowl, 0.9),
        ep.capped_linear_phi(_bowl, 1.0),
    ]
    worst_dom = np.inf
    worst_conc = np.inf
    worst_zero = 0.0
    worst_c = 0.0
    for base in bases:
        maj = ep.build_concave_majorant(base)
        worst_dom = min(worst_dom, ep.domination_defect(base, maj, pts))
        worst_conc = min(worst_conc, maj.concavity_defect())
        zero = max(
            abs(float(maj.psi[0])),
            float(np.abs(maj(pts, 0.0)).max()),
        )
        worst_zero = max(worst_zero, zero)
        worst_c = max(worst_c, maj.linear_bound_constant())
    dt = time.perf_counter() - t0
    ok = (worst_dom >= -1e-12 and worst_conc >= -1e-9
          and worst_zero == 0.0 and np.isfinite(worst_c) and dt < 30.0)
    _report(capsys, 4, ok, f"concave majorants (3 reactions): domination {worst_dom:+.2e} "
                   f"(>= -1e-12), concavity {worst_conc:+.2e} (>= -1e-9), "
                   f"value at 0 = {worst_zero}, C = {worst_c:.3f}, "
                   f"{dt:.1f}s (budget 30s)")
    assert worst_dom >= -1e-12
    assert worst_conc >= -1e-9
    assert worst_zero == 0.0
    assert np.isfinite(worst_c)
    assert dt < 30.0


# ------------------------------------------------------------------ 5


def test_5_truncation_dichotomy_on_doubling_cubes(capsys):
    t0 = time.perf_counter()

    def decay3(points):
        r = np.linalg.norm(np.atleast_2d(np.asarray(points, dtype=float)), axis=-1)
        return (1.0 + r) ** -3.0

    half_widths = [2.0, 4.0, 8.0]
    study = ep.cube_truncation_study(
        half_widths, ep.power_phi(decay3, 0.5), c=1.0, dim=3, shape=33, n_levels=3
    )
    all_decreasing = all(r.run.decreasing_ok for r in study.records)
    max_inc = max(r.run.max_increase for r in study.records)
    sups = study.sup_estimates()
    sup_ok = bool(np.all(sups >= 0.9)) and study.sup_increasing()

    ones = ep.cube_truncation_study(
        half_widths, ep.power_phi(1.0, 0.5), c=1.0, dim=3, shape=33, n_levels=3
    )
    origins = ones.origin_values()
    origin_ok = ones.origin_decay_ok(factor=0.7, floor=1e-8)

    dt = time.perf_counter() - t0
    ok = all_decreasing and sup_ok and origin_ok and dt < 600.0
    _report(capsys, 5, ok, f"doubling cubes: levels decreasing (worst inc {max_inc:.1e}), "
                   f"sups {np.round(sups, 4).tolist()} increasing and >= 0.9; "
                   f"unit density origin {np.round(origins, 4).tolist()} "
                   f"decays >= 30%/doubling; {dt:.0f}s (budget 600s)")
    assert all_decreasing
    assert max_inc <= 1e-8
    assert np.all(sups >= 0.9)
    assert study.sup_increasing()
    assert origin_ok
    assert dt < 600.0


# ------------------------------------------------------------------ 6


def test_6_blowup_sweep_verdicts(capsys):
    t0 = time.perf_counter()
    grid = ep.build_grid(1, 257, (-1.0, 1.0))
    op = ep.assemble(ep.box_mask(grid))

    sub = ep.blowup_sweep(op, ep.power_phi(1.0, 0.5), np.geomspace(1.0, 100.0, 9))
    min_ratio = float(sub.ratios[:, 0].min())
    sub_ok = sub.verdict == "diverges" and min_ratio >= 0.5

    ctl = ep.blowup_sweep(op, ep.power_phi(1.0, 3.0), np.geomspace(1.0, 1.0e4, 17))
    ctl_ok = ctl.verdict == "saturates" and ctl.last_decade_increment < 0.01

    dt = time.perf_counter() - t0
    ok = sub_ok and ctl_ok and dt < 120.0
    _report(capsys, 6, ok, f"blow-up sweep: sublinear min u_m/m = {min_ratio:.3f} (>= 0.5, "
                   f"{sub.verdict}); cubic control last-decade increment "
                   f"{ctl.last_decade_increment:.2%} (< 1%, {ctl.verdict}); "
                   f"{dt:.1f}s (budget 120s)")
    assert sub_ok
    assert ctl_ok
    assert dt < 120.0


# ------------------------------------------------------------------ 7


def test_7_boundary_constant_scaling_bound(capsys):
    t0 = time.perf_counter()
    grid = ep.build_grid(2, 33, (-4.0, 4.0))
    exh = ep.build_exhaustion(ep.box_mask(grid), 3)
    phi = ep.power_phi(1.0, 0.5)
    base = ep.run_exhaustion(exh, phi, 1.0)
    gaps = {}
    for lam in (1.0, 2.0, 4.0):
        run = base if lam == 1.0 else ep.run_exhaustion(exh, phi, lam)
        rep = ep.scaling_bound_check(run, base)
        gaps[lam] = rep.min_gap
        assert rep.holds
    worst = min(gaps.values())
    dt = time.perf_counter() - t0
    ok = worst >= -1e-8 and dt < 120.0
    _report(capsys, 7, ok, f"scaling bound at ratios 1, 2, 4: worst pointwise gap "
                   f"{worst:+.2e} (>= -1e-08), {dt:.1f}s (budget 120s)")
    assert worst >= -1e-8
    assert dt < 120.0


# ------------------------------------------------------------------ 8


def test_8_kernel_mass_estimator_matches_closed_form(capsys):
    t0 = time.perf_counter()
    grid = ep.build_grid(3, 33, (-0.25, 0.25))
    mask = ep.box_mask(grid)
    alphas = [0.25, 0.125]
    a_arr, vals = ep.kato_limit_scan(mask, 1.0, alphas)
    rels = {}
    for a, v in zip(a_arr, vals):
        expected = 2.0 * np.pi * a * a
        rels[float(a)] = float(abs(v - expected) / expected)
    worst = max(rels.values())
    dt = time.perf_counter() - t0
    ok = worst <= 0.10 and dt < 30.0
    _report(capsys, 8, ok, f"local kernel mass vs 2*pi*alpha^2: rel err "
                   f"{ {a: round(r, 4) for a, r in rels.items()} } (<= 10%), "
                   f"{dt:.1f}s (budget 30s)")
    assert worst <= 0.10
    assert dt < 30.0
