import math

import numpy as np
import numpy.testing as npt
import pytest

import ellipot as ep
from ellipot.potentials import _CELL_AVG_INV, _CELL_AVG_LOG

import oracles


# ------------------------------------------------------------------ fields

def test_field_constructors_and_accessors(unit_square_17):
    mask = unit_square_17
    f = ep.Field.from_function(mask, lambda pts: pts[:, 0] + 2.0 * pts[:, 1])
    assert f.interior().shape == (mask.n_interior,)
    assert f.sup_active() == pytest.approx(3.0)
    assert f.inf_interior() > 0.0
    g = ep.Field.constant(mask, 2.5)
    assert g.sup_interior() == 2.5
    s = f + g
    assert s.at([0.5, 0.5]) == pytest.approx(1.5 + 2.5)
    d = f - g
    assert d.at([0.5, 0.5]) == pytest.approx(1.5 - 2.5)
    assert (2.0 * f).at([0.25, 0.5]) == pytest.approx(2.0 * 1.25)


def test_field_mask_mismatch_rejected(unit_square_17, disc_mask):
    f = ep.Field.zeros(unit_square_17)
    g = ep.Field.zeros(disc_mask)
    with pytest.raises(ep.EllipotError):
        _ = f + g


def test_field_restrict(unit_square_17):
    exh = ep.build_exhaustion(unit_square_17, 2)
    f = ep.Field.from_function(unit_square_17, lambda pts: pts[:, 0])
    sub = f.restrict_to(exh.levels[0])
    assert sub.mask is exh.levels[0]
    # values agree on the smaller interior
    npt.assert_allclose(
        sub.values.ravel()[exh.levels[0].interior_flat],
        f.values.ravel()[exh.levels[0].interior_flat],
    )


# ------------------------------------------------- linear solves and Green

def test_harmonic_extension_reproduces_affine(unit_square_17):
    op = ep.assemble(unit_square_17)
    f = lambda pts: 1.0 + 2.0 * pts[:, 0] - 3.0 * pts[:, 1]
    h = ep.harmonic_extension(op, f)
    pts = unit_square_17.grid.points()[unit_square_17.interior_flat]
    npt.assert_allclose(h.interior(), f(pts), atol=1e-11)


def test_harmonic_extension_maximum_principle(rng, unit_square_17):
    op = ep.assemble(unit_square_17)
    for _ in range(25):
        data = rng.normal(size=unit_square_17.n_boundary)
        h = ep.harmonic_extension(op, data)
        assert h.sup_interior() <= data.max() + 1e-12
        assert h.inf_interior() >= data.min() - 1e-12


def test_green_apply_positive_and_linear(rng, unit_square_17):
    op = ep.assemble(unit_square_17)
    q1 = rng.uniform(0.5, 1.5, size=unit_square_17.n_interior)
    q2 = rng.uniform(0.0, 1.0, size=unit_square_17.n_interior)
    g1 = ep.green_apply(op, q1)
    g2 = ep.green_apply(op, q2)
    g12 = ep.green_apply(op, q1 + 2.0 * q2)
    assert g1.inf_interior() > 0.0
    npt.assert_allclose(g12.interior(), g1.interior() + 2.0 * g2.interior(),
                        rtol=1e-12, atol=1e-14)


def test_green_kernel_1d_exact(unit_interval_65):
    # the discrete Green function of -u'' on (0,1) is exact at the nodes
    op = ep.assemble(unit_interval_65)
    y0 = 0.5
    col = ep.green_kernel_column(op, [y0])
    x = unit_interval_65.grid.points()[unit_interval_65.interior_flat][:, 0]
    exact = oracles.green_1d(x, y0)
    npt.assert_allclose(col.interior(), exact, atol=1e-12)


def test_green_row_matches_green_apply(rng, unit_square_17):
    # row at x gives the weights of the quadrature (G q)(x) = sum g(y) q(y) h^d
    mask = unit_square_17
    coeffs = ep.CoefficientSet(b=np.array([1.0, -0.5]))  # nonsymmetric
    op = ep.assemble(mask, coeffs)
    q = rng.uniform(0.0, 2.0, size=mask.n_interior)
    x0 = [0.5, 0.5]
    row = ep.green_row(op, x0)
    vol = mask.grid.cell_volume()
    expected = np.dot(row.interior(), q) * vol
    got = ep.green_apply(op, q).at(x0)
    assert got == pytest.approx(expected, rel=1e-10)


def test_green_row_on_a_box_matches_the_transposed_factor_row():
    mask = ep.box_mask(ep.build_grid(3, [9, 11, 7], [(0.0, 1.0), (0.0, 2.0), (-1.0, 0.0)]))
    op = ep.assemble(mask, ep.CoefficientSet(a=np.array([1.0, 2.0, 0.5]), c=-3.0))
    x0 = mask.interior_points()[100]
    row = ep.green_row(op, x0).interior()
    assert not op.is_factored
    e = np.zeros(mask.n_interior)
    e[100] = 1.0
    ref = op.factor().solve(e, trans="T") / mask.grid.cell_volume()
    assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


# ------------------------------------------------------------ Kato kernel

def test_pinned_cell_average_constants():
    npt.assert_allclose(_CELL_AVG_INV, oracles.cell_average_inverse_distance(),
                        rtol=1e-12)
    npt.assert_allclose(_CELL_AVG_LOG, oracles.cell_average_log_distance(),
                        rtol=1e-15)
    # and the 2D closed form really is 3/2 + log(2)/2 - pi/4
    assert _CELL_AVG_LOG == pytest.approx(1.0611754268825244, abs=1e-15)
    assert _CELL_AVG_INV == pytest.approx(2.3800773639795536, abs=1e-12)


def test_kato_estimate_matches_ball_integral_3d():
    # int_{|z| <= alpha} |z|^{-1} dz = 2 pi alpha^2
    grid = ep.build_grid(3, 25, (-0.5, 0.5))
    mask = ep.box_mask(grid)
    alpha = 0.25
    est = ep.kato_norm_estimate(mask, 1.0, alpha)
    exact = 2.0 * math.pi * alpha**2
    assert est.value == pytest.approx(exact, rel=0.1)


def test_kato_estimate_matches_disc_integral_2d():
    # int_{|z| <= alpha} log(alpha/|z|) dz = pi alpha^2 / 2
    grid = ep.build_grid(2, 65, (-0.5, 0.5))
    mask = ep.box_mask(grid)
    alpha = 0.25
    est = ep.kato_norm_estimate(mask, 1.0, alpha)
    exact = math.pi * alpha**2 / 2.0
    assert est.value == pytest.approx(exact, rel=0.1)


def test_kato_scan_decreases_for_bounded_density():
    grid = ep.build_grid(3, 25, (-0.5, 0.5))
    mask = ep.box_mask(grid)
    alphas, vals = ep.kato_limit_scan(mask, 1.0, [0.25, 0.125, 0.0625])
    assert np.all(np.diff(vals) < 0)
    # quadratic decay: halving alpha should cut the value by ~4
    assert vals[1] / vals[0] < 0.35


def test_kato_scan_flags_supercritical_singularity():
    # |x - x0|^{-2.5} is not locally Kato in d=3: the scan does not vanish
    grid = ep.build_grid(3, 25, (-0.5, 0.5))
    mask = ep.box_mask(grid)
    x0 = np.array([0.013, 0.007, -0.011])  # slightly off-lattice

    def p(pts):
        return np.sum((pts - x0) ** 2, axis=1) ** (-1.25)

    alphas, vals = ep.kato_limit_scan(mask, p, [0.25, 0.125])
    # lattice truncation keeps the sum finite, but the near-center cells
    # dominate, so halving alpha barely moves it (bounded densities drop ~4x)
    assert vals[1] / vals[0] > 0.8


def _kato_oracle_cases():
    aniso = ep.box_mask(
        ep.build_grid(3, (15, 13, 11), [(-0.5, 0.5), (-0.3, 0.4), (0.0, 0.6)])
    )
    ball = ep.mask_from_predicate(
        ep.build_grid(3, 17, (-1.0, 1.0)), lambda pts: np.sum(pts**2, axis=1) < 0.8
    )
    disc = ep.mask_from_predicate(
        ep.build_grid(2, 41, (-1.0, 1.0)), lambda pts: np.sum(pts**2, axis=1) < 0.8
    )
    box3 = ep.box_mask(ep.build_grid(3, 11, (-1.0, 1.0)))
    box2 = ep.box_mask(ep.build_grid(2, 21, (-1.0, 1.0)))
    ramp = lambda pts: 1.0 + pts[:, 0] ** 2 + 0.5 * pts[:, -1]
    # (mask, density, alpha); both boxes have h = 0.1 and diameter < 4
    return {
        "anisotropic-box-3d": (aniso, ramp, 0.2),
        "ball-3d": (ball, lambda pts: np.exp(pts[:, 2]), 0.4),
        "disc-2d": (disc, ramp, 0.3),
        "alpha-beyond-diameter-3d": (box3, ramp, 4.0),
        "alpha-beyond-diameter-2d": (disc, 1.0, 5.0),
        "alpha-below-h-3d": (box3, ramp, 0.05),
        "alpha-below-h-2d": (box2, ramp, 0.05),
        "alpha-below-h-2d-zero": (box2, ramp, 0.03),  # log(0.3) + 1.06 < 0
    }


@pytest.mark.parametrize("case", list(_kato_oracle_cases()))
def test_kato_estimate_matches_direct_sum(case):
    mask, p, alpha = _kato_oracle_cases()[case]
    est = ep.kato_norm_estimate(mask, p, alpha)
    ref, _ = oracles.kato_direct_sum(mask, p, alpha)
    assert est.n_centers == mask.n_interior
    if ref == 0.0:
        assert abs(est.value) <= 1e-14
    else:
        assert abs(est.value - ref) <= 1e-12 * ref


def test_kato_sup_runs_over_every_interior_center():
    # 17^3 = 4,913 interior centers; a narrow bump on the center next to the
    # middle one makes the sum largest there, and every-other-center
    # sampling would skip it
    grid = ep.build_grid(3, 19, (-0.5, 0.5))
    mask = ep.box_mask(grid)
    peak = grid.points()[mask.interior_flat[mask.n_interior // 2 + 1]]
    h = grid.spacing[0]
    bump = lambda pts: np.exp(-np.sum((pts - peak) ** 2, axis=1) / (0.5 * h * h))
    est = ep.kato_norm_estimate(mask, bump, 0.25)
    ref, ref_point = oracles.kato_direct_sum(mask, bump, 0.25)
    npt.assert_array_equal(ref_point, peak)
    npt.assert_array_equal(est.argmax_point, peak)
    assert abs(est.value - ref) <= 1e-12 * ref


def test_kato_estimate_takes_every_density_form():
    # an array density has one value per active point, interior then
    # boundary, as Field.active() lists them
    mask = ep.box_mask(ep.build_grid(3, 9, (-0.5, 0.5)))
    n_active = mask.n_interior + mask.n_boundary
    alpha = 0.25
    const = ep.kato_norm_estimate(mask, 2.0, alpha).value
    assert ep.kato_norm_estimate(mask, np.full(n_active, 2.0), alpha).value == const
    assert ep.kato_norm_estimate(
        mask, lambda pts: np.full(len(pts), 2.0), alpha
    ).value == const

    bowl = lambda pts: 1.0 / (1.0 + np.sum(pts**2, axis=1))
    vectorized = ep.kato_norm_estimate(mask, bowl, alpha).value
    values = ep.Field.from_function(mask, bowl).active()
    assert ep.kato_norm_estimate(mask, values, alpha).value == vectorized


def test_wrong_length_data_is_rejected(unit_square_17):
    mask = unit_square_17
    with pytest.raises(ValueError, match="values for"):
        ep.boundary_values(mask, np.ones(mask.n_boundary + 1))
    with pytest.raises(ValueError, match="values for"):
        ep.interior_values(mask, np.ones(mask.n_interior - 1))
    with pytest.raises(ValueError, match="values for"):
        ep.power_phi(np.ones(mask.n_interior + 1), 0.5).bind(mask.interior_points())


# ------------------------------------------------------------ persistence

def test_field_csv_round_trip(tmp_path, disc_mask, rng):
    f = ep.Field.from_active(
        disc_mask,
        rng.normal(size=disc_mask.n_interior),
        rng.normal(size=disc_mask.n_boundary),
    )
    path = tmp_path / "f.csv"
    ep.save_field(f, path)
    back = ep.load_field(path)
    assert back.mask.grid == disc_mask.grid
    npt.assert_array_equal(back.mask.classes, disc_mask.classes)
    npt.assert_array_equal(back.active(), f.active())  # %.17g is lossless


def test_field_csv_column_layout(tmp_path, unit_square_17):
    f = ep.Field.constant(unit_square_17, 1.0)
    path = tmp_path / "f.csv"
    ep.save_field(f, path)
    lines = path.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:2] == ["x1", "x2"]
    assert header.split(",")[-1] == "value"
