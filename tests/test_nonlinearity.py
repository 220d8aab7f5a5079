import numpy as np
import numpy.testing as npt
import pytest

import ellipot as ep
from ellipot.cli import _build_phi
from ellipot.errors import MajorantError

import oracles


PTS2 = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, 0.4], [1.0, 1.0]])


def _sqrt_majorant(p=1.0):
    """Majorant of p * t^(1/2)."""
    return ep.build_concave_majorant(ep.power_phi(p, 0.5))


def _table(values):
    """Piecewise-linear rho through (0, 1, 2) -> values, flat beyond."""
    return lambda t: np.interp(t, [0.0, 1.0, 2.0], values)


def test_reactions_vanish_for_nonpositive_t():
    reactions = [
        ep.power_phi(1.0, 0.5),
        ep.power_phi(2.0, 3.0),
        ep.capped_linear_phi(1.0, 0.7),
        ep.AffinePhi(1.0, 2.0),
        ep.ProductPhi(1.0, lambda t: 2.0 * t + 0.5),
        ep.ProductPhi(1.0, lambda t: np.exp(t) + 0.5),
        ep.ProductPhi(1.0, _table([0.5, 1.0, 1.5])),
        _sqrt_majorant(),
    ]
    for phi in reactions:
        out = phi(PTS2, np.array([-2.0, -1e-12, 0.0, -5.0]))
        npt.assert_array_equal(out, 0.0)


@pytest.mark.parametrize(
    "make",
    [lambda: ep.capped_linear_phi(1.0, -0.5), lambda: ep.AffinePhi(1.0, -1.0),
     lambda: ep.capped_linear_phi(1.0, np.nan)],
    ids=["negative_cap", "negative_slope", "nan_cap"],
)
def test_reaction_negative_for_positive_t_is_refused(make):
    # phi < 0 for t > 0 leaves the sweep's pointwise roots outside their
    # bracket [0, s / b], so such a reaction is refused before any work
    with pytest.raises(ValueError, match="must be nonnegative"):
        make()


def test_zero_cap_and_slope_build_the_zero_reaction():
    t = np.array([0.5, 1.0, 2.0, -1.0])
    for phi in (ep.capped_linear_phi(1.0, 0.0), ep.AffinePhi(1.0, 0.0)):
        npt.assert_array_equal(phi(PTS2, t), 0.0)


def test_power_phi_values():
    phi = ep.power_phi(2.0, 0.5)
    out = phi(PTS2, np.array([4.0, 1.0, 0.25, 9.0]))
    npt.assert_allclose(out, [4.0, 2.0, 1.0, 6.0])


@pytest.mark.parametrize("gamma", [0.5, 0.25, 1.0 / 3.0, 1.0, 2.0, 3.0])
def test_power_phi_profile_rounds_as_np_power(gamma):
    # the profile's t ** gamma takes numpy's fast path (sqrt at 1/2, a
    # square at 2); it must give np.power's values bit for bit, from 0
    # through the subnormals to large t
    rng = np.random.default_rng(5)
    tiny = np.finfo(float).smallest_subnormal
    t = np.concatenate([
        [0.0, tiny, 2.0 * tiny, 1e-310, np.finfo(float).tiny, 1.0, 4.0],
        10.0 ** rng.uniform(-323.0, 100.0, 20_000),
    ])
    rho = ep.power_phi(1.0, gamma).rho
    assert np.array_equal(rho(t), np.power(t, gamma))


def test_product_phi_with_spatial_density():
    p = lambda pts: pts[:, 0] + 1.0
    phi = ep.ProductPhi(p, lambda t: t**2)
    out = phi(PTS2, np.array([1.0, 2.0, 3.0, 1.0]))
    npt.assert_allclose(out, [1.0, 6.0, 11.7, 2.0])


def test_bind_fast_path_matches_call(rng):
    p = lambda pts: 1.0 / (1.0 + np.sum(pts**2, axis=1))
    reactions = [
        ep.power_phi(p, 0.5),
        ep.ProductPhi(p, _table([0.0, 1.0, 1.5])),
        _sqrt_majorant(p),
    ]
    for phi in reactions:
        bound = phi.bind(PTS2)
        for _ in range(5):
            t = rng.uniform(-1.0, 3.0, size=len(PTS2))
            npt.assert_array_equal(bound(t), phi(PTS2, t))


def test_scalar_only_density_matches_vectorized():
    scalar = ep.power_phi(lambda x: float(x[0] ** 2 + 1), 0.5)
    vector = ep.power_phi(lambda x: x[:, 0] ** 2 + 1, 0.5)
    t = np.array([0.5, 2.0, -1.0, 4.0])
    npt.assert_array_equal(scalar(PTS2, t), vector(PTS2, t))


# ----------------------------------------------------------- mollifier

def test_mollifier_frozen_constants():
    m = ep.Mollifier()
    # independent adaptive quadrature of the bump profile over (-1, 1)
    raw = 2.0 * oracles.quad(lambda s: float(oracles.bump_raw(s)), 0.0, 1.0)
    assert raw == pytest.approx(0.4439938161680794, abs=1e-12)
    # the package constants come from fixed-order quadrature, which agrees
    # with the adaptive values to ~1e-11
    assert m(np.array([0.0]))[0] == pytest.approx(0.8285688398674459, abs=1e-10)
    # 4 int |eta'| with int |eta'| = 2 eta(0)
    assert m.slope_constant() / 4.0 == pytest.approx(1.6571376797348918, abs=2e-10)
    assert m.slope_constant() == pytest.approx(6.628550718939567, abs=1e-9)
    # the even mollifier has unit mass: twice the half-line integral of eta
    half_mass = oracles.quad(lambda s: float(m(np.array([s]))[0]), 0.0, 1.0)
    assert 2.0 * half_mass == pytest.approx(1.0, abs=1e-9)


def test_mollifier_height_is_value_at_zero():
    m = ep.Mollifier()
    assert m(np.array([0.0]))[0] == pytest.approx(m.slope_constant() / 8.0, rel=1e-14)
    # symmetric and supported in (-1, 1)
    assert m(np.array([0.7]))[0] == pytest.approx(m(np.array([-0.7]))[0])
    assert m(np.array([1.0]))[0] == 0.0


def test_mollified_at_zero_linear_reaction_identity():
    # for phi = p * t:  (phi_x * eta_delta)(0) = p * delta * int s eta(s) ds
    m = ep.Mollifier()
    p = lambda pts: 2.0 + pts[:, 0]
    phi = ep.power_phi(p, 1.0)
    delta = 0.35
    got = ep.mollified_at_zero(phi, PTS2, delta, m)
    first_moment01 = np.sum(m.weights01 * m.nodes01 * m(m.nodes01))
    expected = p(PTS2) * delta * first_moment01
    npt.assert_allclose(got, expected, rtol=1e-12)


# ------------------------------------------------------------- majorant

_BOWL = lambda pts: 1.0 / (1.0 + np.sum(pts**2, axis=1))
_MAJORANT_BASES = [
    lambda p: ep.power_phi(p, 0.5),
    lambda p: ep.power_phi(p, 0.9),
    lambda p: ep.capped_linear_phi(p, 1.0),
]
_MAJORANT_IDS = ["sqrt", "pow09", "capped"]


@pytest.mark.parametrize("make_phi", _MAJORANT_BASES, ids=_MAJORANT_IDS)
def test_majorant_properties(unit_square_17, make_phi):
    phi = make_phi(_BOWL)
    maj = ep.build_concave_majorant(phi)
    pts = unit_square_17.grid.points()
    assert ep.domination_defect(phi, maj, pts) >= -1e-12
    assert maj.concavity_defect() >= -1e-9
    assert maj.monotone_defect() >= -1e-12
    assert maj.psi[0] == 0.0
    assert not maj.psi.flags.writeable
    t0 = maj(pts, np.zeros(len(pts)))
    npt.assert_array_equal(t0, 0.0)
    assert np.isfinite(maj.linear_bound_constant())


@pytest.mark.parametrize("density", ["callable", "array"])
@pytest.mark.parametrize("make_phi", _MAJORANT_BASES, ids=_MAJORANT_IDS)
def test_majorant_matches_per_point_construction(unit_square_17, make_phi, density):
    # p times one profile equals the construction carried out at every
    # point with that point's own density
    pts = unit_square_17.grid.points()
    p = _BOWL if density == "callable" else _BOWL(pts)
    phi = make_phi(p)
    deltas = 2.0 ** (-np.arange(13, dtype=float))
    t, table = oracles.majorant_table(phi, pts, deltas)
    bound = ep.build_concave_majorant(phi).bind(pts)
    got = np.stack([bound(tj) for tj in t], axis=1)
    npt.assert_allclose(got, table, rtol=1e-14, atol=0.0)


def test_majorant_array_and_callable_density_agree():
    mask = ep.box_mask(ep.build_grid(2, 5, (0.0, 1.0)))
    p = lambda pts: 1.0 + pts[:, 0] + 2.0 * pts[:, 1]
    pts = mask.interior_points()
    from_callable = ep.build_concave_majorant(ep.power_phi(p, 0.5))
    from_array = ep.build_concave_majorant(ep.power_phi(p(pts), 0.5))
    npt.assert_array_equal(from_array.psi, from_callable.psi)
    for t in (0.0, 0.3, 1.0, 1.7, 5.0):
        npt.assert_array_equal(from_array(pts, t), from_callable(pts, t))


def test_majorant_evaluates_off_the_lattice(rng):
    # the majorant is p(x) rho1(t): any point p evaluates at will do,
    # on or off the lattice the reaction was first solved on
    phi = ep.power_phi(_BOWL, 0.5)
    maj = ep.build_concave_majorant(phi)
    pts = np.vstack([[[17.0, -4.0], [0.123, 0.456]], rng.uniform(-3.0, 3.0, (6, 2))])
    t, table = oracles.majorant_table(phi, pts, 2.0 ** (-np.arange(13, dtype=float)))
    bound = maj.bind(pts)
    npt.assert_allclose(np.stack([bound(tj) for tj in t], axis=1), table,
                        rtol=1e-14, atol=0.0)
    assert ep.domination_defect(phi, maj, pts) >= -1e-12


def test_majorant_needs_a_separable_reaction():
    class Other(ep.Phi):
        def bind(self, points):
            return lambda t: np.zeros(len(points))

    with pytest.raises(MajorantError):
        ep.build_concave_majorant(Other())


def test_majorant_beats_reaction_above_table_range(unit_square_17):
    # domination persists for t far beyond the table because the linear
    # branch grows while the capped reaction saturates
    phi = ep.capped_linear_phi(1.0, 1.0)
    maj = ep.build_concave_majorant(phi)
    pts = unit_square_17.grid.points()[:5]
    t = np.full(5, 50.0)
    assert np.all(maj(pts, t) >= phi(pts, t) - 1e-12)


# ------------------------------------------------------- hypothesis audit

def test_check_hypotheses_sqrt():
    phi = ep.power_phi(1.0, 0.5)
    rep = ep.check_hypotheses(phi, PTS2)
    assert rep.vanishes_nonpositive
    assert rep.nondecreasing
    assert rep.concave
    # sup of sqrt(t)/(t+1) is 1/2, attained at t = 1
    assert rep.linear_bound_constant == pytest.approx(0.5, abs=1e-6)
    assert rep.linearly_bounded
    assert rep.ok


def test_check_hypotheses_supercritical_power():
    phi = ep.power_phi(1.0, 2.0)
    rep = ep.check_hypotheses(phi, PTS2)
    assert not rep.concave
    # max of t^2/(t+1) over the probed range [0, 2] is 4/3
    assert rep.linear_bound_constant == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_check_hypotheses_flags_decreasing_reaction():
    phi = ep.ProductPhi(1.0, _table([0.0, 1.0, 0.2]))
    rep = ep.check_hypotheses(phi, PTS2)
    assert not rep.nondecreasing
    assert rep.min_step < 0
    assert not rep.ok


def _raises_at_zero(t):
    if np.any(t == 0.0):
        raise ZeroDivisionError("rho is undefined at 0")
    return np.sqrt(t)


@pytest.mark.parametrize(
    "rho",
    [lambda t: t + 0.5, lambda t: np.sqrt(t) + 0.0 / t, _raises_at_zero],
    ids=["jump", "not_finite", "raises"],
)
def test_check_hypotheses_requires_rho_to_vanish_at_zero(rho):
    # phi is zeroed at t <= 0 whatever rho is, so the audit reads rho(0):
    # each of these passes every other check and fails only at t = 0
    rep = ep.check_hypotheses(ep.ProductPhi(1.0, rho), PTS2)
    assert not rep.vanishes_nonpositive
    assert rep.nondecreasing and rep.linearly_bounded
    assert not rep.ok
    assert rep.messages[0].startswith("rho(0) = ")


def test_linear_reaction_bound_constant_is_one():
    phi = ep.power_phi(3.0, 1.0)  # p = 3, phi = 3t, bound p(t+1) gives C -> 1
    rep = ep.check_hypotheses(phi, PTS2)
    assert rep.linear_bound_constant == pytest.approx(2.0 / 3.0, rel=1e-6)
    # with density p the reaction p*t sits under p*(t+1) with constant
    # sup t/(t+1) = 2/3 over the probed range [0, 2]


def _own(phi):
    return phi, phi.p


def _from_config(lines):
    """(phi, p) of a 2D config's [phi] section, as the CLI builds them."""
    return _build_phi(ep.RunConfig.from_text("[phi]\n" + lines + "\n"), 2)


# the reactions the audit and the majorant are checked on, each with the
# density its caller passes: phi's own, and for the zero family the
# configured one, signed here, which its reaction does not carry
_AUDITED = {
    "sqrt_expr_p": lambda: _own(
        ep.power_phi(ep.compile_point_function("1 / (1 + x1^2 + x2^2)", 2), 0.5)),
    "pow09": lambda: _own(ep.power_phi(_BOWL, 0.9)),
    "cubic": lambda: _own(ep.power_phi(_BOWL, 3.0)),
    "capped": lambda: _own(ep.capped_linear_phi(_BOWL, 0.7)),
    "affine": lambda: _own(ep.AffinePhi(_BOWL, 2.0)),
    "jump": lambda: _own(ep.ProductPhi(1.0, lambda t: t + 0.5)),
    "rho_expr": lambda: _from_config('family = expr\nrho = "min(t, 1.5)^0.7 + t / 3"\n'
                                     'p = "2 + x1"'),
    "majorant": lambda: _own(ep.build_concave_majorant(ep.power_phi(_BOWL, 0.5))),
    "signed_p": lambda: _own(ep.power_phi(lambda q: q[:, 0] - 0.3, 0.5)),
    "zero_signed_config_p": lambda: _from_config('family = zero\np = "x1 - 0.4"'),
}


@pytest.mark.parametrize("name", list(_AUDITED))
def test_audit_matches_per_node_construction(unit_square_17, name):
    # rho read once on the t-nodes gives the report that binding phi at
    # every node gives, to the last bit, and phi's own density the report
    # that the configured one gives
    phi, p = _AUDITED[name]()
    pts = unit_square_17.grid.points()
    assert repr(ep.check_hypotheses(phi, pts)) == repr(oracles.hypotheses_report(phi, p, pts))


@pytest.mark.parametrize("name", list(_AUDITED))
def test_majorant_profile_matches_per_radius_construction(name):
    # rho read once at every radius's mollifier nodes gives the profile
    # that one mollified_at_zero per radius gives, to the last bit
    phi, _ = _AUDITED[name]()
    psi = ep.build_concave_majorant(phi).psi
    assert psi.tobytes() == oracles.majorant_profile(phi).tobytes()


@pytest.mark.parametrize(
    "phi",
    [
        ep.power_phi(_BOWL, 0.5),
        ep.power_phi(_BOWL, 3.0),
        ep.capped_linear_phi(_BOWL, 0.3),
        ep.ProductPhi(_BOWL, lambda t: 2.0 * t + 0.5),  # jumps at t = 0
        ep.power_phi(lambda q: q[:, 0], 0.5),  # p changes sign
        ep.power_phi(0.7, 0.5),
    ],
    ids=["sqrt", "cubic", "capped", "affine", "signed_p", "constant_p"],
)
def test_domination_defect_matches_pointwise_gap(unit_square_17, phi):
    # the shared-p shortcut reads the gap off rho1 - rho; the reference
    # evaluates both reactions at every point and node
    pts = unit_square_17.grid.points()
    maj = ep.build_concave_majorant(phi)
    ref = oracles.domination_gap(phi, maj, pts)
    npt.assert_allclose(ep.domination_defect(phi, maj, pts), ref, rtol=1e-12, atol=1e-14)


def test_domination_defect_needs_a_majorant_of_the_same_density(unit_square_17):
    pts = unit_square_17.grid.points()
    phi = ep.power_phi(_BOWL, 0.5)
    # the same values from another density object: no shared p to factor out
    other = ep.build_concave_majorant(ep.power_phi(lambda q: _BOWL(q), 0.5))
    with pytest.raises(MajorantError):
        ep.domination_defect(phi, other, pts)
    with pytest.raises(MajorantError):
        ep.domination_defect(phi, ep.power_phi(_BOWL, 1.0), pts)
