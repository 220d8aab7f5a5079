"""Reaction terms phi(x, t), their hypotheses, and concave majorants.

Every reaction the package builds is separable, p(x) * rho(t)
(:class:`ProductPhi`), and vanishes for t <= 0 (the solver relies on that
to keep iterates nonnegative).  The rule is written once, in the private
helper ``_vanishing`` that every reaction's ``bind`` returns; calling a
reaction is binding it to the points and evaluating once.  The structural
hypotheses checked are: rho(0) = 0, so that phi is continuous at t = 0;
phi nondecreasing in t on [0, inf); a linear growth bound
phi(x, t) <= C p(x) (t + 1); and optionally concavity in t.  For
reactions that are not concave, :func:`build_concave_majorant` produces
a dominating reaction that is concave in t and still linearly bounded,
by taking a minimum of affine functions built from mollified values at
zero.  For p(x) * rho(t) that construction factors exactly: the
majorant is p(x) * rho1(t), with rho1 read off one 257-node profile built
from rho alone (:class:`MajorantPhi`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExprError, MajorantError
from .geometry import values_at

# Gauss-Legendre nodes on [-1, 1] for the mollifier's normalization and
# the mollified values at zero; fixed, so that repeated constructions
# agree to the last bit
_MOLLIFIER_NODES = 64
# uniform t-nodes, starting at 0, on which the majorant profile is built
# and hypotheses and domination are audited; the range covers the cap
# t = 1 of the majorant's psi part and the linear growth beyond it
_T_GRID = np.linspace(0.0, 2.0, 257)
_T_GRID.setflags(write=False)
# linear-growth constants above this count as unbounded on the sample
_BOUND_CAP = 1e6


def _vanishing(n, positive):
    """t -> phi at n fixed points: ``positive(pos, t[pos])`` where t > 0,
    zero elsewhere.  ``pos`` is the boolean selector of those points."""

    def call(t):
        tt = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        pos = tt > 0.0
        out = np.zeros(n)
        if pos.any():
            out[pos] = positive(pos, tt[pos])
        return out

    return call


class Phi:
    """Base reaction term.

    ``phi(points, t)`` is ``phi.bind(points)(t)``: ``bind`` fixes the
    points once and returns a function of t that is zero where t <= 0.
    :class:`ProductPhi` is the one implementation; its ``bind`` returns
    ``_vanishing`` so the rule for t <= 0 is written once.
    """

    name = "phi"

    def __call__(self, points, t):
        return self.bind(points)(t)

    def bind(self, points):
        """A function t -> phi(points, t), zero where t <= 0."""
        raise NotImplementedError


class ProductPhi(Phi):
    """Separable reaction p(x) * rho(t) with rho(0) = 0 expected."""

    def __init__(self, p, rho, name="p*rho"):
        self.p = p
        self.rho = rho
        self.name = name

    def bind(self, points):
        pv = values_at(self.p, np.asarray(points, dtype=float))
        rho = self.rho
        return _vanishing(len(pv), lambda pos, t: pv[pos] * rho(t))


class AffinePhi(ProductPhi):
    """p(x) * (slope * t + offset) for t > 0, zero otherwise."""

    def __init__(self, p, slope=1.0, offset=0.0, name="affine"):
        self.slope = float(slope)
        self.offset = float(offset)
        super().__init__(p, lambda t: self.slope * t + self.offset, name)


def power_phi(p, gamma, name=None):
    """p(x) * t^gamma; concave for 0 < gamma <= 1, convex above."""
    g = float(gamma)
    if g <= 0:
        raise ValueError("gamma must be positive")
    # t ** g takes numpy's scalar-power fast path (sqrt at g = 1/2, a square
    # at 2), which rounds as np.power(t, g) does and costs half as much
    return ProductPhi(p, lambda t: t ** g, name or f"p*t^{g:g}")


def capped_linear_phi(p, cap=1.0, name=None):
    """p(x) * min(t, cap): bounded, concave, nondecreasing."""
    c = float(cap)
    return ProductPhi(p, lambda t: np.minimum(t, c), name or f"p*min(t,{c:g})")


class Mollifier:
    """Even smooth bump supported on (-1, 1) with unit integral.

    eta(s) = N exp(-1/(1-s^2)) for |s| < 1.  The normalization and all
    derived constants come from the _MOLLIFIER_NODES-point Gauss-Legendre
    rule.
    """

    def __init__(self):
        x, w = np.polynomial.legendre.leggauss(_MOLLIFIER_NODES)
        self.nodes01 = 0.5 * (x + 1.0)
        self.weights01 = 0.5 * w
        raw_half = float(np.sum(self.weights01 * self._unnormalized(self.nodes01)))
        self.norm = 1.0 / (2.0 * raw_half)

    @staticmethod
    def _unnormalized(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - si * si))
        return out

    def __call__(self, s):
        return self.norm * self._unnormalized(s)

    def slope_constant(self):
        """The constant 4 * int |eta'| entering the affine majorant slopes:
        eta rises to eta(0) and falls back, so int |eta'| = 2 eta(0)."""
        return 8.0 * self.norm * float(np.exp(-1.0))


def mollified_at_zero(phi, points, delta, mollifier=None):
    """The smoothed value (phi_x * eta_delta)(0) = int_0^1 phi(x, delta s) eta(s) ds.

    Only the t > 0 half contributes because phi vanishes at t <= 0.
    Returns one value per point.
    """
    if mollifier is None:
        mollifier = Mollifier()
    bound = phi.bind(points)
    s = mollifier.nodes01
    w = mollifier.weights01 * mollifier(s)
    acc = np.zeros(len(points))
    for sq, wq in zip(s, w):
        acc += wq * bound(float(delta) * sq)
    return acc


class MajorantPhi(ProductPhi):
    """Concave-in-t dominating reaction p(x) * rho1(t).

    rho1(t) = 2 t + psi(min(t, 1)), where the profile ``psi`` is stored on
    ``t_grid`` (read linearly in between), is concave and nondecreasing,
    and vanishes at t = 0.  Like every ProductPhi it evaluates at any
    points its density p evaluates at.
    """

    t_grid = _T_GRID

    def __init__(self, p, psi, name="majorant"):
        psi = np.array(psi, dtype=float)
        psi.setflags(write=False)
        self.psi = psi
        super().__init__(p, self._rho1, name)

    # perfbench/tracing.py wraps ``bind`` in this class's own dict
    bind = ProductPhi.bind

    def _rho1(self, t):
        return 2.0 * t + np.interp(np.minimum(t, 1.0), self.t_grid, self.psi)

    def concavity_defect(self):
        """min over interior t-nodes of 2 psi_j - psi_{j-1} - psi_{j+1}.

        Nonnegative (up to rounding) certifies midpoint concavity on the
        grid.
        """
        psi = self.psi
        return float((2.0 * psi[1:-1] - psi[:-2] - psi[2:]).min())

    def monotone_defect(self):
        """min over consecutive t-nodes of psi_{j+1} - psi_j (>= 0 expected)."""
        return float(np.diff(self.psi).min())

    def linear_bound_constant(self):
        """Smallest C with rho1(t) <= C (t + 1) on ``t_grid``, so that
        phi1(x, t) <= C p(x) (t + 1) wherever p(x) >= 0."""
        t = self.t_grid
        return float(np.max(self.rho(t) / (t + 1.0)))


def build_concave_majorant(phi, deltas=None, mollifier=None, name=None):
    """Dominating concave reaction of a separable phi = p(x) rho(t).

    For a ladder of smoothing radii delta the affine-in-t bounds

        psi_delta(x, t) = (2 c1 / delta) p(x) t + 2 (phi_x * eta_delta)(0)

    with c1 = 4 int |eta'| are the paper's construction.  For phi = p rho
    the mollified value at zero is p(x) times that of rho alone, so
    psi_delta = p(x) psih_delta(t) and the whole construction is done once,
    on the profile psih = min over delta of psih_delta tabulated on
    _T_GRID.  A minimum of nondecreasing affine functions is concave and
    nondecreasing; its value at t = 0 is forced to zero (the limiting
    value as the smoothing radius shrinks).  The result
    p(x) (2 t + psih(min(t, 1))) dominates phi wherever p >= 0, grows
    at most like C p(x) (t + 1) with a universal C, and is concave in t,
    which is what the dichotomy machinery needs.
    """
    if not isinstance(phi, ProductPhi):
        raise MajorantError("a majorant is built for reactions p(x) * rho(t) only")
    if deltas is None:
        deltas = 2.0 ** (-np.arange(13, dtype=float))
    else:
        deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas <= 0) or np.any(deltas > 1):
        raise MajorantError("smoothing radii must lie in (0, 1]")
    if mollifier is None:
        mollifier = Mollifier()

    unit, origin = ProductPhi(1.0, phi.rho), np.zeros((1, 1))
    c1 = mollifier.slope_constant()
    psi = np.full(len(_T_GRID), np.inf)
    for d in deltas:
        intercept = 2.0 * mollified_at_zero(unit, origin, d, mollifier)[0]
        np.minimum(psi, (2.0 * c1 / d) * _T_GRID + intercept, out=psi)
    # the infimum over shrinking radii vanishes at t = 0; pinning the
    # first node keeps the profile exact there and preserves midpoint
    # concavity (lowering an endpoint of a concave table cannot break it)
    psi[0] = 0.0

    maj = MajorantPhi(phi.p, psi, name=name or f"majorant({phi.name})")
    if maj.monotone_defect() < -1e-12:
        raise MajorantError("majorant profile lost monotonicity")
    return maj


def domination_defect(phi, majorant, points):
    """min over points and the majorant's t-grid of majorant(x, t) - phi(x, t).

    Nonnegative (up to rounding) certifies pointwise domination on the
    sampled set.  ``majorant`` is a :class:`MajorantPhi` sharing phi's
    density p, as ``build_concave_majorant`` returns it: the gap
    p(x) g(t), with g = rho1 - rho (zero at t <= 0), is linear in p, so
    its minimum over the points is min(p_min g(t), p_max g(t)) whatever
    the sign of p.
    """
    if not (
        isinstance(phi, ProductPhi)
        and isinstance(majorant, MajorantPhi)
        and majorant.p is phi.p
    ):
        raise MajorantError("domination is audited for a majorant sharing phi's density")
    pv = values_at(phi.p, np.asarray(points, dtype=float))
    t = majorant.t_grid
    pos = t > 0.0
    g = np.zeros(t.shape)
    g[pos] = majorant.rho(t[pos]) - phi.rho(t[pos])
    return float(min((pv.min() * g).min(), (pv.max() * g).min()))


@dataclass
class HypothesisReport:
    """Discrete audit of the structural hypotheses of a reaction."""

    vanishes_nonpositive: bool
    nondecreasing: bool
    min_step: float
    concavity_defect: float
    concave: bool
    linear_bound_constant: float
    linearly_bounded: bool
    messages: list = field(default_factory=list)

    @property
    def ok(self):
        return self.vanishes_nonpositive and self.nondecreasing and self.linearly_bounded


def check_hypotheses(phi, p, points):
    """Audit a reaction p(x) rho(t) against the structural hypotheses on
    sample points.

    The linear-growth constant is the max of phi / (p (t+1)) over the
    sample and _T_GRID; values above _BOUND_CAP count as unbounded.
    """
    points = np.asarray(points, dtype=float)
    pv = values_at(p, points)
    bound = phi.bind(points)
    messages = []

    # bind zeroes phi at t <= 0 (``_vanishing``), so phi vanishes there and
    # is continuous at 0 exactly when rho(0) = 0; a rho that is not finite
    # at 0, or raises there, fails too
    try:
        with np.errstate(all="ignore"):
            rho0 = float(np.asarray(phi.rho(np.zeros(1)), dtype=float).flat[0])
    except (ArithmeticError, ValueError, ExprError):
        rho0 = np.nan
    vanishes = rho0 == 0.0
    if not vanishes:
        messages.append(f"rho(0) = {rho0:.3g}, not 0: phi jumps at t = 0")

    table = np.stack([bound(t) for t in _T_GRID], axis=1)
    steps = np.diff(table, axis=1)
    min_step = float(steps.min()) if steps.size else 0.0
    scale = max(1.0, float(np.abs(table).max()))
    nondecreasing = min_step >= -1e-12 * scale

    defect = 2.0 * table[:, 1:-1] - table[:, :-2] - table[:, 2:]
    # _T_GRID is uniform, which makes the midpoint test meaningful
    cdef = float(defect.min()) if defect.size else 0.0
    concave = cdef >= -1e-9 * scale

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = pv[:, None] * (_T_GRID[None, :] + 1.0)
        ratio = np.where(denom > 0, table / denom, 0.0)
    cbound = float(ratio.max()) if ratio.size else 0.0
    bounded = cbound <= _BOUND_CAP  # False for nan and inf too

    return HypothesisReport(
        vanishes, nondecreasing, min_step, cdef, concave, cbound, bounded, messages
    )
