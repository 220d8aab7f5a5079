"""Reaction terms phi(x, t), their hypotheses, and concave majorants.

Every reaction vanishes for t <= 0 (the solver relies on that to keep
iterates nonnegative).  The rule is written once, in the private helper
``_vanishing`` that every reaction's ``bind`` returns; calling a reaction
is binding it to the points and evaluating once.  The structural
hypotheses checked are: nondecreasing and continuous in t on [0, inf), a
linear growth bound phi(x, t) <= C p(x) (t + 1), and optionally concavity
in t.  For reactions that are not concave, :func:`build_concave_majorant`
produces a pointwise dominating reaction that is concave in t and still
linearly bounded, by taking a minimum of affine functions built from
mollified values at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MajorantError
from .geometry import values_at

# Gauss-Legendre nodes on [-1, 1] for the mollifier's normalization and
# the mollified values at zero; fixed, so that repeated constructions
# agree to the last bit
_MOLLIFIER_NODES = 64
# uniform t-nodes, starting at 0, on which majorant tables are built and
# hypotheses and domination are audited; the range covers the cap t = 1
# of the majorant's psi part and the linear growth beyond it
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
    Subclasses implement ``bind`` with their own cached data and return
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
    return ProductPhi(p, lambda t: np.power(t, g), name or f"p*t^{g:g}")


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

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si * si
        out[inside] = self.norm * np.exp(-1.0 / q) * (-2.0 * si / q**2)
        return out

    def height(self):
        """eta(0)."""
        return self.norm * float(np.exp(-1.0))

    def abs_derivative_integral(self):
        """Total variation of eta: rises to eta(0) and falls back, so 2 eta(0)."""
        return 2.0 * self.height()

    def slope_constant(self):
        """The constant 4 * int |eta'| entering the affine majorant slopes."""
        return 4.0 * self.abs_derivative_integral()

    def first_moment01(self):
        """int_0^1 s eta(s) ds (handy for separable-profile checks)."""
        return float(
            np.sum(self.weights01 * self.nodes01 * self(self.nodes01))
        )


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


class MajorantPhi(Phi):
    """Concave-in-t dominating reaction built on a fixed set of lattice points.

    phi1(x, t) = 2 p(x) t + psi(x, min(t, 1)) for t > 0 and 0 otherwise,
    where psi is stored as a per-point table over a uniform t-grid and is
    concave and nondecreasing in t with psi(x, 0) = 0.  Evaluation is only
    defined at the lattice points the table was built on.
    """

    def __init__(self, grid, table_flat, p_values, psi_table, t_grid, name="majorant"):
        self.grid = grid
        self.table_flat = np.asarray(table_flat, dtype=np.int64)
        self.p_values = np.asarray(p_values, dtype=float)
        self.psi_table = np.asarray(psi_table, dtype=float)
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.name = name
        self._row_of = np.full(grid.size, -1, dtype=np.int64)
        self._row_of[self.table_flat] = np.arange(len(self.table_flat))
        self._dt = float(self.t_grid[1] - self.t_grid[0])
        self._t_cap = 1.0

    def _rows_for(self, points):
        try:
            flat = self.grid.flat_index_of(points)
        except ValueError:
            raise MajorantError(
                "majorant evaluated at a point outside its construction set"
            )
        rows = self._row_of[flat]
        if np.any(rows < 0):
            raise MajorantError(
                "majorant evaluated at a point outside its construction set"
            )
        return rows

    def psi_at_rows(self, rows, t):
        """Interpolated psi for table rows at clamped arguments t."""
        tc = np.clip(t, self.t_grid[0], self.t_grid[-1])
        pos = (tc - self.t_grid[0]) / self._dt
        i0 = np.minimum(pos.astype(np.int64), len(self.t_grid) - 2)
        wgt = pos - i0
        tab = self.psi_table
        return tab[rows, i0] * (1.0 - wgt) + tab[rows, i0 + 1] * wgt

    def bind(self, points):
        rows = self._rows_for(np.asarray(points, dtype=float))
        pv = self.p_values[rows]
        return _vanishing(
            len(rows),
            lambda pos, t: 2.0 * pv[pos] * t
            + self.psi_at_rows(rows[pos], np.minimum(t, self._t_cap)),
        )

    def concavity_defect(self):
        """min over points and interior t-nodes of 2 psi_j - psi_{j-1} - psi_{j+1}.

        Nonnegative (up to rounding) certifies midpoint concavity on the
        grid.
        """
        tab = self.psi_table
        defect = 2.0 * tab[:, 1:-1] - tab[:, :-2] - tab[:, 2:]
        return float(defect.min())

    def monotone_defect(self):
        """min over consecutive t-nodes of psi_{j+1} - psi_j (>= 0 expected)."""
        return float(np.diff(self.psi_table, axis=1).min())

    def linear_bound_constant(self):
        """Smallest C with phi1(x, t) <= C p(x) (t + 1) over the table range.

        Positions with p(x) = 0 are skipped (there phi1 vanishes too).
        """
        pv = self.p_values
        nz = pv > 0
        if not nz.any():
            return 0.0
        rows = np.flatnonzero(nz)
        best = 0.0
        for tj in self.t_grid:
            tcap = np.full(rows.shape, min(float(tj), self._t_cap))
            vals = 2.0 * pv[rows] * float(tj) + self.psi_at_rows(rows, tcap)
            ratio = vals / (pv[rows] * (float(tj) + 1.0))
            best = max(best, float(ratio.max()))
        return best


def build_concave_majorant(
    phi,
    p,
    mask,
    deltas=None,
    mollifier=None,
    name=None,
):
    """Dominating concave reaction from mollified values at zero.

    For a ladder of smoothing radii delta the affine-in-t bounds

        psi_delta(x, t) = (2 c1 / delta) p(x) t + 2 (phi_x * eta_delta)(0)

    with c1 = 4 int |eta'| are tabulated on _T_GRID and their pointwise
    minimum is taken; a minimum of nondecreasing affine functions is
    concave and nondecreasing, and its value at t = 0 is forced to zero
    (the limiting value as the smoothing radius shrinks).  The result
    dominates phi wherever the linear-growth hypothesis with density p
    holds, satisfies the same hypothesis with a universal constant, and is
    concave in t, which is what the dichotomy machinery needs.

    Tables are built on the active points of ``mask``, so the majorant can
    be evaluated on any subdomain; an array ``p`` lists them interior
    points first, as :meth:`Field.active` does.
    """
    if deltas is None:
        deltas = 2.0 ** (-np.arange(13, dtype=float))
    else:
        deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas <= 0) or np.any(deltas > 1):
        raise MajorantError("smoothing radii must lie in (0, 1]")
    if mollifier is None:
        mollifier = Mollifier()

    active = np.concatenate([mask.interior_flat, mask.boundary_flat])
    pv = values_at(p, mask.grid.points()[active])
    order = np.argsort(active)
    active, pv = active[order], pv[order]
    points = mask.grid.points()[active]
    if np.any(pv < 0):
        raise MajorantError("density p must be nonnegative")

    c1 = mollifier.slope_constant()
    psi = np.full((len(points), len(_T_GRID)), np.inf)
    for d in deltas:
        intercept = 2.0 * mollified_at_zero(phi, points, d, mollifier)
        slope = (2.0 * c1 / d) * pv
        cand = slope[:, None] * _T_GRID[None, :] + intercept[:, None]
        np.minimum(psi, cand, out=psi)
    # the infimum over shrinking radii vanishes at t = 0; pinning the
    # first column keeps the table exact there and preserves midpoint
    # concavity (lowering an endpoint of a concave table cannot break it)
    psi[:, 0] = 0.0

    maj = MajorantPhi(
        mask.grid, active, pv, psi, _T_GRID, name=name or f"majorant({phi.name})"
    )
    if maj.monotone_defect() < -1e-12:
        raise MajorantError("majorant table lost monotonicity")
    return maj


def domination_defect(phi, majorant, points):
    """min over points and the majorant's t-grid of majorant(x, t) - phi(x, t).

    Nonnegative (up to rounding) certifies pointwise domination on the
    sampled set.
    """
    upper = majorant.bind(points)
    lower = phi.bind(points)
    worst = np.inf
    for t in majorant.t_grid:
        gap = upper(t) - lower(t)
        worst = min(worst, float(gap.min()))
    return worst


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

    def summary(self):
        rows = [
            f"vanishes for t <= 0: {'yes' if self.vanishes_nonpositive else 'NO'}",
            f"nondecreasing in t: {'yes' if self.nondecreasing else 'NO'}"
            f" (min step {self.min_step:.3e})",
            f"concave in t: {'yes' if self.concave else 'no'}"
            f" (defect {self.concavity_defect:.3e})",
            f"linear growth constant: {self.linear_bound_constant:.6g}"
            + ("" if self.linearly_bounded else "  (UNBOUNDED on the grid)"),
        ]
        rows.extend(self.messages)
        return "\n".join(rows)


def check_hypotheses(phi, p, points):
    """Audit a reaction against the structural hypotheses on sample points.

    The linear-growth constant is the max of phi / (p (t+1)) over the
    sample and _T_GRID; values above _BOUND_CAP count as unbounded.
    """
    points = np.asarray(points, dtype=float)
    pv = values_at(p, points)
    bound = phi.bind(points)
    messages = []

    neg = [bound(t) for t in (-1.0, -1e-6, 0.0)]
    vanishes = all(float(np.max(np.abs(v))) == 0.0 for v in neg)
    if not vanishes:
        messages.append("nonzero values at t <= 0")

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
