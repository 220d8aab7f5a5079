"""
Blow-up sweeps: do solutions track the boundary data or saturate?
=================================================================

For absorption with at-most-linear growth (phi(x, t) <= p(x) (t + 1)
with bounded p), pushing the boundary data to m = infinity pushes the
solution to infinity everywhere: u_m keeps a fixed fraction of m.  A
superlinear absorption behaves in the opposite way -- it caps the
interior no matter how hard the boundary pushes.  blowup_sweep solves
along a geometric ladder of m and classifies the probe growth.
"""

import numpy as np

import ellipot as ep

grid = ep.build_grid(1, 257, (-1.0, 1.0))
op = ep.assemble(ep.box_mask(grid))

# ---------------------------------------------------------------
# 1. Sublinear absorption: no ceiling.
#
# phi(t) = sqrt(t).  The probe (midpoint) value divided by m tends to
# a positive constant: the family of solutions is unbounded, and in
# the unbounded-domain picture this is the regime with no finite
# envelope over all boundary data.
# ---------------------------------------------------------------
sweep = ep.blowup_sweep(op, ep.power_phi(1.0, 0.5), np.geomspace(1.0, 100.0, 9))
header, rows = sweep.tables()["sweep"]
print("  ".join(f"{c:>12s}" for c in header))
for row in rows:
    print("  ".join(f"{v:12.5g}" for v in row))
print(f"verdict: {sweep.verdict} "
      f"(last-decade increment {sweep.last_decade_increment:.2%})\n")

# ---------------------------------------------------------------
# 2. Cubic absorption: a hard ceiling.
#
# phi(t) = t^3 violates the linear-growth bound, and the sweep shows
# what that buys: the probe value creeps by less than 1% per decade of
# m once the interior profile settles.  (The residual creep is a grid
# effect -- the boundary cells grow like m^(1/3) and leak a slowly
# decaying influence inward; it shrinks linearly with h.)
# ---------------------------------------------------------------
ctl = ep.blowup_sweep(op, ep.power_phi(1.0, 3.0), np.geomspace(1.0, 1.0e4, 17))
print(f"cubic absorption: probe values "
      f"{np.round(ctl.values[::4].ravel(), 4)} for m = {ctl.m_values[::4]}")
print(f"verdict: {ctl.verdict} "
      f"(last-decade increment {ctl.last_decade_increment:.2%})\n")

# ---------------------------------------------------------------
# 3. The structural audit that separates the two regimes.
#
# check_hypotheses screens a reaction for: vanishing at t <= 0,
# nondecreasing in t, and the growth constant C in
# phi <= C p (t + 1).  Admissibility for the no-ceiling conclusion
# needs C <= 1: sqrt passes, while the cubic blows through the bound
# -- which is exactly why it may saturate without contradicting the
# unbounded-family picture above.
# ---------------------------------------------------------------
pts = grid.points()
for label, phi in (("sqrt(t)", ep.power_phi(1.0, 0.5)),
                   ("t^3    ", ep.power_phi(1.0, 3.0))):
    rep = ep.check_hypotheses(phi, pts)
    admissible = rep.ok and rep.linear_bound_constant <= 1.0 + 1e-9
    print(f"{label}: growth constant C = {rep.linear_bound_constant:.3f}, "
          f"admissible (C <= 1) -> {admissible}")
