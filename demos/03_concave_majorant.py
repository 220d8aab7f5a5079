"""
Building a concave majorant for an absorption term
==================================================

Many comparison arguments need the absorption phi(x, t) replaced by a
dominating reaction phi_1 that is concave and nondecreasing in t, still
vanishes at t = 0, and grows at most linearly.  The library builds one
for a separable phi = p(x) rho(t) by mollifying rho in t over a ladder
of smoothing widths and adding a linear term, all scaled by the weight
p(x):

    phi_1(x, t) = p(x) (2 t + psi(min(t, 1))),

with psi one concave profile tabulated on a t-grid.  The result is a
reaction object like any other: it can be evaluated at any point,
audited, and fed straight back into the solver.
"""

import numpy as np

import ellipot as ep

grid = ep.build_grid(2, 17, (-1.0, 1.0))
mask = ep.box_mask(grid)
pts = grid.points()
bowl = lambda pts: 1.0 / (1.0 + np.sum(pts * pts, axis=1))

# ---------------------------------------------------------------
# 1. Majorants for three base reactions.
#
# For each base we report the three numbers that define "valid
# majorant": the domination defect min(phi_1 - phi) over a sample
# (must be >= 0 up to rounding), the concavity defect of the psi profile
# (second differences, must be <= 0 up to rounding, reported as its
# negative), and the linear growth constant C with
# phi_1 <= C p (t + 1).
# ---------------------------------------------------------------
bases = {
    "sqrt(t)    ": ep.power_phi(bowl, 0.5),
    "t^0.9      ": ep.power_phi(bowl, 0.9),
    "min(t, 1)  ": ep.capped_linear_phi(bowl),
}

for label, base in bases.items():
    maj = ep.build_concave_majorant(base)
    dom = ep.domination_defect(base, maj, pts)
    print(f"base {label}: domination defect {dom:+.2e}, "
          f"concavity defect {maj.concavity_defect():+.2e}, "
          f"phi_1(x, 0) max |.| {np.max(np.abs(maj(pts, 0.0))):.1e}, "
          f"growth constant C = {maj.linear_bound_constant():.3f}")

# ---------------------------------------------------------------
# 2. What the majorant looks like in t.
#
# At the center of the square, print a few values of the base sqrt
# reaction against its majorant: the majorant hugs the base from above
# and switches to pure linear growth past t = 1.
# ---------------------------------------------------------------
maj = ep.build_concave_majorant(bases["sqrt(t)    "])
center = np.zeros((1, 2))
print("\n    t      sqrt-base   majorant")
for t in (0.0, 0.05, 0.25, 1.0, 2.0, 4.0):
    b = float(bases["sqrt(t)    "](center, t)[0])
    m = float(maj(center, t)[0])
    print(f"  {t:5.2f}   {b:9.4f}   {m:8.4f}")

# ---------------------------------------------------------------
# 3. Using the majorant as a reaction.
#
# Since phi_1 dominates phi, the solution with phi_1 absorbs more and
# sits below the solution with phi -- a one-line comparison check.
# ---------------------------------------------------------------
op = ep.assemble(mask)
u_base, _ = ep.solve_semilinear_dirichlet(op, bases["sqrt(t)    "], 1.0)
u_maj, _ = ep.solve_semilinear_dirichlet(op, maj, 1.0)
gap = np.min(u_base.interior() - u_maj.interior())
print(f"\nsolution with majorant stays below the base solution: "
      f"interior min gap {gap:+.3f} "
      f"(centers {u_base.at([0.0, 0.0]):.3f} vs {u_maj.at([0.0, 0.0]):.3f})")
