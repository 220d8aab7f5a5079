"""
Dead cores in 3D by nonlinear multigrid
=======================================

The 3D twin of demo 09.  With phi(x, t) = t^(1/2) and boundary value 1
the solution of L u = sqrt(u) vanishes beyond distance 2 sqrt(3) from
the nearest wall, away from edges and corners.  On a 3D box (here the
interior side halves 63 -> 31 -> 15 -> 7 -> 3) the semilinear solver
runs Full Approximation Scheme V-cycles with the exact pointwise
Gauss-Seidel sweep as smoother.  This demo solves

1. the 65^3 box of half-width 8 (250,047 unknowns) and prints the cycle
   count, the time, the certified error bound and the volume of the dead
   core, in 1.2 to 1.5 s on a 2-core x86 VM;
2. the 33^3 box of half-width 8 with the upwind drift b = (0.5, 0, 0),
   in 3 to 4 s there, most of it the operator's own sparse LU, which the
   harmonic extension and the certificates need;
3. the ball of radius 3.6 on the 33^3 lattice over [-4, 4]^3 (10,467
   unknowns), whose V-cycles run on the cube's hierarchy sliced to the
   ball, in under 1.5 s there.
"""

import time

import numpy as np

import ellipot as ep

phi = ep.power_phi(1.0, 0.5)

# ---------------------------------------------------------------
# 1. The 65^3 dead-core box.
#
# Half-width 8 with 65 points per axis: spacing 1/4.  B is the plain
# Laplacian, so the harmonic extension and the certificates are sine
# transforms and nothing is factored.
# ---------------------------------------------------------------
grid = ep.build_grid(3, 65, (-8.0, 8.0))
op = ep.assemble(ep.box_mask(grid))
t_start = time.perf_counter()
u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
seconds = time.perf_counter() - t_start
print(f"65^3 box, half-width 8: {op.n_interior:,} unknowns, method {rep.method}, "
      f"{rep.status} in {rep.iterations} cycles, {seconds:.2f} s")
print(f"final residual {rep.final_residual:.2e} (gate {10 * rep.tol:.0e}), "
      f"error bound {rep.error_bound:.2e}, factorizations {rep.factorizations}")

# error_bound bounds |u - u*| for the discrete solution u*, so u* can
# vanish only where u <= error_bound.  The sweep sets a point to exactly 0
# where its right side is within the root tolerance, so u == 0 marks
# most of that set too.  The 1D profile leaves the inner cube of side
# 16 - 4 sqrt(3), and edges and corners round it off.
v = u.interior()
cell = grid.cell_volume()
zero = float(np.count_nonzero(v == 0.0)) * cell
below = float(np.count_nonzero(v <= rep.error_bound)) * cell
cube = (16.0 - 4.0 * np.sqrt(3.0)) ** 3
print(f"volume where u == 0: {zero:.1f}; where u <= error bound: {below:.1f} "
      f"(inner cube of the 1D profile: {cube:.1f})")
print(f"u at the origin: {u.at(np.zeros(3)):.1e}; sup u: {u.sup_interior():.6f}")

# ---------------------------------------------------------------
# 2. A 33^3 box with upwind drift.
#
# Drift breaks the sine transform, so the operator is factored once; the
# coarse levels re-assemble the same drift and FAS itself factors nothing.
# ---------------------------------------------------------------
grid = ep.build_grid(3, 33, (-8.0, 8.0))
op = ep.assemble(ep.box_mask(grid), ep.CoefficientSet(b=np.array([0.5, 0.0, 0.0])))
t_start = time.perf_counter()
u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
seconds = time.perf_counter() - t_start
print(f"33^3 box with drift (0.5, 0, 0): method {rep.method}, {rep.status} in "
      f"{rep.iterations} cycles, {seconds:.2f} s, factorizations {rep.factorizations}, "
      f"error bound {rep.error_bound:.2e}")

# ---------------------------------------------------------------
# 3. A ball.
#
# A ball is no box: its B is factored once, as with drift.  The levels are
# those of the ball's bounding cube, each sliced to the coarse points
# whose fine neighbours in the restriction all lie inside the ball.
# ---------------------------------------------------------------
grid = ep.build_grid(3, 33, (-4.0, 4.0))
ball = ep.mask_from_predicate(grid, lambda q: np.sum(q**2, axis=1) < 3.6**2)
op = ep.assemble(ball)
t_start = time.perf_counter()
u, rep = ep.solve_semilinear_dirichlet(op, phi, 1.0)
seconds = time.perf_counter() - t_start
print(f"ball of radius 3.6 on 33^3: {op.n_interior:,} unknowns, method {rep.method}, "
      f"{rep.status} in {rep.iterations} cycles, {seconds:.2f} s, "
      f"factorizations {rep.factorizations}, error bound {rep.error_bound:.2e}")
