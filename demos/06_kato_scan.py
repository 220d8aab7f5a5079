"""
Kato-class screening of a density
=================================

Whether a weight p is an admissible density for the potential-theoretic
machinery comes down to a local integrability test: the Kato modulus

    sup_x  integral over |x - y| <= alpha of  p(y) k(x - y) dy,

with kernel k(z) = 1/|z| in dimension 3 and log(alpha/|z|) in
dimension 2, must vanish as alpha -> 0.  The library estimates the
modulus by singular lattice sums (the self cell uses the exact cell
average of the kernel), computed at every interior lattice point at once
as one FFT convolution, and scans it over shrinking alpha.
"""

import math

import numpy as np

import ellipot as ep

# ---------------------------------------------------------------
# 1. Closed-form checks for the constant density.
#
# For p = 1 the modulus is the integral of the kernel over a ball:
# 2 pi alpha^2 in 3D, pi alpha^2 / 2 in 2D.  The lattice sums land
# within a few percent once h is a fraction of alpha.
# ---------------------------------------------------------------
grid3 = ep.build_grid(3, 25, (-0.25, 0.25))
mask3 = ep.box_mask(grid3)
for alpha in (0.25, 0.125):
    est = ep.kato_norm_estimate(mask3, 1.0, alpha)
    exact = 2.0 * math.pi * alpha**2
    print(f"3D, alpha = {alpha:5.3f}: estimate {est.value:.5f}, "
          f"ball integral {exact:.5f}, rel err {abs(est.value/exact - 1):.2%}")

grid2 = ep.build_grid(2, 65, (-0.25, 0.25))
mask2 = ep.box_mask(grid2)
for alpha in (0.25, 0.125):
    est = ep.kato_norm_estimate(mask2, 1.0, alpha)
    exact = math.pi * alpha**2 / 2.0
    print(f"2D, alpha = {alpha:5.3f}: estimate {est.value:.5f}, "
          f"disc integral {exact:.5f}, rel err {abs(est.value/exact - 1):.2%}")

# ---------------------------------------------------------------
# 2. The scan: admissible vs borderline densities.
#
# Halving alpha should cut the modulus of a bounded density by ~4
# (quadratic decay).  A density with an |x - x0|^(-2.5) singularity is
# not locally Kato in 3D: the near-center cells dominate the sum at
# every alpha and the scan barely moves.
# ---------------------------------------------------------------
alphas, vals = ep.kato_limit_scan(mask3, 1.0, [0.25, 0.125, 0.0625])
print(f"\nbounded density scan : {np.round(vals, 5)} "
      f"(successive ratios {np.round(vals[1:] / vals[:-1], 3)})")

x0 = np.array([0.013, 0.007, -0.011])    # singularity slightly off-lattice
sing = lambda pts: np.sum((pts - x0) ** 2, axis=1) ** (-1.25)
alphas, vals = ep.kato_limit_scan(mask3, sing, [0.25, 0.125, 0.0625])
print(f"singular density scan: {np.round(vals, 3)} "
      f"(successive ratios {np.round(vals[1:] / vals[:-1], 3)})")
print("a vanishing scan certifies the density; a flat one rejects it")
