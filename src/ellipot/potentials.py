"""Fields on masked grids, Dirichlet solves, Green operators, Kato sums.

Sign conventions.  The linear problem solved here is  L u = -g  in D with
u = f on the boundary, so nonnegative sources produce nonnegative
potentials whenever minus the interior block is an M-matrix.  The discrete
Green kernel is normalized so that lattice sums weighted by the cell
volume approximate the continuum integral operator.

Linear algebra.  Every Dirichlet solve here (harmonic extensions, Green
potentials, kernel columns and rows) is one ``AssembledOperator.solve``
with B = -A_II: two type-I discrete sine transforms when the interior is
a full box and B the Kronecker sum of 1D second differences (constant
diagonal a and c, no drift), a solve on the operator's cached SuperLU
factor otherwise.  Operators shared across calls
share that factor, so a family of Green sums on one operator factors it
at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import LinearSolveError
from .geometry import EXTERIOR, INTERIOR, values_at

# cell averages of the Kato kernels over one lattice cell, used for the
# self term of the singular sums:
#   d=3 kernel 1/|z|:  3 * int_0^1 int_0^1 du dv / sqrt(1+u^2+v^2)
#   d=2 kernel -log|z|: 3/2 + log(2)/2 - pi/4
_CELL_AVG_INV = 2.3800773639795536
_CELL_AVG_LOG = 1.5 + 0.5 * math.log(2.0) - math.pi / 4.0


class Field:
    """Grid function defined on the active points of a mask.

    Values are stored on the full lattice with NaN at exterior points, so
    plotting and serialization stay shape-faithful while computations only
    ever read active entries.
    """

    def __init__(self, mask, values):
        values = np.asarray(values, dtype=float)
        if values.shape == (mask.grid.size,):
            values = values.reshape(mask.grid.shape)
        if values.shape != mask.grid.shape:
            raise ValueError("values shape does not match grid")
        self.mask = mask
        self.values = values.copy()
        flat = self.values.ravel()
        flat[mask.classes.ravel() == EXTERIOR] = np.nan

    @classmethod
    def from_active(cls, mask, interior_values, boundary_values=None):
        vals = np.full(mask.grid.size, np.nan)
        vals[mask.interior_flat] = np.asarray(interior_values, dtype=float)
        if boundary_values is None:
            vals[mask.boundary_flat] = 0.0
        else:
            vals[mask.boundary_flat] = np.asarray(boundary_values, dtype=float)
        return cls(mask, vals)

    def interior(self):
        return self.values.ravel()[self.mask.interior_flat]

    def boundary(self):
        return self.values.ravel()[self.mask.boundary_flat]

    def at(self, coords):
        """Value at an exact lattice point given by coordinates."""
        idx = self.mask.grid.flat_index_of(coords)
        out = self.values.ravel()[idx]
        return float(out[0]) if out.size == 1 else out

    def sup_interior(self):
        vals = self.interior()
        return float(vals.max()) if vals.size else float("nan")

    def __repr__(self):
        return (
            f"Field(sup={self.sup_interior():.6g}, "
            f"interior={self.mask.n_interior})"
        )


def boundary_values(mask, f):
    """Dirichlet data as a vector over boundary points.

    ``f`` may be a :class:`Field`, or anything :func:`values_at` takes: a
    constant, an array of length n_boundary, or a callable on points.
    """
    if isinstance(f, Field):
        return f.boundary()
    return values_at(f, mask.boundary_points())


def interior_values(mask, g):
    """Source data as a vector over interior points (same conventions)."""
    if isinstance(g, Field):
        return g.interior()
    return values_at(g, mask.interior_points())


def solve_interior(op, source=0.0, boundary=0.0):
    """Solve  L u = -g  in the interior with u = f on the boundary.

    Returns a :class:`Field`.  ``source`` is g (so nonnegative g gives a
    nonnegative potential on sign-safe discretizations).  The solve is
    ``op.solve``: DST-I on a constant-coefficient box, the operator's
    cached sparse LU elsewhere.
    """
    mask = op.mask
    g = interior_values(mask, source)
    f = boundary_values(mask, boundary)
    rhs = g + op.boundary_matrix @ f
    B = -op.interior_matrix
    u = op.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise LinearSolveError("linear solve produced non-finite values")
    res = B @ u - rhs
    scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 0.0)
    if np.max(np.abs(res)) > 1e-8 * scale:
        raise LinearSolveError(
            f"linear residual {np.max(np.abs(res)):.3e} exceeds tolerance"
        )
    return Field.from_active(mask, u, f)


def harmonic_extension(op, boundary):
    """Solution of  L u = 0  with the given boundary data."""
    return solve_interior(op, 0.0, boundary)


def green_apply(op, density):
    """Green operator applied to a density: solve L u = -g, u = 0."""
    return solve_interior(op, density, 0.0)


def green_kernel_column(op, source_point):
    """Discrete Green kernel G(., y) for a fixed lattice source point y.

    Normalized by the cell volume so lattice sums against it approximate
    continuum integrals; equals the response to a unit point mass.
    """
    mask = op.mask
    flat = mask.grid.flat_index_of(source_point)[0]
    where = np.flatnonzero(mask.interior_flat == flat)
    if where.size == 0:
        raise ValueError("source point must be an interior lattice point")
    g = np.zeros(mask.n_interior)
    g[where[0]] = 1.0 / mask.grid.cell_volume()
    return green_apply(op, g)


def green_row(op, eval_point):
    """Discrete Green kernel G(x, .) for a fixed evaluation point x.

    Uses one transposed solve with B (``op.solve``), so sweeping over all
    source points costs one DST pair on a box and a single factorization
    elsewhere.
    """
    mask = op.mask
    flat = mask.grid.flat_index_of(eval_point)[0]
    where = np.flatnonzero(mask.interior_flat == flat)
    if where.size == 0:
        raise ValueError("evaluation point must be an interior lattice point")
    e = np.zeros(mask.n_interior)
    e[where[0]] = 1.0
    row = op.solve(e, trans="T") / mask.grid.cell_volume()
    return Field.from_active(mask, row, np.zeros(mask.n_boundary))


@dataclass
class KatoEstimate:
    """Result of the truncated singular sum sup_x sum_{|y-x|<=alpha} p k."""

    value: float
    alpha: float
    n_centers: int
    argmax_point: np.ndarray


def kato_norm_estimate(mask, p, alpha):
    """Lattice estimate of the Kato modulus of a density at radius alpha.

    Sums  h^d * |p(y)| * k(x - y)  over active points y within distance
    alpha of x, where k is 1/|z| in dimension 3 and log(alpha/|z|) in
    dimension 2, clipped at 0; the y = x term uses the cell average of the
    kernel.  ``p`` is a constant, a callable on points, or an array with
    one value per active point, interior points first.  On the uniform
    lattice the sums at all centers are one discrete convolution of the
    weighted density (zero at exterior points) with the truncated kernel,
    computed by FFT; the supremum is taken over every interior center.  A
    density is locally of Kato class exactly when this quantity vanishes as
    alpha -> 0, which :func:`kato_limit_scan` probes.
    """
    grid = mask.grid
    d = grid.dim
    if d not in (2, 3):
        raise ValueError("Kato estimate is defined for dimensions 2 and 3")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    h = grid.spacing
    hbar = float(np.mean(h))

    active = np.concatenate([mask.interior_flat, mask.boundary_flat])
    density = np.zeros(grid.shape)
    density.flat[active] = grid.cell_volume() * np.abs(
        values_at(p, grid.points()[active])
    )

    # truncated kernel on the offsets |i_k| <= m_k; no two grid points are
    # more than n_k - 1 steps apart along axis k
    radius = alpha * (1.0 + 1e-12)
    m = [min(int(radius / hk), n - 1) for hk, n in zip(h, grid.shape)]
    axes = [hk * np.arange(-mk, mk + 1) for hk, mk in zip(h, m)]
    r = np.sqrt(sum(z * z for z in np.ix_(*axes)))
    with np.errstate(divide="ignore"):
        k = 1.0 / r if d == 3 else np.log(alpha / r)
    k[tuple(m)] = (
        _CELL_AVG_INV / hbar if d == 3 else math.log(alpha / hbar) + _CELL_AVG_LOG
    )
    k[(r > radius) | (k < 0.0)] = 0.0

    # zero-padded to at least n_k + m_k points, the circular convolution
    # equals the linear one at every grid point, offset by m_k
    size = [sfft.next_fast_len(n + mk, real=True) for n, mk in zip(grid.shape, m)]
    sums = sfft.irfftn(sfft.rfftn(density, size) * sfft.rfftn(k, size), size)
    sums = sums[tuple(slice(mk, mk + n) for mk, n in zip(m, grid.shape))]

    at_centers = sums.ravel()[mask.interior_flat]
    best = int(np.argmax(at_centers))
    return KatoEstimate(float(at_centers[best]), float(alpha), mask.n_interior,
                        grid.points()[mask.interior_flat[best]])


def kato_limit_scan(mask, p, alphas):
    """Kato estimates over a decreasing ladder of radii.

    Each radius is one FFT convolution (:func:`kato_norm_estimate`), with
    the supremum over every interior center.  Returns (alphas, values)
    arrays; a vanishing tail indicates the local Kato property at the
    resolution of the grid.
    """
    alphas = np.asarray(sorted(alphas, reverse=True), dtype=float)
    vals = np.array([kato_norm_estimate(mask, p, a).value for a in alphas])
    return alphas, vals


# -- serialization ----------------------------------------------------

def save_field(field, path):
    """Write a field as CSV with a mask-describing header.

    Header comments carry dim/shape/bounds; rows list every active point
    as flat index, class character, coordinates, and value at full
    precision.
    """
    g = field.mask.grid
    classes = field.mask.classes.ravel()
    vals = field.values.ravel()
    with open(path, "w", newline="") as fh:
        fh.write("# field v1\n")
        fh.write(f"# dim {g.dim}\n")
        fh.write("# shape " + " ".join(str(n) for n in g.shape) + "\n")
        fh.write(
            "# bounds "
            + " ".join(f"{v:.17g}" for pair in g.bounds for v in pair)
            + "\n"
        )
        # CSV rows as csv.writer's default dialect writes them: no field
        # needs quoting, and lines end in \r\n
        head = [f"x{k + 1}" for k in range(g.dim)] + ["index", "class", "value"]
        fh.write(",".join(head) + "\r\n")
        active = np.concatenate(
            [field.mask.interior_flat, field.mask.boundary_flat]
        )
        active.sort()
        # a point's coordinates are its axes' values, so each axis value
        # is formatted once and the rows take its string
        coords = [
            np.array([f"{x:.17g}" for x in g.axis(k).tolist()], dtype=object)[i].tolist()
            for k, i in enumerate(np.unravel_index(active, g.shape))
        ]
        row = ",".join(["%s"] * g.dim + ["%d", "%s", "%.17g"]) + "\r\n"
        cols = coords + [
            active.tolist(),
            np.where(classes[active] == INTERIOR, "i", "b").tolist(),
            vals[active].tolist(),
        ]
        fh.write("".join([row % rec for rec in zip(*cols)]))
