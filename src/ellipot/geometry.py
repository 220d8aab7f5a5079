"""Lattice grids, domain masks, and regular exhaustion sequences.

A ``Grid`` is a tensor-product lattice on a box.  A ``DomainMask`` classifies
every grid point as interior, boundary, or exterior; the discrete domain is
"closed" in the sense that every axis neighbor of an interior point is
interior or boundary.  An ``ExhaustionSequence`` is a nested family of masks
D_1 c D_2 c ... c D_N with closure(D_n) contained in the interior of D_{n+1}
and D_N equal to the ambient mask.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import MaskError, NestingError

EXTERIOR = 0
INTERIOR = 1
BOUNDARY = 2

# coordinates within this fraction of a mesh width of a lattice point
# belong to it: far above the rounding of lo + i * h, far below one cell
_SNAP_TOL = 1e-9


class Grid:
    """Uniform tensor-product lattice on a d-dimensional box.

    Point coordinates along axis k are ``lo_k + i * h_k`` with
    ``h_k = (hi_k - lo_k) / (n_k - 1)``.  Immutable after construction.
    """

    def __init__(self, dim, shape, bounds):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        if len(shape) == 1 and dim > 1:
            shape = shape * dim
        if len(shape) != dim:
            raise ValueError(f"shape {shape} does not match dim {dim}")
        if any(n < 3 for n in shape):
            raise ValueError(f"every axis needs >= 3 points, got shape {shape}")

        bounds = np.asarray(bounds, dtype=float)
        if bounds.size == 2:
            bounds = np.tile(bounds.reshape(1, 2), (dim, 1))
        bounds = bounds.reshape(dim, 2)
        if np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ValueError(f"degenerate bounds {bounds.tolist()}")

        self.dim = dim
        self.shape = shape
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self.spacing = tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, shape)
        )
        self.size = int(np.prod(shape))
        self._points = None

    def axis(self, k):
        """Coordinates along axis k (exactly lo + i*h)."""
        lo, _ = self.bounds[k]
        return lo + self.spacing[k] * np.arange(self.shape[k])

    def points(self):
        """All grid points as an (size, dim) array in row-major order."""
        if self._points is None:
            axes = [self.axis(k) for k in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._points = np.stack([m.ravel() for m in mesh], axis=1)
            self._points.setflags(write=False)
        return self._points

    def flat_index_of(self, coords):
        """Flat indices of lattice points given coordinates (n, dim).

        Raises ValueError when a coordinate is off-lattice beyond _SNAP_TOL
        relative to the mesh width.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        idx = np.empty(coords.shape, dtype=np.int64)
        for k in range(self.dim):
            lo, _ = self.bounds[k]
            h = self.spacing[k]
            raw = (coords[:, k] - lo) / h
            near = np.rint(raw)
            if np.any(np.abs(raw - near) > _SNAP_TOL) or np.any(near < 0) or np.any(
                near > self.shape[k] - 1
            ):
                raise ValueError("coordinates do not lie on the grid")
            idx[:, k] = near.astype(np.int64)
        return np.ravel_multi_index(tuple(idx.T), self.shape)

    def cell_volume(self):
        return float(np.prod(self.spacing))

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.shape == other.shape
            and self.bounds == other.bounds
        )

    def __hash__(self):
        return hash((self.dim, self.shape, self.bounds))

    def __repr__(self):
        return f"Grid(dim={self.dim}, shape={self.shape}, bounds={self.bounds})"


def build_grid(dim, shape, bounds):
    """Construct a Grid; see :class:`Grid` for conventions."""
    return Grid(dim, shape, bounds)


def values_at(data, points):
    """Evaluate a constant, an array or a callable at points, shape (n,).

    A constant is repeated at every point.  An array must hold exactly one
    value per point (``ValueError`` otherwise).  A callable is called once
    on the whole (n, dim) array; only when that raises ``TypeError`` or
    ``ValueError``, or returns a shape other than (n,), is it called again
    point by point, one (dim,) coordinate vector at a time.
    """
    n = len(points)
    if callable(data):
        try:
            out = np.asarray(data(points), dtype=float)
            if out.shape == (n,):
                return out
        except (TypeError, ValueError):
            pass
        return np.fromiter((float(data(q)) for q in points), dtype=float, count=n)
    arr = np.atleast_1d(np.asarray(data, dtype=float))
    if arr.size == 1:
        return np.full(n, float(arr[0]))
    if arr.size != n:
        raise ValueError(f"data has {arr.size} values for {n} points")
    return arr.astype(float).reshape(n)


def _shifted(flags, axis, step):
    """Boolean array shifted by one lattice step; out-of-grid reads False."""
    out = np.zeros_like(flags)
    src = [slice(None)] * flags.ndim
    dst = [slice(None)] * flags.ndim
    if step > 0:
        src[axis] = slice(1, None)
        dst[axis] = slice(None, -1)
    else:
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
    out[tuple(dst)] = flags[tuple(src)]
    return out


def _neighbor_or(flags):
    """Union of the 2d axis-neighbor shifts of a boolean array."""
    acc = np.zeros_like(flags)
    for axis in range(flags.ndim):
        acc |= _shifted(flags, axis, +1)
        acc |= _shifted(flags, axis, -1)
    return acc


def _neighbor_and(flags):
    """Intersection of the 2d axis-neighbor shifts (False off-grid)."""
    acc = np.ones_like(flags)
    for axis in range(flags.ndim):
        acc &= _shifted(flags, axis, +1)
        acc &= _shifted(flags, axis, -1)
    return acc


class DomainMask:
    """Per-point classification of a grid into interior/boundary/exterior.

    Construct via :func:`mask_from_predicate`, :func:`mask_from_interior`,
    or :func:`box_mask`; the constructor only validates a given class array.
    """

    def __init__(self, grid, classes, _validated=False):
        classes = np.asarray(classes, dtype=np.int8)
        if classes.shape != grid.shape:
            raise ValueError("class array shape does not match grid")
        self.grid = grid
        self.classes = classes
        self.classes.setflags(write=False)
        self.interior_flat = np.flatnonzero(classes.ravel() == INTERIOR)
        self.boundary_flat = np.flatnonzero(classes.ravel() == BOUNDARY)
        if not _validated:
            self._validate()

    def _validate(self):
        if self.interior_flat.size == 0:
            raise MaskError("mask has empty interior")
        interior = self.classes == INTERIOR
        closed = self.classes != EXTERIOR
        # every axis neighbor of an interior point must be interior or boundary
        if np.any(interior & ~_neighbor_and(closed)):
            raise MaskError("interior point with an exterior axis neighbor")
        if not _connected(interior):
            raise MaskError("interior is not lattice-connected")

    @property
    def n_interior(self):
        return self.interior_flat.size

    @property
    def n_boundary(self):
        return self.boundary_flat.size

    def interior_points(self):
        return self.grid.points()[self.interior_flat]

    def boundary_points(self):
        return self.grid.points()[self.boundary_flat]

    def same_as(self, other):
        return self.grid == other.grid and np.array_equal(self.classes, other.classes)

    def __repr__(self):
        return (
            f"DomainMask(interior={self.n_interior}, boundary={self.n_boundary}, "
            f"grid={self.grid.shape})"
        )


def _connected(flags):
    """True when the set marked by ``flags`` is axis-connected (or empty):
    one ``connected_components`` call on the graph that joins each point of
    the set to its axis neighbours in the set."""
    flat = np.flatnonzero(flags.ravel())
    if flat.size <= 1:
        return True
    number = np.full(flags.size, -1, dtype=np.int64)
    number[flat] = np.arange(flat.size)
    heads, tails = [], []
    stride = 1
    for axis in range(flags.ndim - 1, -1, -1):
        # the points whose successor along the axis is also in the set
        head = np.flatnonzero((flags & _shifted(flags, axis, +1)).ravel())
        heads.append(number[head])
        tails.append(number[head + stride])
        stride *= flags.shape[axis]
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    graph = sp.csr_matrix(
        (np.ones(heads.size, dtype=np.int8), (heads, tails)), shape=(flat.size,) * 2
    )
    return csgraph.connected_components(graph, directed=False)[0] == 1


def mask_from_interior(grid, interior_flags):
    """Mask with the given interior set; boundary = axis neighbors of it."""
    interior = np.asarray(interior_flags, dtype=bool).reshape(grid.shape)
    boundary = _neighbor_or(interior) & ~interior
    classes = np.full(grid.shape, EXTERIOR, dtype=np.int8)
    classes[interior] = INTERIOR
    classes[boundary] = BOUNDARY
    return DomainMask(grid, classes)


def mask_from_predicate(grid, inside):
    """Classify grid points from an inside-predicate.

    ``inside`` is called on an (n, dim) array of points and must return a
    boolean array (a scalar predicate is applied pointwise as a fallback).
    A point is interior when the predicate holds there and at every axis
    neighbor (points on the grid edge are never interior); boundary points
    are the non-interior axis neighbors of interior points.
    """
    inside_arr = (values_at(inside, grid.points()) != 0.0).reshape(grid.shape)
    interior = inside_arr & _neighbor_and(inside_arr)
    return mask_from_interior(grid, interior)


def box_mask(grid):
    """Mask of the closed box: face points (corners included) are boundary.

    Unlike :func:`mask_from_predicate`, every lattice point is active, so
    stencils with diagonal arms (mixed-derivative terms) stay on the grid.
    """
    classes = np.full(grid.shape, INTERIOR, dtype=np.int8)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = 0
        hi[ax] = grid.shape[ax] - 1
        classes[tuple(lo)] = BOUNDARY
        classes[tuple(hi)] = BOUNDARY
    # with at least 3 points per axis the box is a valid mask by
    # construction: a nonempty, connected interior closed by its faces
    return DomainMask(grid, classes, _validated=True)


def interior_depth(mask):
    """Lattice graph distance from each interior point to the boundary.

    Boundary points get 0; interior points get >= 1; exterior points -1.
    """
    depth = np.full(mask.grid.shape, -1, dtype=np.int64)
    boundary = mask.classes == BOUNDARY
    interior = mask.classes == INTERIOR
    if not boundary.any():
        raise MaskError("mask has no boundary; depth undefined")
    depth[boundary] = 0
    frontier = boundary.copy()
    level = 0
    while frontier.any():
        level += 1
        grown = _neighbor_or(frontier) & interior & (depth < 0)
        depth[grown] = level
        frontier = grown
    if np.any(interior & (depth < 0)):
        raise MaskError("some interior points cannot reach the boundary")
    return depth


class ExhaustionSequence:
    """Nested masks D_1 c ... c D_N exhausting ``omega``'s interior."""

    def __init__(self, omega, levels):
        self.omega = omega
        self.levels = list(levels)

    def check_nesting(self):
        """Verify closure(D_n) c interior(D_{n+1}), strict growth of the
        interiors, and the union property."""
        for lo, hi in zip(self.levels[:-1], self.levels[1:]):
            hi_int = hi.classes.ravel() == INTERIOR
            closure = np.concatenate([lo.interior_flat, lo.boundary_flat])
            if not np.all(hi_int[closure]):
                return False
            if lo.n_interior >= hi.n_interior:
                return False
        union = np.zeros(self.omega.grid.size, dtype=bool)
        for lv in self.levels:
            union[lv.interior_flat] = True
        target = np.zeros_like(union)
        target[self.omega.interior_flat] = True
        return bool(np.array_equal(union, target))


def build_exhaustion(omega, n_levels):
    """Build a regular exhaustion of ``omega`` with ``n_levels`` levels.

    Levels are depth shells: D_k has interior {depth >= t_k} for a strictly
    decreasing threshold ladder ending at t_N = 1 (so D_N = omega).  The
    ladder is chosen evenly in depth; construction fails when the domain is
    too shallow to nest the requested number of levels.
    """
    n_levels = int(n_levels)
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    depth = interior_depth(omega)
    depth_max = int(depth.max())
    # need n_levels - 1 distinct thresholds in [2, depth_max]
    if depth_max < n_levels:
        raise NestingError(
            f"cannot nest {n_levels} levels: max interior depth is {depth_max}"
        )
    thresholds = [1]
    for k in range(n_levels - 1, 0, -1):
        ideal = 1 + (depth_max - 1) * (n_levels - k) / n_levels
        thresholds.append(max(thresholds[-1] + 1, int(round(ideal))))
    thresholds = thresholds[::-1]  # decreasing, ends with 1
    if thresholds[0] > depth_max:
        raise NestingError(
            f"cannot nest {n_levels} levels: max interior depth is {depth_max}"
        )

    levels = []
    for t in thresholds[:-1]:
        try:
            levels.append(mask_from_interior(omega.grid, depth >= t))
        except MaskError as exc:
            raise NestingError(f"level at depth {t} is not a valid domain: {exc}")
    levels.append(omega)
    seq = ExhaustionSequence(omega, levels)
    if not seq.check_nesting():
        raise NestingError("constructed levels fail the nesting invariant")
    return seq

