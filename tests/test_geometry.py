import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ellipot as ep
from ellipot.errors import MaskError, NestingError
from ellipot.geometry import BOUNDARY, EXTERIOR, INTERIOR, _connected, interior_depth

import oracles


def test_grid_axes_and_points():
    grid = ep.build_grid(2, (5, 9), ((0.0, 1.0), (-1.0, 1.0)))
    npt.assert_allclose(grid.axis(0), np.linspace(0, 1, 5))
    npt.assert_allclose(grid.axis(1), np.linspace(-1, 1, 9))
    pts = grid.points()
    assert pts.shape == (45, 2)
    # row-major: the last coordinate varies fastest
    npt.assert_allclose(pts[0], [0.0, -1.0])
    npt.assert_allclose(pts[1], [0.0, -0.75])
    npt.assert_allclose(pts[-1], [1.0, 1.0])
    assert grid.cell_volume() == pytest.approx(0.25 * 0.25)


def test_grid_flat_index_round_trip():
    grid = ep.build_grid(3, 7, (-2.0, 2.0))
    for flat in [0, 17, 100, 342]:
        coords = grid.points()[flat]
        npt.assert_array_equal(grid.flat_index_of(coords), [flat])
    with pytest.raises(ValueError):
        grid.flat_index_of([0.1, 0.0, 0.0])


def test_grid_scalar_broadcast():
    grid = ep.build_grid(3, 5, (0.0, 1.0))
    assert grid.shape == (5, 5, 5)
    npt.assert_allclose(grid.bounds, [[0, 1]] * 3)


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        ep.build_grid(2, 2, (0.0, 1.0))


def test_box_mask_is_closed_box():
    grid = ep.build_grid(2, 5, (0.0, 1.0))
    mask = ep.box_mask(grid)
    assert mask.n_interior == 9
    # all 16 edge points are boundary, corners included
    assert np.sum(mask.classes == BOUNDARY) == 16
    assert np.sum(mask.classes == EXTERIOR) == 0
    assert mask.classes[0, 0] == BOUNDARY
    assert mask.classes[2, 2] == INTERIOR


def test_box_mask_counts_3d():
    grid = ep.build_grid(3, 7, (0.0, 1.0))
    mask = ep.box_mask(grid)
    assert mask.n_interior == 5**3
    assert np.sum(mask.classes == BOUNDARY) == 7**3 - 5**3


def test_predicate_mask_disc(disc_mask):
    # every interior point satisfies the predicate, no interior point
    # touches an exterior point along an axis
    pts = disc_mask.grid.points()[disc_mask.interior_flat]
    assert np.all(np.sum(pts**2, axis=1) < 0.81)
    assert disc_mask.n_interior > 0


def test_predicate_mask_empty_interior():
    grid = ep.build_grid(2, 9, (0.0, 1.0))
    with pytest.raises(MaskError):
        ep.mask_from_predicate(grid, lambda pts: np.zeros(len(pts), bool))


def test_predicate_mask_disconnected():
    grid = ep.build_grid(2, 21, (-1.0, 1.0))
    # two discs far apart
    def two_blobs(pts):
        d1 = np.sum((pts - [-0.6, 0.0]) ** 2, axis=1) < 0.04
        d2 = np.sum((pts - [0.6, 0.0]) ** 2, axis=1) < 0.04
        return d1 | d2

    with pytest.raises(MaskError):
        ep.mask_from_predicate(grid, two_blobs)


def test_interior_depth_box():
    grid = ep.build_grid(2, 9, (0.0, 1.0))
    mask = ep.box_mask(grid)
    depth = interior_depth(mask)
    assert depth[4, 4] == 4
    assert depth[1, 4] == 1
    assert np.all(depth[mask.classes == BOUNDARY] == 0)


def test_exhaustion_nesting(unit_square_17):
    exh = ep.build_exhaustion(unit_square_17, 3)
    assert len(exh.levels) == 3
    assert exh.check_nesting()
    sizes = [lv.n_interior for lv in exh.levels]
    assert sizes == sorted(sizes)
    assert exh.levels[-1] is unit_square_17


def test_exhaustion_too_shallow():
    grid = ep.build_grid(2, 5, (0.0, 1.0))
    with pytest.raises(NestingError):
        ep.build_exhaustion(ep.box_mask(grid), 4)


def test_exhaustion_union_property(disc_mask):
    exh = ep.build_exhaustion(disc_mask, 2)
    union = np.zeros(disc_mask.grid.size, bool)
    for lv in exh.levels:
        union[lv.interior_flat] = True
    target = np.zeros_like(union)
    target[disc_mask.interior_flat] = True
    npt.assert_array_equal(union, target)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        bool,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
        elements=st.booleans(),
    )
)
def test_connected_agrees_with_breadth_first_search(flags):
    assert _connected(flags) == oracles.bfs_connected(flags)
