import numpy as np
import pytest

import ellipot as ep
from ellipot import AssembledOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def unit_square_17():
    grid = ep.build_grid(2, 17, (0.0, 1.0))
    return ep.box_mask(grid)


@pytest.fixture
def unit_interval_65():
    grid = ep.build_grid(1, 65, (0.0, 1.0))
    return ep.box_mask(grid)


@pytest.fixture
def disc_mask():
    grid = ep.build_grid(2, 25, (-1.0, 1.0))
    return ep.mask_from_predicate(
        grid, lambda pts: np.sum(pts**2, axis=1) < 0.81
    )


@pytest.fixture
def assembled(monkeypatch):
    """Every operator assembled while the test runs, in order."""
    ops = []
    assemble_ = AssembledOperator._assemble

    def counting_assemble(self):
        ops.append(self)
        return assemble_(self)

    monkeypatch.setattr(AssembledOperator, "_assemble", counting_assemble)
    return ops
