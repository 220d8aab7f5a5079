"""Fast tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ellipot as ep  # noqa: E402
from tracing import (  # noqa: E402
    ROOT, SPLU, TRISOLVE, Patcher, Tracer, install, layer_metrics, self_times,
    tail_percentile,
)
from workloads import Capture, draw, residual, solve_checks  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # name, start, end, parent, pass
    spans = [
        ["root", 0.0, 10.0, ROOT, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a1", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["b1", 5.0, 6.0, 3, 1],
        ["b2", 5.5, 7.0, 3, 1],  # overlaps b1: the union counts once
        ["late", 9.5, 12.0, 0, 1],  # runs past its parent: clipped
    ]
    st = self_times(spans)
    assert st == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 2.0, 1.0, 1.5, 2.5])


def test_factor_and_trisolve_attribution_by_parent_span():
    spans = [
        ["solver.solve_semilinear_dirichlet", 0.0, 10.0, ROOT, 1],
        ["operators.AssembledOperator.factor", 0.0, 2.0, 0, 1],
        [SPLU, 0.0, 2.0, 1, 1],
        [SPLU, 2.0, 4.0, 0, 1],
        [TRISOLVE, 4.0, 5.0, 0, 1],
        [TRISOLVE, 5.0, 6.0, 0, 1],
    ]
    info = {
        0: {"iterations": 2, "refreshes": 0, "converged": True, "stagnated": False},
        2: {"fill_nnz": 100},
        3: {"fill_nnz": 40},
    }
    m = layer_metrics(spans, info, 10.0)
    assert (m["operators.factor_calls"], m["operators.factor_fill_nnz"]) == (1, 100)
    assert (m["solver.shift_factor_calls"], m["solver.shift_fill_nnz"]) == (1, 40)
    assert m["solver.trisolve_calls"] == 2
    assert m["solver.trisolve_share"] == pytest.approx(0.2)
    assert m["solver.share"] == pytest.approx(1.0)
    assert m["solver.self_share"] == pytest.approx(0.4)
    assert m["solver.converged_ratio"] == 1.0
    assert m["potentials.kato_share"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(8) == 100
    assert tail_percentile(18) == 100  # p44 would sit below the median
    assert tail_percentile(20) == 50
    assert tail_percentile(1000) == 99


def test_default_seed_draws_the_nominal_inputs():
    assert draw("deadcore2d", 0) == (1.0, 1.0)
    c, amp = draw("deadcore2d", 3)
    assert draw("deadcore2d", 3) == (c, amp)
    assert 0.98 <= c <= 1.02 and 0.98 <= amp <= 1.02 and (c, amp) != (1.0, 1.0)


@pytest.fixture
def small_solves():
    """Two nested levels of a 2D exhaustion, captured from outside."""
    grid = ep.build_grid(2, 17, (-1.0, 1.0))
    exh = ep.build_exhaustion(ep.box_mask(grid), 2)
    capture = Capture()
    patcher = Patcher()
    capture.install(patcher)
    try:
        ep.run_exhaustion(exh, ep.power_phi(1.0, 0.5), 1.0, keep_fields=False)
    finally:
        patcher.restore()
    return capture.solves


def test_outside_residual_certifies_a_converged_solve(small_solves):
    checks, certified, total = solve_checks(small_solves, lambda pts: np.ones(len(pts)))
    assert (certified, total) == (2, 2)
    assert [name for name, ok in checks if not ok] == []
    assert [name for name, _ in checks].count("levels0.decreasing") == 1


def test_outside_residual_sees_a_perturbed_solution(small_solves):
    s = small_solves[0]
    mask = s["mask"]
    vals = s["field"].values.ravel()
    u, f = vals[mask.interior_flat], vals[mask.boundary_flat]
    ones = np.ones(mask.n_interior)
    assert residual(s["a_ii"], s["a_ib"], u, f, ones) <= 10 * s["report"].tol
    assert residual(s["a_ii"], s["a_ib"], u + 1e-6, f, ones) > 1e-7


def test_tracing_wraps_imported_names_and_restores_them():
    import ellipot.experiments
    import scipy.sparse.linalg as spla

    original = ellipot.experiments.solve_semilinear_dirichlet
    splu = spla.splu
    tracer = Tracer()
    patcher = Patcher()
    install(tracer, patcher)
    try:
        assert ellipot.experiments.solve_semilinear_dirichlet is not original
        op = ep.assemble(ep.box_mask(ep.build_grid(2, 9, (-1.0, 1.0))))
        tracer.pass_id = 1
        ep.solve_semilinear_dirichlet(op, ep.power_phi(1.0, 0.5), 1.0)
        tracer.pass_id = None
    finally:
        patcher.restore()
    assert ellipot.experiments.solve_semilinear_dirichlet is original
    assert spla.splu is splu
    names = [s[0] for s in tracer.spans]
    assert names.count(SPLU) == 2  # harmonic-extension factor + shifted factor
    assert names.count(TRISOLVE) >= 3
    assert "nonlinearity.reaction" in names
