"""The benchmark's tracer finds every ellipot name it hooks.

``perfbench/tracing.py`` wraps package callables by name and raises
KeyError on a name that is gone, so renaming or deleting a hooked name
breaks the benchmark; this installs every hook once and restores them.
"""

import importlib.util
from pathlib import Path

import ellipot as ep
from ellipot import solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves_and_is_restored():
    tracing = _load_tracing()
    solve = solver.solve_semilinear_dirichlet
    factor = ep.AssembledOperator.factor
    patcher = tracing.Patcher()
    try:
        tracing.install(tracing.Tracer(), patcher)
        patched = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _ in patcher.saved}
        assert solver.solve_semilinear_dirichlet is not solve
        assert ep.solve_semilinear_dirichlet is not solve
    finally:
        patcher.restore()
    # every listed function is rebound at least in its defining module
    for modname, names in tracing.FUNCTIONS.items():
        for attr in names:
            assert (f"ellipot.{modname}", attr) in patched
    assert solver.solve_semilinear_dirichlet is solve
    assert ep.solve_semilinear_dirichlet is solve
    assert ep.AssembledOperator.factor is factor
