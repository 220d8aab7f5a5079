"""The package imports at module level only what a fresh interpreter must
load anyway: the standard library, numpy, and the parts of scipy that the
solvers and transforms use.

Import time is part of every command's start-up (and of the benchmark's
``setup_s``), so a new module-level dependency has to be added to
``ALLOWED`` here on purpose.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellipot"
ALLOWED = {
    "numpy",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "scipy.sparse._sparsetools",
    "scipy.fft",
}


def _statements(body):
    """The statements that run at import: module level, also inside if,
    try and with blocks, but not in function or class bodies."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                for part in getattr(node, block, []):
                    yield from _statements(part.body if isinstance(part, ast.ExceptHandler)
                                           else [part])


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def _allowed(name):
    return name.split(".")[0] in sys.stdlib_module_names or name in ALLOWED


def disallowed_imports(source):
    """The modules that ``source`` imports at module level outside the
    standard library and ``ALLOWED``; relative imports are the package's own."""
    bad = []
    for node in _statements(ast.parse(source).body):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if not _allowed(a.name)]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if not _allowed(node.module):
                bad.append(node.module)
                continue
            # ``from scipy.sparse import linalg`` imports a submodule
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                if not _allowed(sub) and _is_module(sub):
                    bad.append(sub)
    return bad


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_stay_within_the_allowed_set(path):
    assert disallowed_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, bad",
    [
        ("import scipy.integrate\n", ["scipy.integrate"]),
        ("from scipy import optimize\n", ["scipy"]),
        ("from scipy.sparse import _sparsetools, linalg as spla\n", []),
        ("try:\n    import matplotlib\nexcept ImportError:\n    pass\n", ["matplotlib"]),
        ("def f():\n    import scipy.integrate\n", []),
        ("from . import solver\nimport numpy as np\nfrom dataclasses import field\n", []),
    ],
    ids=["submodule", "from-package", "allowed-from", "in-try", "in-function", "own-and-stdlib"],
)
def test_the_guard_reads_every_module_level_import(source, bad):
    assert disallowed_imports(source) == bad
