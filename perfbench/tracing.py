"""In-memory span tracing of ellipot's public callables, from outside.

Nothing in the package is edited.  :class:`Patcher` swaps each wrapped
public callable for a timing wrapper in every ``ellipot`` module that
binds it (``ellipot.cli.compile_point_function`` is the same object as
``ellipot.expressions.compile_point_function`` until both are replaced),
plus ``scipy.sparse.linalg.splu``, whose result becomes a proxy that
times ``.solve``.  Each wrapper records one span: name, start, end,
parent span and pass id.  :func:`layer_metrics` reduces the spans of one
traced pass to the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

import numpy as np

ROOT = -1  # parent index of a top-level span

# (module, public functions) wrapped in every ellipot module that binds them
FUNCTIONS = {
    "geometry": ["build_grid", "box_mask", "build_exhaustion", "interior_depth",
                 "mask_from_predicate", "mask_from_interior"],
    "operators": ["assemble", "check_ellipticity", "check_m_matrix"],
    "potentials": ["solve_interior", "harmonic_extension", "green_apply",
                   "green_kernel_column", "green_row", "kato_norm_estimate",
                   "kato_limit_scan", "save_field", "boundary_values",
                   "interior_values"],
    "nonlinearity": ["build_concave_majorant", "check_hypotheses",
                     "domination_defect", "mollified_at_zero", "power_phi",
                     "capped_linear_phi"],
    "solver": ["solve_semilinear_dirichlet", "solve_linear_reaction",
               "classify_super_sub"],
    "experiments": ["run_exhaustion", "cube_truncation_study", "blowup_sweep",
                    "green_potential_diagnostic", "dichotomy_report",
                    "check_sup_identity", "deepest_point", "assemble_levels",
                    "scaling_bound_check"],
    "expressions": ["compile_point_function", "parse_expr", "evaluate"],
    "cli": ["main"],
}

# (module, class, methods) wrapped on the class itself
METHODS = [
    ("operators", "AssembledOperator", ["factor"]),
    ("nonlinearity", "Phi", ["bind"]),
    ("nonlinearity", "ProductPhi", ["bind"]),
    ("nonlinearity", "MajorantPhi", ["bind"]),
    ("config", "RunConfig", ["from_file", "from_text"]),
    ("cli", "Emitter", ["write_csv", "write_json", "write_field", "finish"]),
]

SPLU = "scipy.splu"
TRISOLVE = "scipy.trisolve"
REACTION = "nonlinearity.reaction"
EVAL = "expressions.eval"


class Tracer:
    """Span recorder; records nothing while ``pass_id`` is None."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass_id]
        self.stack = []
        self.pass_id = None
        self.info = {}  # span index -> facts read off the call's result

    def call(self, name, fn, args, kwargs, post=None):
        if self.pass_id is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else ROOT, self.pass_id]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if post is not None:
            out = post(self, idx, out, args, kwargs)
        return out


class LUProxy:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call(TRISOLVE, self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# -- result hooks: facts that the metrics need, read off return values ----

def _post_splu(tracer, idx, lu, args, kwargs):
    tracer.info[idx] = {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}
    return LUProxy(lu, tracer)


def _post_solve(tracer, idx, out, args, kwargs):
    report = out[1]
    tracer.info[idx] = {
        "iterations": int(report.iterations),
        "refreshes": int(report.lambda_refreshes),
        "converged": bool(report.converged),
        "stagnated": report.message.startswith("increment stagnated"),
    }
    return out


def _post_assemble(tracer, idx, op, args, kwargs):
    # matrices only, not the operator, so no cached factor is kept alive
    tracer.info[idx] = {"matrices": (op.interior_matrix, op.boundary_matrix)}
    return op


def _post_kato(tracer, idx, est, args, kwargs):
    tracer.info[idx] = {"centers": int(est.n_centers)}
    return est


def _post_file(path_arg):
    def post(tracer, idx, out, args, kwargs):
        path = out if path_arg is None else args[path_arg]
        tracer.info[idx] = {"bytes": os.path.getsize(path)}
        return out
    return post


def _post_manifest(tracer, idx, manifest, args, kwargs):
    emitter = args[0]
    tracer.info[idx] = {"bytes": os.path.getsize(emitter.outdir / "manifest.json")}
    return manifest


def _post_wrap_result(name):
    """Record calls of the callable a function returns (bind, compile)."""
    def post(tracer, idx, fn, args, kwargs):
        @functools.wraps(fn)
        def traced(*a, **kw):
            return tracer.call(name, fn, a, kw)
        return traced
    return post


POSTS = {
    SPLU: _post_splu,
    "solver.solve_semilinear_dirichlet": _post_solve,
    "operators.assemble": _post_assemble,
    "potentials.kato_norm_estimate": _post_kato,
    "potentials.save_field": _post_file(1),
    "cli.Emitter.write_csv": _post_file(None),
    "cli.Emitter.write_json": _post_file(None),
    "cli.Emitter.write_field": _post_file(None),
    "cli.Emitter.finish": _post_manifest,
    "nonlinearity.Phi.bind": _post_wrap_result(REACTION),
    "nonlinearity.ProductPhi.bind": _post_wrap_result(REACTION),
    "nonlinearity.MajorantPhi.bind": _post_wrap_result(REACTION),
    "expressions.compile_point_function": _post_wrap_result(EVAL),
}


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement, attr):
        """Rebind ``attr`` in every ellipot module where it is ``original``."""
        for name, mod in sorted(sys.modules.items()):
            if (name == "ellipot" or name.startswith("ellipot.")) and \
                    mod.__dict__.get(attr) is original:
                self.set(mod, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _wrapper(tracer, name, fn, post):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, post)
    return wrapped


def install(tracer, patcher, extra_post=None):
    """Wrap every listed callable; ``extra_post`` maps span names to hooks
    that run after the tracing hook (the benchmark's own output capture)."""
    import importlib

    import scipy.sparse.linalg as spla

    def post_for(name):
        hooks = [h for h in (POSTS.get(name), (extra_post or {}).get(name)) if h]
        if not hooks:
            return None

        def post(tr, idx, out, args, kwargs):
            for hook in hooks:
                out = hook(tr, idx, out, args, kwargs)
            return out
        return post

    for modname, names in FUNCTIONS.items():
        mod = importlib.import_module(f"ellipot.{modname}")
        for attr in names:
            fn = mod.__dict__[attr]
            name = f"{modname}.{attr}"
            patcher.replace_everywhere(fn, _wrapper(tracer, name, fn, post_for(name)), attr)
    for modname, clsname, methods in METHODS:
        cls = getattr(importlib.import_module(f"ellipot.{modname}"), clsname)
        for attr in methods:
            raw = cls.__dict__[attr]
            name = f"{modname}.{clsname}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrapper(tracer, name, raw.__func__, post_for(name)))
            else:
                wrapped = _wrapper(tracer, name, raw, post_for(name))
            patcher.set(cls, attr, wrapped)
    patcher.set(spla, "splu", _wrapper(tracer, SPLU, spla.splu, POSTS[SPLU]))


# -- reduction ------------------------------------------------------------

def layer_of(name):
    """'operators.assemble' -> 'operators'; config spans count as cli."""
    head = name.split(".", 1)[0]
    return "cli" if head == "config" else head


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent != ROOT:
            children[parent].append(i)
    out = np.empty(len(spans))
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo = max(spans[j][1], reach)
            hi = min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (end - start) - covered
    return out


def _outermost(spans, idxs, same):
    """Spans among ``idxs`` with no ancestor for which ``same`` holds."""
    keep = []
    for i in idxs:
        p = spans[i][3]
        while p != ROOT and not same(spans[p][0]):
            p = spans[p][3]
        if p == ROOT:
            keep.append(i)
    return keep


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it;
    100 (the maximum) when no percentile above the median has that many."""
    if n < 20:
        return 100
    return int(np.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(spans, info, pass_wall):
    """Per-layer figures of the spans of one traced pass.

    Times are shares of the traced pass wall time ``pass_wall``, so a
    layer that a workload does not use reads 0 without posing as a
    measured time.
    """
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    selft = self_times(spans)

    def find(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def top(*wanted):
        """Spans with one of these names and no ancestor with one."""
        def same(n):
            return n in wanted
        return _outermost(spans, find(same), same)

    def parent_name(i):
        p = spans[i][3]
        return names[p] if p != ROOT else ""

    def share(idxs):
        return float(dur[idxs].sum()) / pass_wall if idxs else 0.0

    def self_share(idxs):
        return float(selft[idxs].sum()) / pass_wall if idxs else 0.0

    def total(idxs, key):
        return sum(info[i][key] for i in idxs)

    def in_layer(layer):
        return lambda n: layer_of(n) == layer

    def layer_top(layer):
        return _outermost(spans, find(in_layer(layer)), in_layer(layer))

    m = {}
    splu = find(lambda n: n == SPLU)
    trisolve = find(lambda n: n == TRISOLVE)

    assemble = find(lambda n: n == "operators.assemble")
    digests = set()
    for i in assemble:
        h = hashlib.sha256()
        for mat in info[i]["matrices"]:
            mat = mat.tocsr()
            for arr in (np.asarray(mat.shape), mat.indptr, mat.indices, mat.data):
                h.update(np.ascontiguousarray(arr).tobytes())
        digests.add(h.hexdigest())
    factor_lu = [i for i in splu if parent_name(i) == "operators.AssembledOperator.factor"]
    m["operators.assemble_calls"] = len(assemble)
    m["operators.assemble_share"] = share(top("operators.assemble"))
    m["operators.distinct_ratio"] = len(digests) / len(assemble) if assemble else 0.0
    m["operators.factor_calls"] = len(factor_lu)
    m["operators.factor_share"] = share(factor_lu)
    m["operators.factor_fill_nnz"] = total(factor_lu, "fill_nnz")
    m["operators.audit_share"] = share(
        top("operators.check_ellipticity", "operators.check_m_matrix"))

    solves = find(lambda n: n == "solver.solve_semilinear_dirichlet")
    shift_lu = [i for i in splu if layer_of(parent_name(i)) == "solver"]
    solver_tri = [i for i in trisolve if layer_of(parent_name(i)) == "solver"]
    ms = dur[solves] * 1e3 if solves else np.zeros(1)
    m["solver.calls"] = len(solves)
    m["solver.share"] = share(layer_top("solver"))
    m["solver.self_share"] = self_share(find(in_layer("solver")))
    m["solver.ms_p50"] = float(np.percentile(ms, 50))
    m["solver.ms_tail"] = float(np.percentile(ms, tail_percentile(len(solves))))
    m["solver.iterations"] = total(solves, "iterations")
    m["solver.refreshes"] = total(solves, "refreshes")
    m["solver.shift_factor_calls"] = len(shift_lu)
    m["solver.shift_factor_share"] = share(shift_lu)
    m["solver.shift_fill_nnz"] = total(shift_lu, "fill_nnz")
    m["solver.trisolve_calls"] = len(solver_tri)
    m["solver.trisolve_share"] = share(solver_tri)
    stagnated = [i for i in solves if info[i]["stagnated"]]
    clean = [i for i in solves if info[i]["converged"] and not info[i]["stagnated"]]
    m["solver.converged_ratio"] = len(clean) / len(solves) if solves else 0.0
    m["solver.stagnated_ratio"] = len(stagnated) / len(solves) if solves else 0.0

    reactions = find(lambda n: n == REACTION)
    m["nonlinearity.reaction_calls"] = len(reactions)
    m["nonlinearity.reaction_share"] = share(reactions)
    for key, fn in (("majorant", "build_concave_majorant"),
                    ("hypotheses", "check_hypotheses"),
                    ("defect", "domination_defect")):
        m[f"nonlinearity.{key}_share"] = share(top("nonlinearity." + fn))

    lin = find(lambda n: n == "potentials.solve_interior")
    writes = find(lambda n: n == "potentials.save_field")
    m["potentials.linear_solve_calls"] = len(lin)
    m["potentials.linear_solve_share"] = share(lin)
    m["potentials.kato_share"] = share(
        top("potentials.kato_limit_scan", "potentials.kato_norm_estimate"))
    m["potentials.kato_centers"] = total(
        find(lambda n: n == "potentials.kato_norm_estimate"), "centers")
    m["potentials.write_share"] = share(writes)
    m["potentials.write_bytes"] = total(writes, "bytes")

    m["experiments.share"] = share(layer_top("experiments"))
    m["experiments.self_share"] = self_share(find(in_layer("experiments")))

    evals = find(lambda n: n == EVAL)
    m["expressions.compile_share"] = share(top("expressions.compile_point_function"))
    m["expressions.eval_calls"] = len(evals)
    m["expressions.eval_share"] = share(top(EVAL))

    emits = find(lambda n: n.startswith("cli.Emitter."))
    m["cli.config_share"] = share(find(lambda n: n == "config.RunConfig.from_file"))
    m["cli.emit_share"] = share(emits)
    m["cli.artifact_bytes"] = total(emits, "bytes")
    m["cli.self_share"] = self_share(find(lambda n: n == "cli.main"))

    m["geometry.share"] = share(layer_top("geometry"))
    return m
