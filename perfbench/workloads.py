"""The benchmark's workloads: seeded inputs, one pass each, output checks.

A workload turns a seed into input files (INI configs for the CLI, a JSON
parameter file for the library call), runs one pass against them through
ellipot's public functions or its in-process CLI, and checks what came
out from outside: exit codes, verdicts, monotonicity, the maximum
principle, equation residuals recomputed from the public operator blocks
with the benchmark's own reaction formula, and, at the default seed,
agreement with reference values recorded from an earlier version.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
JITTER = 0.02  # other seeds draw c and the weight amplitude from 1 +- JITTER
GAMMA = 0.5

# reference tolerances by kind: (tolerance, floor of the scale it multiplies).
# Solution values get 5e-3: the seed's stagnated dead-core solves leave
# residuals up to 2.3e-5, which the Green operator of the largest box
# (norm about R^2/4 = 64) can turn into errors near 1.5e-3, so a more
# accurate solver must not count as a failure.  Kato estimates get the 10%
# that acceptance check [8] allows against the closed form, since the seed
# scans a strided subset of the centres.
TOLERANCES = {
    "solution": (5e-3, 1.0),
    "linear": (1e-6, 0.0),
    "kato": (0.1, 0.0),
    "table": (1e-6, 0.0),
}


def draw(workload, seed):
    """(c, amplitude) for a seed; exactly (1, 1) at the default seed."""
    if seed == DEFAULT_SEED:
        return 1.0, 1.0
    rng = random.Random(f"{workload}:{seed}")
    return tuple(1.0 + JITTER * (2.0 * rng.random() - 1.0) for _ in range(2))


def _scaled(expr, amp):
    return expr if amp == 1.0 else f"{amp!r} * {expr}"


def _radius(points):
    return np.sqrt((np.asarray(points, dtype=float) ** 2).sum(axis=1))


# -- checks shared by the library and CLI workloads ----------------------

def residual(a_ii, a_ib, u_int, f_bnd, p_int):
    """sup-norm of  B u + p u_+^gamma - A_IB f  with B = -A_II."""
    react = p_int * np.power(np.maximum(u_int, 0.0), GAMMA)
    return float(np.max(np.abs(-(a_ii @ u_int) + react - a_ib @ f_bnd), initial=0.0))


class Capture:
    """Keeps what each solve got and returned, for checks after the pass.

    Holds the operator's matrices, not the operator, so no cached
    factorization outlives its solve.
    """

    def __init__(self):
        self.solves = []

    def record(self, out, args, kwargs):
        op = args[0]
        field, report = out
        self.solves.append({
            "a_ii": op.interior_matrix,
            "a_ib": op.boundary_matrix,
            "mask": op.mask,
            "field": field,
            "report": report,
        })
        return out

    def hook(self, tracer, idx, out, args, kwargs):
        return self.record(out, args, kwargs)

    def install(self, patcher):
        import ellipot.solver

        original = ellipot.solver.solve_semilinear_dirichlet

        def capturing(*args, **kwargs):
            return self.record(original(*args, **kwargs), args, kwargs)

        patcher.replace_everywhere(original, capturing, "solve_semilinear_dirichlet")


def solve_checks(solves, weight):
    """Checks on captured solves plus their certified count.

    Returns (checks, certified, total).  A solve is certified when it does
    not claim convergence it lacks: the recomputed residual is within
    10 tol whenever the report says converged.
    """
    checks = []
    certified = 0
    for k, s in enumerate(solves):
        mask, field, rep = s["mask"], s["field"], s["report"]
        vals = field.values.ravel()
        u, f = vals[mask.interior_flat], vals[mask.boundary_flat]
        res = residual(s["a_ii"], s["a_ib"], u, f, weight(mask.interior_points()))
        certified += int(not rep.converged or res <= 10.0 * rep.tol)
        top = float(f.max(initial=0.0))
        checks.append((f"solve{k}.max_principle",
                       bool(np.all(u >= -1e-12) and np.all(u <= top + 1e-9))))
    # nested exhaustion levels: consecutive solves on one grid whose mask
    # grows; the larger domain's solution may not exceed the smaller one's
    for k, (lo, hi) in enumerate(zip(solves[:-1], solves[1:])):
        if lo["mask"].grid == hi["mask"].grid and \
                hi["mask"].n_interior > lo["mask"].n_interior:
            common = lo["mask"].interior_flat
            gap = hi["field"].values.ravel()[common] - lo["field"].values.ravel()[common]
            checks.append((f"levels{k}.decreasing", bool(gap.max() <= 1e-8)))
    return checks, certified, len(solves)


def _read_csv(path):
    """Header and rows of a CSV artifact, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _column(path, name):
    head, rows = _read_csv(path)
    j = head.index(name)
    return [float(r[j]) for r in rows]


# -- workloads ------------------------------------------------------------

class Dichotomy3D:
    name = "dichotomy3d"
    why = ("ellipot dichotomy on 25^3 doubling cubes: the paper's headline "
           "experiment; factorization-bound (about 31 SuperLU factorizations)")
    base = "(1 + sqrt(x1^2+x2^2+x3^2))^(-3)"

    def __init__(self, seed):
        self.c, self.amp = draw(self.name, seed)

    def weight(self, points):
        return self.amp * (1.0 + _radius(points)) ** -3.0

    def write_inputs(self, folder):
        path = folder / "dichotomy.cfg"
        path.write_text(
            "[geometry]\ndim = 3\nshape = 25\nhalf_widths = [2.0, 4.0, 8.0]\n"
            "levels = 3\n\n"
            f"[phi]\nfamily = power\ngamma = {GAMMA!r}\n"
            f"p = \"{_scaled(self.base, self.amp)}\"\n\n"
            f"[experiment]\nc = {self.c!r}\nm_min = 1.0\nm_max = 100.0\nm_count = 9\n"
        )
        self.config = path

    def run_pass(self, out):
        from ellipot.cli import main
        return {"exit": main(["dichotomy", "--config", str(self.config), "--out", str(out)])}

    def check(self, result, out, solves):
        checks = [("exit_code", result["exit"] == 0)]
        verdict = json.loads((out / "dichotomy.json").read_text())["verdict"]
        checks += [
            ("bounded_indicated", verdict["bounded_indicated"] is True),
            ("large_not_indicated", verdict["large_indicated"] is False),
            ("consistent", verdict["consistent"] is True),
        ]
        sups = _column(out / "truncations.csv", "sup_estimate")
        checks.append(("sups_increasing", bool(np.all(np.diff(sups) > 0))))
        probe = _column(out / "sweep.csv", "u_probe1")
        checks.append(("sweep_nondecreasing", bool(np.all(np.diff(probe) >= -1e-8))))
        more, certified, total = solve_checks(solves, self.weight)
        n_levels = sum(name.startswith("levels") for name, _ in more)
        checks += more + [("level_pairs_seen", n_levels == 3 * 2)]
        return checks, certified, total

    def summary(self, result, out, solves):
        return {
            "solution": {
                "sup_estimates": _column(out / "truncations.csv", "sup_estimate"),
                "origin_values": _column(out / "truncations.csv", "origin_value"),
                "sweep_probe": _column(out / "sweep.csv", "u_probe1"),
            },
            "linear": {"green_sums": _column(out / "partial_sums.csv", "green_sum")},
        }


class Deadcore2D:
    name = "deadcore2d"
    why = ("cube_truncation_study on 129^2 boxes, constant weight: the "
           "sublinear dead-core regime; iteration-bound (about 2,700 trisolves)")
    half_widths = [2.0, 4.0, 8.0, 16.0]

    def __init__(self, seed):
        self.c, self.amp = draw(self.name, seed)

    def weight(self, points):
        return np.full(len(points), self.amp)

    def write_inputs(self, folder):
        path = folder / "deadcore.json"
        path.write_text(json.dumps({
            "half_widths": self.half_widths, "shape": 129, "levels": 2,
            "gamma": GAMMA, "amplitude": self.amp, "c": self.c,
        }, indent=1) + "\n")
        self.config = path

    def run_pass(self, out):
        import ellipot as ep
        cfg = json.loads(self.config.read_text())
        study = ep.cube_truncation_study(
            cfg["half_widths"], ep.power_phi(cfg["amplitude"], cfg["gamma"]),
            c=cfg["c"], dim=2, shape=cfg["shape"], n_levels=cfg["levels"],
        )
        return {"study": study}

    def check(self, result, out, solves):
        study = result["study"]
        checks, certified, total = solve_checks(solves, self.weight)
        n_levels = sum(name.startswith("levels") for name, _ in checks)
        origins = study.origin_values()
        checks += [
            ("solves_seen", total == 2 * len(self.half_widths)),
            ("level_pairs_seen", n_levels == len(self.half_widths)),
            ("sups_below_c", bool(np.all(study.sup_estimates() <= self.c + 1e-12))),
            ("origin_nonincreasing", bool(np.all(np.diff(origins) <= 1e-8))),
        ]
        return checks, certified, total

    def summary(self, result, out, solves):
        study = result["study"]
        return {"solution": {
            "sup_estimates": [float(v) for v in study.sup_estimates()],
            "origin_values": [float(v) for v in study.origin_values()],
        }}


class Screen3D:
    name = "screen3d"
    why = ("ellipot checks, majorant and solve on one 25^3 config: admissibility "
           "screening; bound by the Kato scan and the majorant, barely factorizes")
    base = "1/(1 + x1^2+x2^2+x3^2)"
    commands = ("checks", "majorant", "solve")

    def __init__(self, seed):
        self.c, self.amp = draw(self.name, seed)

    def weight(self, points):
        return self.amp / (1.0 + (np.asarray(points, dtype=float) ** 2).sum(axis=1))

    def write_inputs(self, folder):
        path = folder / "screen.cfg"
        p = f"{self.amp!r}/(1 + x1^2+x2^2+x3^2)" if self.amp != 1.0 else self.base
        path.write_text(
            "[geometry]\ndim = 3\nshape = 25\nbounds = [-0.25, 0.25]\n\n"
            f"[phi]\nfamily = power\ngamma = {GAMMA!r}\np = \"{p}\"\n\n"
            f"[experiment]\nboundary = {self.c!r}\nalpha = [0.25, 0.125]\n"
        )
        self.config = path

    def run_pass(self, out):
        from ellipot.cli import main
        return {"exit": {cmd: main([cmd, "--config", str(self.config),
                                    "--out", str(out / cmd)])
                         for cmd in self.commands}}

    def _solution(self, out):
        """Interior and boundary values of solution.csv, on a freshly
        assembled operator of the same box."""
        import ellipot as ep
        op = ep.assemble(ep.box_mask(ep.build_grid(3, 25, (-0.25, 0.25))))
        head, rows = _read_csv(out / "solve" / "solution.csv")
        vals = np.full(op.mask.grid.size, np.nan)
        idx, val = head.index("index"), head.index("value")
        for r in rows:
            vals[int(r[idx])] = float(r[val])
        return op, vals[op.mask.interior_flat], vals[op.mask.boundary_flat]

    def check(self, result, out, solves):
        checks = [(f"{cmd}.exit_code", code == 0) for cmd, code in result["exit"].items()]
        kato = json.loads((out / "checks" / "checks.json").read_text())
        checks.append(("checks.no_failures", kato["failures"] == []))
        alpha = _column(out / "checks" / "kato.csv", "alpha")
        est = _column(out / "checks" / "kato.csv", "estimate")
        checks.append(("kato_alpha_descending", bool(np.all(np.diff(alpha) < 0))))
        checks.append(("kato_decreasing_in_alpha", bool(np.all(np.diff(est) < 0))))
        maj = json.loads((out / "majorant" / "report.json").read_text())
        checks.append(("majorant_dominates", maj["domination_defect"] >= -1e-12))
        checks.append(("majorant_concave", maj["concavity_defect"] >= -1e-9))
        rep = json.loads((out / "solve" / "report.json").read_text())
        op, u, f = self._solution(out)
        res = residual(op.interior_matrix, op.boundary_matrix, u, f,
                       self.weight(op.mask.interior_points()))
        checks.append(("solution_complete", bool(np.all(np.isfinite(u)))))
        checks.append(("max_principle", bool(np.all(u >= -1e-12) and np.all(u <= self.c + 1e-9))))
        certified = int(not rep["converged"] or res <= 10.0 * rep["tol"])
        return checks, certified, 1

    def summary(self, result, out, solves):
        rep = json.loads((out / "solve" / "report.json").read_text())
        maj = json.loads((out / "majorant" / "report.json").read_text())
        return {
            "kato": {"estimates": _column(out / "checks" / "kato.csv", "estimate")},
            "table": {"linear_bound_constant": [maj["linear_bound_constant"]]},
            "solution": {"sup_solution": [rep["sup_solution"]]},
        }


WORKLOADS = {w.name: w for w in (Dichotomy3D, Deadcore2D, Screen3D)}


def reference_checks(summary, refs):
    """(name, ok) per recorded value: |v - ref| <= tol * max(floor, |ref|)."""
    checks = []
    for kind, groups in refs.items():
        tol, floor = TOLERANCES[kind]
        for key, ref in groups.items():
            got = summary.get(kind, {}).get(key)
            ok = got is not None and len(got) == len(ref) and all(
                abs(g - r) <= tol * max(floor, abs(r)) for g, r in zip(got, ref))
            checks.append((f"reference.{key}", bool(ok)))
    return checks


def load_references(path):
    path = Path(path)
    return json.loads(path.read_text()) if path.exists() else {}
