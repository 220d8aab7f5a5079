"""Command-line front end.

Subcommands: solve, exhaust, majorant, blowup, potential, checks,
dichotomy.  Every run reads one config file, writes its artifacts (CSV
tables with 17-significant-digit floats, JSON summaries) into the output
directory, and finishes with a manifest listing each artifact with its
SHA-256 checksum.  Exit codes: 0 success, 1 configuration error, 2
hypothesis-check failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import (
    ConfigError,
    EllipticityError,
    ExprError,
    LinearSolveError,
    MajorantError,
    MaskError,
    NestingError,
    NonConvergenceError,
    SolverBreakdownError,
    StencilError,
)
from .expressions import compile_point_function, parse_expr, validate_vars, evaluate
from .experiments import (
    blowup_sweep,
    check_sup_identity,
    cube_truncation_study,
    dichotomy_report,
    green_potential_diagnostic,
    run_exhaustion,
)
from .geometry import (
    EXTERIOR,
    box_mask,
    build_exhaustion,
    build_grid,
    mask_from_predicate,
    values_at,
)
from .nonlinearity import (
    AffinePhi,
    Mollifier,
    ProductPhi,
    build_concave_majorant,
    capped_linear_phi,
    check_hypotheses,
    domination_defect,
    power_phi,
)
from .operators import CoefficientSet, SchemeOptions, assemble, check_ellipticity, check_m_matrix
from .potentials import kato_limit_scan, save_field
from .solver import SemilinearParams, solve_semilinear_dirichlet

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 1234

log = logging.getLogger("ellipot")


# ---------------------------------------------------------------- builders

# every key that some command reads, by section; [operator] also takes the
# drift components b1 .. b{dim}.  Any other section or key is an error for
# every command, so that a misspelt or retired setting is not silently
# ignored and one file can serve several commands.
_CONFIG_KEYS = {
    "geometry": ("dim", "shape", "bounds", "mask", "levels", "half_widths"),
    "operator": ("a", "c", "drift", "cross"),
    "phi": ("family", "p", "gamma", "cap", "slope", "rho", "use_majorant"),
    "solver": ("tol", "max_iterations"),
    "experiment": ("boundary", "c", "seed", "probe", "excluded", "alpha",
                   "require_concave", "m_values", "m_min", "m_max", "m_count",
                   "sweep_half_width"),
    "output": ("dir",),
}


def _check_keys(cfg):
    """Reject a section or key that no command reads."""
    for section, keys in cfg.data.items():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"[{section}]: unknown section")
        known = set(_CONFIG_KEYS[section])
        if section == "operator":
            dim = cfg.get("geometry", "dim", kind="int")
            known.update(f"b{k + 1}" for k in range(dim))
        for key in keys:
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key")


def _build_mask(cfg):
    dim = cfg.get("geometry", "dim", kind="int")
    shape = cfg.get("geometry", "shape")
    if isinstance(shape, list):
        shape = [int(s) for s in shape]
    bounds = np.asarray(cfg.get("geometry", "bounds", kind="list"), dtype=float)
    grid = build_grid(dim, shape, bounds)
    expr = cfg.get("geometry", "mask", default=None)
    if expr is None:
        return box_mask(grid)
    fn = compile_point_function(str(expr), dim)
    return mask_from_predicate(grid, lambda pts: fn(pts) < 0.0)


def _scalar_or_expr(value, dim, where):
    """A config value as a float or a compiled point function."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number or expression")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return compile_point_function(value, dim)
    raise ConfigError(f"{where}: expected a number or expression, got {value!r}")


def _build_coeffs(cfg, dim):
    if not cfg.has("operator"):
        return CoefficientSet(), SchemeOptions()
    a_raw = cfg.get("operator", "a", default=1.0)
    if isinstance(a_raw, list):
        arr = np.asarray(a_raw, dtype=float)
        if arr.size == dim:
            a = arr
        elif arr.size == dim * dim:
            a = arr.reshape(dim, dim)
        else:
            raise ConfigError(
                f"[operator] a: expected {dim} or {dim * dim} entries"
            )
    else:
        a = _scalar_or_expr(a_raw, dim, "[operator] a")

    b_parts = [
        _scalar_or_expr(
            cfg.get("operator", f"b{k + 1}", default=0.0), dim, f"[operator] b{k + 1}"
        )
        for k in range(dim)
    ]
    if not all(isinstance(p, float) for p in b_parts):
        def b(points):
            return np.stack([values_at(p, points) for p in b_parts], axis=1)
    elif any(abs(p) > 0 for p in b_parts):
        b = np.asarray(b_parts, dtype=float)
    else:
        b = None

    c_raw = cfg.get("operator", "c", default=None)
    c = None if c_raw is None else _scalar_or_expr(c_raw, dim, "[operator] c")

    scheme = SchemeOptions(
        drift=cfg.get("operator", "drift", default="upwind", kind="str"),
        cross=cfg.get("operator", "cross", default="corner", kind="str"),
    )
    return CoefficientSet(a=a, b=b, c=c), scheme


def _compile_profile(text):
    """Expression in t alone -> vectorized profile rho(t)."""
    node = parse_expr(text)
    validate_vars(node, 0, allow_t=True)

    def rho(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(evaluate(node, {"t": t}), dtype=float)
        return np.broadcast_to(out, t.shape).copy()

    return rho


def _build_phi(cfg, dim):
    """Reaction and its density from the [phi] section.

    Returns (phi, p) where p is the configured density, which the Kato
    scan and the Green sums read: phi's own, except for the zero family,
    whose reaction has density 0.
    """
    family = cfg.get("phi", "family", default="zero", kind="str")
    p = _scalar_or_expr(cfg.get("phi", "p", default=1.0), dim, "[phi] p")
    if family == "zero":
        phi = AffinePhi(0.0, 0.0, name="zero")
    elif family == "power":
        phi = power_phi(p, cfg.get("phi", "gamma", default=0.5, kind="float"))
    elif family == "capped":
        phi = capped_linear_phi(p, cfg.get("phi", "cap", default=1.0, kind="float"))
    elif family == "affine":
        phi = AffinePhi(p, cfg.get("phi", "slope", default=1.0, kind="float"))
    elif family == "expr":
        rho = _compile_profile(cfg.get("phi", "rho", kind="str"))
        phi = ProductPhi(p, rho, name="p*" + cfg.get("phi", "rho", kind="str"))
    else:
        raise ConfigError(f"[phi] family: unknown family {family!r}")
    if cfg.get("phi", "use_majorant", default=False, kind="bool"):
        phi = build_concave_majorant(phi)
    return phi, p


def _build_params(cfg):
    """SemilinearParams from the [solver] keys a config sets."""
    kwargs = {
        key: cfg.get("solver", key, kind=kind)
        for key, kind in (("tol", "float"), ("max_iterations", "int"))
        if cfg.has("solver", key)
    }
    try:
        params = SemilinearParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from None
    if params.tol == 0.0:
        # an exact solve is legal in the library but always ends stagnated
        raise ConfigError(f"[solver] tol: must be > 0, got {params.tol!r}")
    return params


def _boundary_data(cfg, dim):
    raw = cfg.get("experiment", "boundary", default=1.0)
    return _scalar_or_expr(raw, dim, "[experiment] boundary")


def _m_values(cfg):
    if cfg.has("experiment", "m_values"):
        return np.asarray(cfg.get("experiment", "m_values", kind="list"), dtype=float)
    lo = cfg.get("experiment", "m_min", default=1.0, kind="float")
    hi = cfg.get("experiment", "m_max", default=100.0 * lo, kind="float")
    n = cfg.get("experiment", "m_count", default=9, kind="int")
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------- emission

def _finite_or_null(obj):
    """``obj`` with every non-finite float, however nested, as None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


class Emitter:
    """Writes artifacts and finishes with a checksum manifest."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.artifacts = []

    def _register(self, path):
        self.artifacts.append(path)
        log.info("wrote %s", path)

    @staticmethod
    def _fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.17g}"
        return str(value)

    def write_csv(self, name, header, rows):
        path = self.outdir / name
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(self._fmt(v) for v in row) + "\n")
        self._register(path)
        return path

    def write_json(self, name, obj):
        """Strict JSON: a non-finite float (a withheld bound) becomes null."""
        path = self.outdir / name
        text = json.dumps(_finite_or_null(obj), sort_keys=True, indent=2,
                          allow_nan=False)
        path.write_text(text + "\n")
        self._register(path)
        return path

    def write_field(self, name, field):
        path = self.outdir / name
        save_field(field, path)
        self._register(path)
        return path

    def finish(self, command, config_path, seed):
        entries = []
        for path in sorted(self.artifacts):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries.append(
                {
                    "name": path.name,
                    "sha256": digest,
                    "bytes": path.stat().st_size,
                }
            )
        manifest = {
            "command": command,
            "config": str(config_path),
            "config_sha256": hashlib.sha256(
                Path(config_path).read_bytes()
            ).hexdigest(),
            "seed": seed,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "artifacts": entries,
        }
        path = self.outdir / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        log.info("wrote %s", path)
        return manifest


# ---------------------------------------------------------------- commands

def cmd_solve(cfg, emit):
    mask = _build_mask(cfg)
    dim = mask.grid.dim
    coeffs, scheme = _build_coeffs(cfg, dim)
    op = assemble(mask, coeffs, scheme)
    phi, _ = _build_phi(cfg, dim)
    params = _build_params(cfg)
    boundary = _boundary_data(cfg, dim)
    field, report = solve_semilinear_dirichlet(op, phi, boundary, params)
    emit.write_field("solution.csv", field)
    summary = report.as_dict()
    summary.update(
        {
            "phi": phi.name,
            "dim": dim,
            "shape": list(mask.grid.shape),
            "n_interior": mask.n_interior,
        }
    )
    emit.write_json("report.json", summary)
    log.info(
        "solve: converged=%s iterations=%d sup=%.6g identity=%.3e",
        report.converged,
        report.iterations,
        report.sup_solution,
        report.identity_residual,
    )
    return EXIT_OK


def cmd_exhaust(cfg, emit):
    mask = _build_mask(cfg)
    dim = mask.grid.dim
    coeffs, scheme = _build_coeffs(cfg, dim)
    phi, _ = _build_phi(cfg, dim)
    params = _build_params(cfg)
    n_levels = cfg.get("geometry", "levels", default=3, kind="int")
    c = cfg.get("experiment", "c", default=1.0, kind="float")
    exh = build_exhaustion(mask, n_levels)
    run = run_exhaustion(
        exh, phi, c, params=params, coeffs=coeffs, scheme=scheme, keep_fields=False
    )
    rep = check_sup_identity(run)
    header, rows = run.tables()["levels"]
    emit.write_csv("levels.csv", header, rows)
    emit.write_field("vc.csv", run.v_c)
    emit.write_json(
        "report.json",
        {"run": run.summary_dict(), "sup_identity": rep.summary_dict()},
    )
    log.info(
        "exhaust: decreasing=%s sup=%.6g verdict=%s",
        run.decreasing_ok,
        run.sup_estimate,
        rep.verdict,
    )
    return EXIT_OK


def cmd_majorant(cfg, emit):
    mask = _build_mask(cfg)
    dim = mask.grid.dim
    phi, _ = _build_phi(cfg, dim)
    moll = Mollifier()
    maj = build_concave_majorant(phi, mollifier=moll)
    # the active points, interior and boundary, in flat-index order
    pts = mask.grid.points()[mask.classes.ravel() != EXTERIOR]
    defect = domination_defect(phi, maj, pts)
    concavity = maj.concavity_defect()
    monotone = maj.monotone_defect()
    bound_c = maj.linear_bound_constant()
    zero_row = abs(float(maj.psi[0]))

    # eight evenly strided active points; their psi columns are the
    # majorant's density p(x) (0 for the zero family) times its profile
    n_pts = len(pts)
    sample = pts[:: max(1, n_pts // 8)][:8]
    pv = values_at(maj.p, sample)
    header = ["t"] + [f"psi_point{j + 1}" for j in range(len(sample))]
    rows = [[float(t)] + list(pv * psi) for t, psi in zip(maj.t_grid, maj.psi)]
    emit.write_csv("psi_table.csv", header, rows)
    pheader = [f"x{k + 1}" for k in range(dim)] + ["p"]
    emit.write_csv("psi_points.csv", pheader, [[*x, v] for x, v in zip(sample, pv)])
    summary = {
        "phi": phi.name,
        "slope_constant": moll.slope_constant(),
        "domination_defect": defect,
        "concavity_defect": concavity,
        "monotone_defect": monotone,
        "value_at_zero": zero_row,
        "linear_bound_constant": bound_c,
        "n_points": n_pts,
        "n_t_nodes": len(maj.t_grid),
    }
    emit.write_json("report.json", summary)
    ok = defect >= -1e-12 and concavity >= -1e-9 and zero_row == 0.0
    log.info(
        "majorant: domination=%.3e concavity=%.3e C=%.4g -> %s",
        defect,
        concavity,
        bound_c,
        "ok" if ok else "FAILED",
    )
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def cmd_blowup(cfg, emit):
    mask = _build_mask(cfg)
    dim = mask.grid.dim
    coeffs, scheme = _build_coeffs(cfg, dim)
    op = assemble(mask, coeffs, scheme)
    phi, _ = _build_phi(cfg, dim)
    params = _build_params(cfg)
    probes = None
    if cfg.has("experiment", "probe"):
        probes = [np.asarray(cfg.get("experiment", "probe", kind="list"), dtype=float)]
    sweep = blowup_sweep(op, phi, _m_values(cfg), probes, params)
    header, rows = sweep.tables()["sweep"]
    emit.write_csv("sweep.csv", header, rows)
    hyp = check_hypotheses(phi, mask.interior_points()[:: max(1, mask.n_interior // 256)])
    emit.write_json(
        "report.json",
        {"sweep": sweep.summary_dict(), "hypotheses": _hyp_dict(hyp)},
    )
    log.info("blowup: verdict=%s", sweep.verdict)
    if np.all(np.isnan(sweep.values)):
        return EXIT_NUMERIC
    return EXIT_OK


def _truncation_ops(cfg, dim, coeffs, scheme, odd=False):
    shape = cfg.get("geometry", "shape", default=33)
    if isinstance(shape, list):
        raise ConfigError("truncation families use a single odd shape value")
    if odd and int(shape) % 2 == 0:
        raise ConfigError(
            "[geometry] shape must be odd so the origin is a lattice point"
        )
    half_widths = [
        float(v) for v in cfg.get("geometry", "half_widths", kind="list")
    ]
    if not half_widths:
        raise ConfigError("[geometry] half_widths: at least one value required")
    ops = []
    for R in half_widths:
        grid = build_grid(dim, int(shape), (-R, R))
        ops.append(assemble(box_mask(grid), coeffs, scheme))
    return half_widths, ops


def cmd_potential(cfg, emit):
    dim = cfg.get("geometry", "dim", kind="int")
    coeffs, scheme = _build_coeffs(cfg, dim)
    _, p = _build_phi(cfg, dim)
    # the default probe is the origin, a lattice point only on odd shapes
    odd = not cfg.has("experiment", "probe")
    half_widths, ops = _truncation_ops(cfg, dim, coeffs, scheme, odd=odd)
    excluded = None
    if cfg.has("experiment", "excluded"):
        fn = compile_point_function(
            cfg.get("experiment", "excluded", kind="str"), dim
        )
        excluded = lambda pts: fn(pts) < 0.0
    probe = None
    if cfg.has("experiment", "probe"):
        probe = np.asarray(cfg.get("experiment", "probe", kind="list"), dtype=float)
    diag = green_potential_diagnostic(ops, half_widths, p, excluded, probe)
    header, rows = diag.tables()["partial_sums"]
    emit.write_csv("partial_sums.csv", header, rows)
    emit.write_json("report.json", diag.summary_dict())
    exponent = "n/a" if diag.exponent is None else f"{diag.exponent:.3g}"
    log.info("potential: verdict=%s exponent=%s", diag.verdict, exponent)
    return EXIT_OK


def _hyp_dict(hyp):
    return {k: v for k, v in dataclasses.asdict(hyp).items() if k != "messages"}


def _reaction_rule(hyp):
    """(holds, failure line) for each reaction hypothesis of the dichotomy:
    phi vanishes for t <= 0, is nondecreasing, and grows at most like
    p (1 + t) with the config's density p (1e-9 absorbs rounding)."""
    bound = hyp.linear_bound_constant
    return {
        "vanishes": (hyp.vanishes_nonpositive, "reaction does not vanish for t <= 0"),
        "nondecreasing": (hyp.nondecreasing, "reaction is not nondecreasing in t"),
        "growth": (
            bound <= 1.0 + 1e-9,
            "linear growth bound fails with the given density "
            f"(constant {bound:.4g} > 1)",
        ),
    }


def cmd_checks(cfg, emit):
    mask = _build_mask(cfg)
    dim = mask.grid.dim
    coeffs, scheme = _build_coeffs(cfg, dim)
    ell = check_ellipticity(coeffs, mask)
    failures = list(ell.messages)
    mm_dict = None
    if ell.ok:
        op = assemble(mask, coeffs, scheme, validate=False)
        mm = check_m_matrix(op)
        mm_dict = {
            "is_m_matrix": bool(mm.is_m_matrix),
            "notes": mm.notes,
        }
        if not mm.is_m_matrix:
            failures.append("interior block is not an M-matrix")

    phi, p = _build_phi(cfg, dim)
    sample = mask.interior_points()[:: max(1, mask.n_interior // 512)]
    hyp = check_hypotheses(phi, sample)
    rule = _reaction_rule(hyp)
    failures += [line for holds, line in rule.values() if not holds]
    growth_ok = rule["growth"][0]
    if cfg.get("experiment", "require_concave", default=False, kind="bool"):
        if not hyp.concave:
            failures.append("reaction is not concave in t")

    kato = None
    if dim in (2, 3):
        alphas = cfg.get(
            "experiment", "alpha", default=[0.25, 0.125, 0.0625], kind="list"
        )
        try:
            a_arr, k_vals = kato_limit_scan(mask, p, alphas)
            kato = {
                "alpha": [float(a) for a in a_arr],
                "estimate": [float(v) for v in k_vals],
                "decreasing": bool(np.all(np.diff(k_vals) <= 1e-12)),
            }
            emit.write_csv(
                "kato.csv",
                ["alpha", "estimate"],
                [[float(a), float(v)] for a, v in zip(a_arr, k_vals)],
            )
        except ValueError as exc:
            kato = {"skipped": str(exc)}

    report = {
        "ellipticity": {
            "ok": bool(ell.ok),
            "min_eigenvalue": ell.min_eigenvalue,
            "max_c": ell.max_c,
            "messages": ell.messages,
        },
        "m_matrix": mm_dict,
        "hypotheses": _hyp_dict(hyp),
        "growth_bound_with_given_density": bool(growth_ok),
        "kato": kato,
        "failures": failures,
    }
    emit.write_json("checks.json", report)
    if failures:
        log.info("checks: FAILED (%s)", "; ".join(failures))
        return EXIT_HYPOTHESIS
    log.info("checks: all hypothesis checks passed")
    return EXIT_OK


def cmd_dichotomy(cfg, emit):
    dim = cfg.get("geometry", "dim", kind="int")
    n_levels = cfg.get("geometry", "levels", default=3, kind="int")
    coeffs, scheme = _build_coeffs(cfg, dim)
    phi, p = _build_phi(cfg, dim)
    params = _build_params(cfg)
    c = cfg.get("experiment", "c", default=1.0, kind="float")

    # each cube is assembled once (and, off the DST path, factored by its
    # first solve); the study, the sweep and the Green sums all reuse
    # those operators
    half_widths, ops = _truncation_ops(cfg, dim, coeffs, scheme, odd=True)
    study = cube_truncation_study(
        half_widths,
        phi,
        c,
        n_levels=n_levels,
        coeffs=coeffs,
        scheme=scheme,
        params=params,
        ops=ops,
    )

    sweep_R = cfg.get("experiment", "sweep_half_width", default=half_widths[0],
                      kind="float")
    if sweep_R in half_widths:
        op = ops[half_widths.index(sweep_R)]
    else:
        grid = build_grid(dim, ops[0].mask.grid.shape, (-sweep_R, sweep_R))
        op = assemble(box_mask(grid), coeffs, scheme)
    sweep = blowup_sweep(op, phi, _m_values(cfg), None, params)

    diag = green_potential_diagnostic(ops, half_widths, p)

    sample = op.mask.interior_points()[:: max(1, op.mask.n_interior // 256)]
    hyp = check_hypotheses(phi, sample)
    hypotheses_ok = all(holds for holds, _ in _reaction_rule(hyp).values())
    report = dichotomy_report(study, sweep, diag, hypotheses_ok)

    header, rows = study.tables()["truncations"]
    emit.write_csv("truncations.csv", header, rows)
    header, rows = sweep.tables()["sweep"]
    emit.write_csv("sweep.csv", header, rows)
    header, rows = diag.tables()["partial_sums"]
    emit.write_csv("partial_sums.csv", header, rows)
    emit.write_json(
        "dichotomy.json",
        {
            "verdict": report.summary_dict(),
            "study": study.summary_dict(),
            "sweep": sweep.summary_dict(),
            "diagnostic": diag.summary_dict(),
            "hypotheses": _hyp_dict(hyp),
        },
    )
    log.info("%s", report.render())
    return EXIT_OK if report.consistent else EXIT_HYPOTHESIS


_COMMANDS = {
    "solve": cmd_solve,
    "exhaust": cmd_exhaust,
    "majorant": cmd_majorant,
    "blowup": cmd_blowup,
    "potential": cmd_potential,
    "checks": cmd_checks,
    "dichotomy": cmd_dichotomy,
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="ellipot",
        description=(
            "numerical laboratory for semilinear elliptic Dirichlet problems"
        ),
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="path to the run configuration")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="seed recorded in the manifest")
    ap.add_argument("--verbose", action="store_true", help="chatty progress on stderr")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
    )
    try:
        cfg = RunConfig.from_file(args.config)
        _check_keys(cfg)
        # a label recorded in the manifest; nothing in the package is random
        seed = args.seed
        if seed is None:
            seed = cfg.get("experiment", "seed", default=DEFAULT_SEED, kind="int")
        outdir = args.out or cfg.get("output", "dir", default="out", kind="str")
        emit = Emitter(outdir)
        code = _COMMANDS[args.command](cfg, emit)
        emit.finish(args.command, args.config, seed)
        return code
    except (ConfigError, ExprError, MaskError, NestingError, StencilError,
            ValueError) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (EllipticityError, MajorantError) as exc:
        log.error("hypothesis check failed: %s", exc)
        return EXIT_HYPOTHESIS
    except (NonConvergenceError, LinearSolveError, SolverBreakdownError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
