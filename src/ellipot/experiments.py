"""Exhaustion limits, blow-up sweeps, potential diagnostics, dichotomy.

Everything here composes the solver over families of domains and boundary
constants and reduces the outcomes to small verdict reports: does the
limit of solutions over growing domains stay bounded away from zero and
saturate at the boundary constant, or collapse; does sweeping the boundary
constant upward diverge or saturate; do truncated Green sums of a density
look summable or not.  The pair (bounded solution indicated, large
solution indicated) should never be (yes, yes) when the structural
hypotheses on the reaction hold — the dichotomy the report surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NonConvergenceError
from .geometry import box_mask, build_exhaustion, build_grid, interior_depth
from .operators import assemble
from .potentials import Field, green_apply, interior_values
from .solver import SemilinearParams, solve_semilinear_dirichlet

# Verdict thresholds; a report that states its threshold carries it.
# Pointwise order checks (level solutions not rising as the domain grows,
# the scaling bound) allow _ORDER_TOL, the increment scale at which a
# stalled solve is accepted.
_ORDER_TOL = 1e-8
# a sweep saturates when its probes grow by under 1% over the last decade
_SATURATION_RTOL = 0.01
# Green sums look divergent when the last increment is at least this
# fraction of the one before
_DIVERGENCE_RATIO = 0.9
# bounded needs the two largest truncations' sups within 5% of c
_STABILITY_RTOL = 0.05
# sup-identity bands: a run is trivial when its core sup is at most
# _TRIVIAL_FRACTION of c, saturating when its sup is at least
# _BAND_FRACTION of c and its core sup at least _CORE_FRACTION of its sup
_TRIVIAL_FRACTION = 0.05
_BAND_FRACTION = 0.9
_CORE_FRACTION = 0.5


def assemble_levels(exhaustion, coeffs=None, scheme=None):
    """Assembled operator per exhaustion level (shared grid, nested masks)."""
    return [assemble(level, coeffs, scheme) for level in exhaustion.levels]


def deepest_point(mask):
    """Interior point of maximal lattice distance to the boundary."""
    depth = interior_depth(mask)
    flat = int(np.argmax(depth.ravel()))
    return mask.grid.points()[flat]


@dataclass
class ExhaustionRun:
    """Solutions with constant boundary data c over nested levels.

    ``per_level`` holds every level's solution restricted to the innermost
    level's interior (the common region where the levels are comparable);
    ``v_c`` is the outermost solution, the best available stand-in for the
    limit over the exhaustion; ``sup_estimate`` is its interior supremum
    over the outermost level.
    """

    c: float
    per_level: list
    v_c: Field
    decreasing_ok: bool
    sup_estimate: float
    level_sups: list
    ref_point: np.ndarray
    ref_values: list
    max_increase: float
    reports: list
    fields: list

    def core_sup(self):
        """Supremum of the limit field over the innermost level interior."""
        return float(np.max(self.per_level[-1]))

    def summary_dict(self):
        return {
            "c": self.c,
            "n_levels": len(self.per_level),
            "decreasing_ok": bool(self.decreasing_ok),
            "max_increase": self.max_increase,
            "sup_estimate": self.sup_estimate,
            "core_sup": self.core_sup(),
            "level_sups": [float(v) for v in self.level_sups],
            "ref_point": [float(x) for x in self.ref_point],
            "ref_values": [float(v) for v in self.ref_values],
        }

    def tables(self):
        rows = [
            [n + 1, len(self.per_level[n]), self.level_sups[n], self.ref_values[n]]
            for n in range(len(self.per_level))
        ]
        return {
            "levels": (["level", "n_core_points", "sup", "ref_value"], rows)
        }


def run_exhaustion(levels, phi, c, params=None, coeffs=None, scheme=None,
                   ref_point=None, keep_fields=True):
    """Solve  L u = phi(., u), u = c  on every level of an exhaustion.

    ``levels`` is either an ExhaustionSequence (operators are assembled
    here with ``coeffs``/``scheme``) or a prebuilt list of assembled
    operators over nested masks on one grid.  Level solutions must not
    increase when the domain grows — ``max_increase`` measures the worst
    violation on the common region and ``decreasing_ok`` allows
    _ORDER_TOL.
    """
    c = float(c)
    if c <= 0:
        raise ValueError("boundary constant c must be positive")
    ops = (assemble_levels(levels, coeffs, scheme) if hasattr(levels, "levels")
           else list(levels))
    if not ops:
        raise ValueError("no levels to run")
    if params is None:
        params = SemilinearParams()

    core = ops[0].mask
    if ref_point is None:
        ref_point = deepest_point(core)
    ref_point = np.asarray(ref_point, dtype=float)

    fields = []
    reports = []
    for op in ops:
        u, rep = solve_semilinear_dirichlet(op, phi, c, params)
        fields.append(u)
        reports.append(rep)

    per_level = [f.values.ravel()[core.interior_flat] for f in fields]
    level_sups = [f.sup_interior() for f in fields]
    ref_values = [f.at(ref_point) for f in fields]

    max_increase = 0.0
    for lo_op, f_lo, f_hi in zip(ops[:-1], fields[:-1], fields[1:]):
        common = lo_op.mask.interior_flat
        gap = f_hi.values.ravel()[common] - f_lo.values.ravel()[common]
        max_increase = max(max_increase, float(gap.max(initial=-np.inf)))
    decreasing_ok = max_increase <= _ORDER_TOL

    return ExhaustionRun(
        c=c,
        per_level=per_level,
        v_c=fields[-1],
        decreasing_ok=decreasing_ok,
        sup_estimate=level_sups[-1],
        level_sups=level_sups,
        ref_point=ref_point,
        ref_values=ref_values,
        max_increase=max_increase,
        reports=reports,
        fields=fields if keep_fields else [],
    )


@dataclass
class SupIdentityReport:
    """Classification of an exhaustion run against  sup v_c = c.

    trivial : the limit collapses on the core region (v_c essentially 0);
    saturating : the interior supremum sits in the band below c and the
        core carries a comparable share (so the sup is not a pure
        boundary-layer artifact);
    intermediate : anything else — flagged as a truncation artifact, not
        a failure.
    """

    verdict: str
    c: float
    sup_estimate: float
    core_sup: float
    trivial_fraction: float
    band_fraction: float
    core_fraction: float

    def summary_dict(self):
        return {
            "verdict": self.verdict,
            "c": self.c,
            "sup_estimate": self.sup_estimate,
            "core_sup": self.core_sup,
            "bands": {
                "trivial_fraction": self.trivial_fraction,
                "band_fraction": self.band_fraction,
                "core_fraction": self.core_fraction,
            },
        }


def check_sup_identity(run):
    """Classify a run as trivial / saturating / intermediate.

    The core supremum (over the innermost level) guards against calling a
    collapsing limit "saturating" just because points one cell away from
    the outer boundary still sit near c.
    """
    c = run.c
    full = run.sup_estimate
    core = run.core_sup()
    if core <= _TRIVIAL_FRACTION * c:
        verdict = "trivial"
    elif full >= _BAND_FRACTION * c and core >= _CORE_FRACTION * full:
        verdict = "saturating"
    else:
        verdict = "intermediate"
    return SupIdentityReport(
        verdict, c, full, core, _TRIVIAL_FRACTION, _BAND_FRACTION, _CORE_FRACTION
    )


@dataclass
class ScalingCheckReport:
    """Pointwise audit of  v_lam >= (lam/lam1) * v_lam1  on the common level."""

    holds: bool
    ratio: float
    min_gap: float
    tol: float
    skipped: bool = False
    warning: str = ""

    def summary_dict(self):
        return {
            "holds": bool(self.holds),
            "ratio": self.ratio,
            "min_gap": self.min_gap,
            "tol": self.tol,
            "skipped": self.skipped,
            "warning": self.warning,
        }


def scaling_bound_check(run_hi, run_lo, concave=True):
    """Check the boundary-constant scaling bound between two runs.

    Both runs must share the same reaction and geometry; ``run_hi`` has
    the larger boundary constant.  When the reaction is not concave in t
    the bound has no backing and the check is skipped with a warning.
    The bound may fail by _ORDER_TOL.
    """
    if not concave:
        return ScalingCheckReport(
            holds=False,
            ratio=run_hi.c / run_lo.c,
            min_gap=float("nan"),
            tol=_ORDER_TOL,
            skipped=True,
            warning="reaction is not concave in t; scaling bound not applicable",
        )
    if run_hi.c < run_lo.c:
        raise ValueError("run_hi must have the larger boundary constant")
    hi = run_hi.v_c
    lo = run_lo.v_c
    if not hi.mask.same_as(lo.mask):
        raise ValueError("runs live on different geometries")
    ratio = run_hi.c / run_lo.c
    gap = hi.interior() - ratio * lo.interior()
    min_gap = float(gap.min(initial=0.0))
    return ScalingCheckReport(min_gap >= -_ORDER_TOL, ratio, min_gap, _ORDER_TOL)


@dataclass
class BlowupSweep:
    """Probe values against growing boundary constants.

    verdict 'saturates' when relative increments over the last decade of
    m fall under saturation_rtol at every probe; otherwise 'diverges'
    (affine-or-faster growth, the signature of no finite envelope).
    """

    m_values: np.ndarray
    probe_points: np.ndarray
    values: np.ndarray
    ratios: np.ndarray
    verdict: str
    monotone_ok: bool
    last_decade_increment: float
    saturation_rtol: float
    failures: list = dc_field(default_factory=list)

    def summary_dict(self):
        return {
            "verdict": self.verdict,
            "monotone_ok": bool(self.monotone_ok),
            "last_decade_increment": self.last_decade_increment,
            "saturation_rtol": self.saturation_rtol,
            "n_m": int(len(self.m_values)),
            "min_ratio": float(np.nanmin(self.ratios)),
            "failures": self.failures,
        }

    def tables(self):
        header = ["m"]
        for j in range(self.values.shape[1]):
            header += [f"u_probe{j + 1}", f"u_probe{j + 1}_over_m"]
        rows = []
        for i, m in enumerate(self.m_values):
            row = [float(m)]
            for j in range(self.values.shape[1]):
                row += [float(self.values[i, j]), float(self.ratios[i, j])]
            rows.append(row)
        return {"sweep": (header, rows)}


def blowup_sweep(op, phi, m_values, probes=None, params=None):
    """Sweep constant boundary data upward and watch interior probes.

    ``m_values`` must be increasing, at least 4 values spanning at least
    two decades.  Solve failures at individual m are recorded and leave
    NaN rows (partial table).
    """
    m_values = np.asarray(m_values, dtype=float)
    if len(m_values) < 4:
        raise ValueError("need at least 4 boundary constants")
    if np.any(np.diff(m_values) <= 0):
        raise ValueError("boundary constants must be strictly increasing")
    if m_values[-1] < 100.0 * m_values[0]:
        raise ValueError("boundary constants must span at least two decades")
    if probes is None:
        probes = [deepest_point(op.mask)]
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if params is None:
        params = SemilinearParams()

    values = np.full((len(m_values), len(probes)), np.nan)
    failures = []
    for i, m in enumerate(m_values):
        try:
            u, _ = solve_semilinear_dirichlet(op, phi, float(m), params)
        except NonConvergenceError as exc:
            failures.append(f"m={m:g}: {exc}")
            continue
        for j, pt in enumerate(probes):
            values[i, j] = u.at(pt)

    ratios = values / m_values[:, None]
    diffs = np.diff(values, axis=0)
    monotone_ok = bool(np.all(np.isnan(diffs) | (diffs >= -1e-8)))

    in_decade = m_values >= m_values[-1] / 10.0
    sel = values[in_decade]
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = (sel[-1] - sel[0]) / np.maximum(np.abs(sel[-1]), 1e-300)
    last_inc = float(np.nanmax(rel)) if np.isfinite(rel).any() else float("nan")
    verdict = "saturates" if last_inc < _SATURATION_RTOL else "diverges"
    return BlowupSweep(
        m_values,
        probes,
        values,
        ratios,
        verdict,
        monotone_ok,
        last_inc,
        _SATURATION_RTOL,
        failures,
    )


@dataclass
class PotentialDiagnostic:
    """Truncated Green sums of a density across growing domains.

    values[k] approximates the integral of G(x0, .) times the density
    over the k-th truncation minus the excluded set.  The verdict fits
    the increments: shrinking increments look summable, non-shrinking
    ones look divergent; ``exponent`` is the least-squares slope of
    log(values) against log(radii), None below two radii.
    """

    radii: np.ndarray
    values: np.ndarray
    probe: np.ndarray
    verdict: str
    exponent: float | None
    increment_ratio: float
    nondecreasing_ok: bool

    def summary_dict(self):
        return {
            "verdict": self.verdict,
            "exponent": self.exponent,
            "increment_ratio": self.increment_ratio,
            "nondecreasing_ok": bool(self.nondecreasing_ok),
            "probe": [float(x) for x in self.probe],
        }

    def tables(self):
        rows = [[float(r), float(v)] for r, v in zip(self.radii, self.values)]
        return {"partial_sums": (["radius", "green_sum"], rows)}


def green_potential_diagnostic(ops, radii, p, excluded=None, probe=None):
    """Per-truncation Green sums of a density with a divergence verdict.

    ``ops`` are assembled operators over the truncations (one per radius,
    increasing).  ``excluded`` is an optional predicate marking points
    whose density contribution is dropped (the declared exceptional set).
    The verdict is 'apparently divergent' when the last increment is at
    least _DIVERGENCE_RATIO times the previous one, else 'apparently
    finite'.
    """
    radii = np.asarray(radii, dtype=float)
    if len(ops) != len(radii):
        raise ValueError("one operator per radius required")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be increasing")
    if probe is None:
        probe = np.zeros(ops[0].mask.grid.dim)
    probe = np.asarray(probe, dtype=float)

    vals = []
    for op in ops:
        mask = op.mask
        dens = interior_values(mask, p)
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        if excluded is not None:
            pts = mask.interior_points()
            drop = np.asarray(excluded(pts), dtype=bool)
            dens = np.where(drop, 0.0, dens)
        u = green_apply(op, dens)
        vals.append(u.at(probe))
    vals = np.asarray(vals)

    nondecreasing_ok = bool(np.all(np.diff(vals) >= -1e-8 * max(1.0, vals.max())))
    inc = np.diff(vals)
    if len(inc) >= 2 and inc[-2] > 0:
        ratio = float(inc[-1] / inc[-2])
    else:
        ratio = float("inf") if len(inc) and inc[-1] > 0 else 0.0
    exponent = None
    if len(radii) >= 2:
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(vals, 1e-300))
        exponent = float(np.polyfit(np.log(radii), logs, 1)[0])
    verdict = (
        "apparently divergent" if ratio >= _DIVERGENCE_RATIO else "apparently finite"
    )
    return PotentialDiagnostic(
        radii, vals, probe, verdict, exponent, ratio, nondecreasing_ok
    )


@dataclass
class TruncationRecord:
    half_width: float
    shape: tuple
    run: ExhaustionRun
    sup_report: SupIdentityReport
    origin_value: float


@dataclass
class TruncationStudy:
    """Exhaustion runs across domains of doubling size."""

    records: list
    c: float

    def sup_estimates(self):
        return np.array([r.run.sup_estimate for r in self.records])

    def origin_values(self):
        return np.array([r.origin_value for r in self.records])

    def sup_increasing(self, tol=0.0):
        sups = self.sup_estimates()
        return bool(np.all(np.diff(sups) > -tol))

    def origin_decay_ok(self, factor=0.7, floor=1e-8):
        """Each doubling multiplies the origin value by <= factor,
        or the value has already hit the numerical floor."""
        vals = self.origin_values()
        for prev, nxt in zip(vals[:-1], vals[1:]):
            if nxt <= floor:
                continue
            if nxt > factor * prev:
                return False
        return True

    def summary_dict(self):
        return {
            "c": self.c,
            "half_widths": [float(r.half_width) for r in self.records],
            "sup_estimates": [float(v) for v in self.sup_estimates()],
            "origin_values": [float(v) for v in self.origin_values()],
            "sup_increasing": self.sup_increasing(),
            "verdicts": [r.sup_report.verdict for r in self.records],
        }

    def tables(self):
        rows = [
            [
                float(r.half_width),
                int(np.prod(r.shape)),
                float(r.run.sup_estimate),
                float(r.run.core_sup()),
                float(r.origin_value),
                r.sup_report.verdict,
            ]
            for r in self.records
        ]
        return {
            "truncations": (
                ["half_width", "n_points", "sup_estimate", "core_sup",
                 "origin_value", "verdict"],
                rows,
            )
        }


def cube_truncation_study(half_widths, phi, c=1.0, dim=3, shape=33,
                          n_levels=3, coeffs=None, scheme=None, params=None,
                          ops=None):
    """Run exhaustions on concentric cubes of doubling half-width.

    Each cube uses the same lattice shape (so larger cubes are coarser),
    an odd point count keeps the origin on the lattice, and the origin is
    the common probe.

    ``ops`` optionally supplies the assembled operator of each whole cube
    (one per half-width, assembled with ``coeffs``/``scheme``); each cube's
    lattice is then read from its operator and ``dim``/``shape`` are not
    used.  Without ``ops`` each whole cube is assembled here from
    ``dim``/``shape`` and released with its run.  The whole cube serves as
    the outermost exhaustion level and only the inner levels are assembled
    here, so a caller that reuses ``ops`` for a sweep or Green sums on the
    same cubes assembles (and, off the DST path, factors) each cube once.
    """
    if ops is not None and len(ops) != len(half_widths):
        raise ValueError("one operator per half-width required")
    shapes = [(int(shape),)] if ops is None else [op.mask.grid.shape for op in ops]
    if any(n % 2 == 0 for s in shapes for n in s):
        raise ValueError("shape must be odd so the origin is a lattice point")
    records = []
    for i, R in enumerate(half_widths):
        outer = ops[i] if ops is not None else assemble(
            box_mask(build_grid(dim, int(shape), (-float(R), float(R)))),
            coeffs, scheme,
        )
        grid = outer.mask.grid
        inner = build_exhaustion(outer.mask, n_levels).levels[:-1]
        levels = [assemble(m, coeffs, scheme) for m in inner] + [outer]
        origin = np.zeros(grid.dim)
        run = run_exhaustion(
            levels, phi, c, params=params, ref_point=origin, keep_fields=False
        )
        rep = check_sup_identity(run)
        records.append(
            TruncationRecord(float(R), grid.shape, run, rep, run.v_c.at(origin))
        )
    return TruncationStudy(records, float(c))


@dataclass
class DichotomyReport:
    """Joint verdict: is a bounded solution indicated, is a large one.

    Under the structural hypotheses the pair (yes, yes) must not occur;
    ``consistent`` records that.  When the hypotheses fail the pair is
    reported anyway with the flag set.
    """

    bounded_indicated: bool
    large_indicated: bool
    hypotheses_ok: bool
    consistent: bool
    sup_verdict: str
    sup_stability: float
    blowup_verdict: str
    diagnostic_verdict: str
    notes: list = dc_field(default_factory=list)

    def summary_dict(self):
        return {
            "bounded_indicated": bool(self.bounded_indicated),
            "large_indicated": bool(self.large_indicated),
            "hypotheses_ok": bool(self.hypotheses_ok),
            "consistent": bool(self.consistent),
            "sup_verdict": self.sup_verdict,
            "sup_stability": self.sup_stability,
            "blowup_verdict": self.blowup_verdict,
            "diagnostic_verdict": self.diagnostic_verdict,
            "notes": self.notes,
        }

    def render(self):
        rows = [
            f"bounded solution indicated: {'yes' if self.bounded_indicated else 'no'}",
            f"large solution indicated:   {'yes' if self.large_indicated else 'no'}",
            f"hypotheses satisfied:       {'yes' if self.hypotheses_ok else 'NO'}",
            f"dichotomy consistent:       {'yes' if self.consistent else 'VIOLATED'}",
            f"  sup verdict: {self.sup_verdict} (stability {self.sup_stability:.3g})",
            f"  sweep verdict: {self.blowup_verdict}",
            f"  green-sum verdict: {self.diagnostic_verdict}",
        ]
        rows.extend("  note: " + n for n in self.notes)
        return "\n".join(rows)


def dichotomy_report(study, sweep, diagnostic=None, hypotheses_ok=True):
    """Bundle a truncation study, a blow-up sweep, and a Green diagnostic.

    'Bounded solution indicated' requires the largest truncation to
    classify as saturating and its interior supremum to agree with the
    previous truncation within _STABILITY_RTOL relative to c.  'Large
    solution indicated' is the sweep saturating.
    """
    records = study.records
    last = records[-1]
    stability = float("inf")
    if len(records) >= 2:
        stability = abs(
            records[-1].run.sup_estimate - records[-2].run.sup_estimate
        ) / study.c
    bounded = last.sup_report.verdict == "saturating" and stability < _STABILITY_RTOL
    large = sweep.verdict == "saturates"
    consistent = not (bounded and large) or not hypotheses_ok

    notes = []
    if not hypotheses_ok:
        notes.append("structural hypotheses violated; verdicts are descriptive only")
    if bounded and large and hypotheses_ok:
        notes.append("forbidden joint verdict (yes, yes) under valid hypotheses")
    return DichotomyReport(
        bounded,
        large,
        hypotheses_ok,
        consistent,
        last.sup_report.verdict,
        stability,
        sweep.verdict,
        diagnostic.verdict if diagnostic is not None else "not run",
        notes,
    )
