"""ellipot benchmark: timed workload passes, output checks, traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dichotomy3d --seed 0 --seconds 40 --trace 0

One process, one caller, closed loop: each pass starts after the
previous one ended.  BLAS/OpenMP pools are pinned to one thread.

--trace 0  set-up is timed first (fresh interpreters that import ellipot
           and generate the inputs, median of three), then whole passes
           run until the next one would overrun --seconds (at least one).
           Every pass is checked.  Reports setup_s, wall_s (median pass),
           peak_rss_mb (high-water RSS through the first pass) and
           certified_frac.
--trace 1  one untraced pass, then one pass with every public
           callable wrapped in a span; reports the per-layer split of the
           traced pass and the tracing overhead.  Spans go to
           perfbench/work/<workload>/trace.json.

The last stdout line is the JSON result; the line before it carries the
run's metadata, pass samples and any failed check names.  Inputs are
generated from --seed under perfbench/work/<workload>/inputs;
--record-references stores the outputs of one default-seed pass as the
reference values later runs are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCES = HERE / "references.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3


def unit_of(name):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("share", "frac"),
                         ("_frac", "frac"), ("_ratio", "frac"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ms" if ".ms_" in name else "count"


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def setup(workload, seed, folder):
    """Import the package and write the seed's inputs; returns the workload."""
    import ellipot  # noqa: F401  (import time is part of set-up)
    import ellipot.cli  # noqa: F401
    from workloads import WORKLOADS

    folder.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed)
    wl.write_inputs(folder)
    return wl


def probe_setup(args, folder):
    """Wall time of a fresh interpreter importing ellipot and writing inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(folder)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def metadata(folder):
    import numpy
    import scipy

    inputs = hashlib.sha256()
    for path in sorted(folder.iterdir()):
        inputs.update(path.name.encode() + b"\0" + path.read_bytes())
    source = hashlib.sha256()
    for path in sorted((SRC / "ellipot").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None  # benchmark checkouts need not be git repositories
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "inputs_sha256": inputs.hexdigest(),
    }


class Runner:
    """Runs passes of one workload and accumulates their checks."""

    def __init__(self, wl, folder, refs, record):
        self.wl = wl
        self.out = folder / "out"
        self.refs = refs
        self.record = record
        self.summary = None
        self.broken = False
        self.cpu = []  # process CPU seconds per pass, for the detail line
        self.checks = []
        self.certified = 0
        self.solutions = 0

    def one_pass(self, capture, tracer=None):
        """Wall time of one pass; its outputs are checked after the clock.

        With a tracer, spans are recorded for the pass and not the checks.
        """
        from workloads import reference_checks

        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        capture.solves.clear()
        if tracer is not None:
            tracer.pass_id = 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            try:
                result = self.wl.run_pass(self.out)
            finally:
                wall = time.perf_counter() - t0
                self.cpu.append(time.process_time() - c0)
                if tracer is not None:
                    tracer.pass_id = None
            checks, certified, total = self.wl.check(result, self.out, capture.solves)
            if self.refs or self.record:
                self.summary = self.wl.summary(result, self.out, capture.solves)
                if self.refs:
                    checks += reference_checks(self.summary, self.refs)
        except Exception:  # a pass that raises is a failed check, not a crash
            traceback.print_exc()
            checks, certified, total = [("pass_completed", False)], 0, 0
            self.broken = True
        self.checks += checks
        self.certified += certified
        self.solutions += total
        capture.solves.clear()
        return wall


def run(args):
    from tracing import Patcher, Tracer, install, layer_metrics, self_times
    from workloads import DEFAULT_SEED, Capture, load_references

    folder = WORK / args.workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    setup_samples = [] if args.trace else [
        probe_setup(args, folder / f"probe{k}") for k in range(SETUP_PROBES)]
    wl = setup(args.workload, args.seed, folder / "inputs")
    refs = load_references(REFERENCES).get(args.workload) if args.seed == DEFAULT_SEED else None
    runner = Runner(wl, folder, refs, args.record_references)
    capture = Capture()
    patcher = Patcher()
    capture.install(patcher)

    walls = []
    start = time.perf_counter()
    if not args.trace:
        while True:
            walls.append(runner.one_pass(capture))
            if len(walls) == 1:
                # a CLI user runs one pass per process; later passes would
                # add allocator fragmentation that depends on the pass count
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - start
            if runner.broken or args.record_references or \
                    elapsed + max(walls) > args.seconds:
                break
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_kib / 1024.0,
            "certified_frac": runner.certified / max(runner.solutions, 1),
        }
    else:
        walls.append(runner.one_pass(capture))
        patcher.restore()
        tracer = Tracer()
        install(tracer, patcher, {"solver.solve_semilinear_dirichlet": capture.hook})
        traced = runner.one_pass(capture, tracer)
        walls.append(traced)
        metrics = layer_metrics(tracer.spans, tracer.info, traced)
        metrics["trace.overhead_frac"] = traced / walls[0] - 1.0
        selft = self_times(tracer.spans)
        (folder / "trace.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "pass", "self"],
            "spans": [s + [float(st)] for s, st in zip(tracer.spans, selft)],
        }))
    patcher.restore()

    if args.record_references:
        refs = load_references(REFERENCES)
        refs[args.workload] = runner.summary
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    failed = [name for name, ok in runner.checks if not ok]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "c": wl.c,
        "amplitude": wl.amp,
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_quartiles_s": quartiles(walls),
        "pass_cpu_s": runner.cpu,
        "setup_samples_s": setup_samples,
        "certified": [runner.certified, runner.solutions],
        "failed_checks": sorted(set(failed)),
        "meta": metadata(folder / "inputs"),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--record-references", action="store_true",
                    help="store one default-seed pass's outputs as references")
    args = ap.parse_args(argv)
    if args.record_references and (args.seed != DEFAULT_SEED or args.trace):
        ap.error("--record-references needs --seed 0 --trace 0")

    if not (SRC / "ellipot" / "__init__.py").is_file():
        print(f"ellipot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
