"""
Expressions, run configurations, and the command-line front end
===============================================================

Weights and reactions can be written as plain text -- "(1 + r)^(-3)",
"min(t, 1) / (1 + x1^2)" -- parsed into an AST, validated against the
dimension, and compiled into vectorized point functions.  Run
configurations use the same expressions inside INI-style files, and
the `ellipot` command line drives whole experiments from them.  This
script walks the pipeline end to end and leaves its artifacts in
demos/output/.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import ellipot as ep

# ---------------------------------------------------------------
# 1. Parse, inspect, evaluate.
# ---------------------------------------------------------------
tree = ep.parse_expr("(1 + r)^(-3) * sqrt(min(t, 4))")
print(f"round-trip  : {ep.to_text(tree)}")

val = ep.evaluate(tree, {"r": np.array([0.0, 1.0]), "t": 1.0})
print(f"evaluated   : {val}  (at r = [0, 1], t = 1)")

# Errors carry a 1-based column so config typos are easy to find.
try:
    ep.parse_expr("2 * / 3")
except ep.ExprError as e:
    print(f"parse error : {e}")

# ---------------------------------------------------------------
# 2. Compile into a point function and use it like any weight.
# ---------------------------------------------------------------
decay = ep.compile_point_function("(1 + r)^(-3)", dim=3)
pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
print(f"compiled    : p(0) = {decay(pts)[0]:.4f}, "
      f"p(e1) = {decay(pts)[1]:.4f}")

# ---------------------------------------------------------------
# 3. A run configuration, written and executed.
#
# The solve command assembles the operator from [geometry], the
# reaction from [phi], solves with the [experiment] boundary data, and
# writes solution.csv, report.json, and a manifest with hashes of
# every artifact (re-running the same config reproduces them bit for
# bit).  Each command gets its own output folder, so each manifest
# covers every artifact next to it.
# ---------------------------------------------------------------
outdir = pathlib.Path(__file__).parent / "output" / "cli_solve"
outdir.mkdir(parents=True, exist_ok=True)

# The command line is `python -m ellipot.cli`, run from the output folder
# so that the manifest records the config by its relative name; the
# package this script imported is put on PYTHONPATH, so no install is
# needed.
package_root = str(pathlib.Path(ep.__file__).resolve().parent.parent)
env = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def ellipot(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "ellipot.cli", *args],
                          cwd=outdir, env=env, capture_output=True, text=True)
    if proc.returncode != expect:
        sys.exit(f"ellipot {args[0]} exited {proc.returncode}, "
                 f"expected {expect}:\n{proc.stderr}")
    return proc


cfg = outdir / "run.cfg"
cfg.write_text("""\
[geometry]
dim = 2
shape = 33
bounds = [-1.0, 1.0]

[phi]
family = power
gamma = 0.5
p = "1 / (1 + x1^2 + x2^2)"

[experiment]
boundary = 1.0
seed = 7
""")

proc = ellipot("solve", "--config", "run.cfg", "--out", "solve")
print(f"\n$ ellipot solve --config run.cfg --out solve   (exit {proc.returncode})")

report = json.loads((outdir / "solve" / "report.json").read_text())
print(f"report      : converged={report['converged']}, "
      f"iterations={report['iterations']}, "
      f"identity residual {report['identity_residual']:.2e}")

manifest = json.loads((outdir / "solve" / "manifest.json").read_text())
print("artifacts   :")
for art in manifest["artifacts"]:
    print(f"  {art['name']:14s} {art['bytes']:7d} bytes  "
          f"sha256 {art['sha256'][:12]}...")

# ---------------------------------------------------------------
# 4. The structural checks as a gate.
#
# `ellipot checks` audits the configured reaction and operator and
# exits 0 only when every hypothesis holds -- handy as a guard in
# scripted pipelines (exit 2 flags a hypothesis failure, so a
# superlinear gamma is caught before any expensive run).
# ---------------------------------------------------------------
bad = outdir / "bad.cfg"
bad.write_text(cfg.read_text().replace("gamma = 0.5", "gamma = 3.0"))
for name, out, expect in (("run.cfg", "checks_run", 0),
                          ("bad.cfg", "checks_bad", 2)):
    proc = ellipot("checks", "--config", name, "--out", out, expect=expect)
    print(f"checks on {name}: exit {proc.returncode}")
