"""Alternating benchmark pairs of two commits, written as BENCH_*.json files.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent e8f9bda --change HEAD \\
        --workload dichotomy3d --seeds 0 1

Each side runs from its own clean checkout of its commit (a local
``git clone``, removed at the end), so only committed files are measured,
as the benchmark itself does.  Each seed takes ``PAIRS`` pairs; pair k
runs ``perfbench/run.py --workload W --seed S --trace 0`` once per side,
unmodified and at its own default length, one process at a time: the
parent first in even pairs, the change first in odd ones.  The end-to-end
metrics and their directions come from ``BENCHMARK.json``.

Writes ``BENCH_<workload>_<rev>.json`` for both sides into the repository
root.  Per seed, a file holds its side's runs (the
detail and result lines of ``run.py``), the pair list, its own summary
(median, quartiles and IQR per metric, and the check counts), the other
side's summary, and the comparison: pairs won and lost by the change,
the change of the medians, absolute and relative to the parent's, and
the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# the fewest pairs that can show a change winning nine of ten
PAIRS = 10


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(repo, sha, folder):
    """A clean checkout of ``sha`` in ``folder``, with its own .git, so that
    ``run.py`` records the revision it ran."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(repo), str(folder)],
                   check=True)
    git("checkout", "--quiet", sha, cwd=folder)


def run_once(folder, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=folder, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} in {folder} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summary(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "quartiles": quartiles,
            "iqr": quartiles[2] - quartiles[0], "n": len(values)}


def side_summary(runs, metrics):
    out = {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
           for name, _ in metrics}
    out["correct_runs"] = sum(bool(r["result"]["correct"]) for r in runs)
    out["failed_checks"] = sum(r["result"]["failed"] for r in runs)
    out["attempted_checks"] = sum(r["result"]["attempted"] for r in runs)
    return out


def comparison(pairs, summaries, metrics):
    out = {}
    for name, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        gains = [sign * (p[name]["parent"] - p[name]["change"]) for p in pairs]
        parent, change = summaries["parent"][name], summaries["change"][name]
        diff = change["median"] - parent["median"]
        out[name] = {
            "change_wins": sum(g > 0 for g in gains),
            "change_losses": sum(g < 0 for g in gains),
            "pairs": len(pairs),
            "median_change_minus_parent": diff,
            "relative": diff / parent["median"] if parent["median"] else 0.0,
            "parent_iqr": parent["iqr"],
        }
    return out


def dumps(obj, indent=0):
    """JSON with one key per line and lists of scalars on one line."""
    pad = " " * (indent + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        items = [pad + dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(obj)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", default="HEAD", help="the changed commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).parent))
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
            for side, rev in zip(SIDES, (args.parent, args.change))}
    revs = {side: git("rev-parse", "--short=7", sha, cwd=repo) for side, sha in shas.items()}
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        folders = {side: scratch / side for side in SIDES}
        for side in SIDES:
            checkout(repo, shas[side], folders[side])
        seeds = {}
        for seed in args.seeds:
            runs = {side: [] for side in SIDES}
            pairs = []
            for k in range(PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    detail, result = run_once(folders[side], args.workload, seed)
                    runs[side].append({"side": side, "pair": k, "detail": detail,
                                       "result": result})
                    print(f"{args.workload} seed {seed} pair {k} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
                pair = {"pair": k, "first": order[0]}
                for name, _ in metrics:
                    pair[name] = {side: runs[side][-1]["result"]["metrics"][name]["value"]
                                  for side in SIDES}
                pairs.append(pair)
            summaries = {side: side_summary(runs[side], metrics) for side in SIDES}
            seeds[str(seed)] = (runs, pairs, summaries, comparison(pairs, summaries, metrics))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for side, other in (SIDES, SIDES[::-1]):
        doc = {
            "workload": args.workload,
            "rev": revs[side],
            "side": side,
            "parent_rev": revs["parent"],
            "change_rev": revs["change"],
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed>",
            "protocol": "alternating pairs of unmodified --trace 0 runs "
                        "(default --seconds 40), parent first in even pairs, each side in "
                        "its own checkout",
            "seeds": {
                seed: {"runs": runs[side], "pairs": pairs, "summary": summaries[side],
                       "other_side_summary": summaries[other], "comparison": comp}
                for seed, (runs, pairs, summaries, comp) in seeds.items()
            },
        }
        path = repo / f"BENCH_{args.workload}_{revs[side]}.json"
        path.write_text(dumps(doc) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
