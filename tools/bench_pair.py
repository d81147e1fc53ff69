"""Paired benchmark: a parent source tree against this one, in alternating runs.

For every workload in BENCHMARK.json and each of the seeds 7 and 11, runs
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds in the parent
tree and in the change tree, 10 times each, alternating which side goes
first, and writes BENCH_<label>.json at the root of this tree:

    python3 tools/bench_pair.py --parent <checkout of the parent commit> \
        --label redblack [--change <copy of this tree>]

Each side gets the median and the quartiles of every end-to-end metric
declared in BENCHMARK.json, its per-run values and its failed-operation
count; each metric gets the number of pairs the change won (in the
metric's declared direction) and the change/parent ratio of the medians.
The `environment` line the benchmark prints is recorded once.  Runs are
sequential, so the two sides never share the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)  # the benchmark's default seed and one held out
PAIRS = 10


def _git_rev(tree: Path) -> str:
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One benchmark run; returns (metrics, failed, environment line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((ln[len("environment "):] for ln in lines if ln.startswith("environment ")),
               None)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["failed"], env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better):
    """Per-side statistics and per-metric pair wins."""
    out = {"pairs": len(runs["parent"]), "sides": {}, "wins": {}, "ratio_of_medians": {}}
    for side in ("parent", "change"):
        stats = {}
        for name in better:
            values = [r["metrics"][name] for r in runs[side]]
            q1, med, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "values": values}
        out["sides"][side] = {"metrics": stats,
                              "failed": [r["failed"] for r in runs[side]]}
    for name, direction in better.items():
        wins = 0
        for a, b in zip(runs["parent"], runs["change"]):
            pa, ch = a["metrics"][name], b["metrics"][name]
            wins += int(ch < pa if direction == "lower" else ch > pa)
        out["wins"][name] = wins
        p_med = out["sides"]["parent"]["metrics"][name]["median"]
        c_med = out["sides"]["change"]["metrics"][name]["median"]
        out["ratio_of_medians"][name] = c_med / p_med if p_med else None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent source tree")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the changed source tree (default: this tree)")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out_path = ROOT / f"BENCH_{args.label}.json"
    report = {
        "label": args.label,
        "command": f"python3 tools/bench_pair.py --parent PARENT --label {args.label}",
        "run": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
               " --trace 0",
        "revisions": {side: _git_rev(tree) for side, tree in trees.items()},
        "pairs": PAIRS,
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "environment": None,
        "results": {},
    }
    for workload in workloads:
        for seed in SEEDS:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter()
                    metrics, failed, env = run_once(trees[side], workload, seed, seconds)
                    report["environment"] = report["environment"] or json.loads(env)
                    runs[side].append({"metrics": metrics, "failed": failed})
                    print(f"{workload} seed {seed} pair {i} {side}: "
                          f"{time.perf_counter() - t0:.0f} s, failed {failed}, "
                          + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()),
                          flush=True)
            report["results"].setdefault(workload, {})[str(seed)] = summarize(runs, better)
            out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
