"""aodlattice benchmark: time-to-solution and throughput, end to end and per layer.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload map16 --seed 7 --seconds 30 --trace 0

Workloads, metrics, units and bounds are declared in BENCHMARK.json at the
repository root. --trace 0 prints every end-to-end metric, --trace 1 every
per-layer metric of a separate traced run. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    """Machine and toolchain facts, read-only from procfs and sysfs."""
    import numpy

    import aodlattice

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "aodlattice": aodlattice.__version__,
    }


def summarize(run, declared):
    """Values of the end-to-end metrics, plus report lines saying how each was taken."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.put("peak_rss_mb", rss, "main process, whole run")
    values = {k: v for k, (v, _) in run.values.items() if k in declared}
    lines = [f"{k}: {v:.6g} {declared.get(k, 'x')}, {how}" for k, (v, how) in run.values.items()]
    return values, lines


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default 7, the acceptance bench scene)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "aodlattice" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'aodlattice'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), WORK)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace and run.layers is not None:
        # A layer this workload never reaches reads 0.
        values = {k: run.layers.get(k, 0) for k in units} | run.layers
        lines = [f"{k}: {v:.6g} {units.get(k, '')}" for k, v in values.items()]
    elif args.trace:
        values, lines = {}, []
    else:
        values, lines = summarize(run, units)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("sizes " + json.dumps(run.sizes, sort_keys=True))
    for line in lines:
        print("  " + line)
    for problem in run.problems:
        print(f"failed: {problem}", file=sys.stderr)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(f"error: metrics missing {missing}, undeclared {extra}", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
