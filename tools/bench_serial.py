"""Patch-parallel sweep timing: a parent source tree against this one.

Runs a 10-sweep run_map_parallel from the flat start on simulated 128² and
256² scenes (noise 0.2, seed 7) with 1 and 2 patches, in the parent tree
and in the change tree, alternating which side goes first, and writes
BENCH_<label>_serial.json at the root of this tree:

    python3 tools/bench_serial.py --parent <checkout of the parent commit> \
        --label gammaoverlap [--change <copy of this tree>] [--rounds 6]

For each side, scene size and patch count it records the sweep wall times
(trace.elapsed_ms: min and median over all rounds), the 2-patch speed-up
(the ratio of the 1-patch to the 2-patch median) and the calling thread's
own CPU time per sweep (time.thread_time around each sweep of the sweep
loop, hyper step included): the work the patch threads do not take over,
whether it runs alone or alongside them.  Each round is one process per side; runs are sequential, so the
two sides never share the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = (128, 256)
PATCHES = (1, 2)
SWEEPS = 10
SEED = 7
NOISE = 0.2


def measure():
    """One round in this process's aodlattice; returns {"<side>x<patches>":
    {"wall_ms": [...], "thread_cpu_ms": [...]}}."""
    import aodlattice as al
    from aodlattice import parallel

    sweep_loop = parallel._sweep_loop
    cpu_ms = []

    def timed_loop(*args, **kwargs):
        t0 = time.thread_time()
        for item in sweep_loop(*args, **kwargs):
            cpu_ms.append((time.thread_time() - t0) * 1000.0)
            yield item
            t0 = time.thread_time()

    table = al.build_synthetic_table(al.default_library())
    out = {}
    parallel._sweep_loop = timed_loop
    try:
        for side in SIDES:
            scene = al.make_sim_scene(table, side, side, noise_level=NOISE, seed=SEED).scene
            lattice = al.build_lattice(side, side)
            hyper = al.HyperParams.uniform(table.n_components)
            # an epsilon no sweep's change falls under: every run takes SWEEPS sweeps
            config = al.SolverConfig(hyper=hyper, seed=SEED, max_sweeps=SWEEPS,
                                     epsilon=sys.float_info.min)
            init = al.init_state(scene, table, "flat", hyper)
            for n_patches in PATCHES:
                cpu_ms.clear()
                _, trace, _ = al.run_map_parallel(scene, table, lattice, config, n_patches,
                                                  init)
                out[f"{side}x{n_patches}"] = {"wall_ms": list(trace.elapsed_ms),
                                              "thread_cpu_ms": list(cpu_ms)}
    finally:
        parallel._sweep_loop = sweep_loop
    return out


def host():
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_side(tree: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measure in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(rounds):
    """Pool every round's sweeps per configuration."""
    out = {}
    for key in rounds[0]:
        wall = [ms for r in rounds for ms in r[key]["wall_ms"]]
        cpu = [ms for r in rounds for ms in r[key]["thread_cpu_ms"]]
        out[key] = {"sweeps": len(wall), "wall_ms_min": min(wall),
                    "wall_ms_median": statistics.median(wall),
                    "thread_cpu_ms_median": statistics.median(cpu)}
    for side in SIDES:
        one, two = out[f"{side}x1"], out[f"{side}x2"]
        two["speedup"] = one["wall_ms_median"] / two["wall_ms_median"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="root of the parent source tree")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the changed source tree (default: this tree)")
    parser.add_argument("--label")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--measure", action="store_true",
                        help="run one round in this process and print it as JSON")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.parent is None or args.label is None:
        parser.error("--parent and --label are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rounds = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            rounds[side].append(run_side(trees[side]))
            print(f"round {i} {side} done", flush=True)
    report = {
        "label": args.label,
        "command": f"python3 tools/bench_serial.py --parent PARENT --label {args.label}"
                   f" --rounds {args.rounds}",
        "workload": f"run_map_parallel, flat start, {SWEEPS} sweeps, noise {NOISE}, "
                    f"seed {SEED}, scenes {' and '.join(f'{s}x{s}' for s in SIDES)}",
        "order": "round i runs the parent first when i is even, the change first when odd",
        "host": host(),
        "rounds": args.rounds,
        "results": {side: summarize(r) for side, r in rounds.items()},
    }
    out_path = ROOT / f"BENCH_{args.label}_serial.json"
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
