"""The benchmark's three workloads: map16, chain16 and pipeline128.

Every input is generated from the run's seed with the package's own
simulator. A workload goes through its inputs round after round, closed
loop with one client in one process, until one more item would overrun the
run's time budget. Each solver call or CLI command is one operation; it
fails when it raises or when one of its correctness checks fails.
End-to-end times are taken at the reference host speed (see refspeed);
the traced run's per-layer times are plain wall time.

Scene i of a run with seed s uses seed s + 1000 i, so scene 0 is the seed
itself: seed 7 is the acceptance bench scene. Several scenes per run keep
the run-to-run spread of the metrics small when the seed changes.
"""

from __future__ import annotations

import contextlib
import functools
import io as stdio
import itertools
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import aodlattice as al
from aodlattice import cli

from refspeed import PIPELINE, SOLVER, RefClock
from tracing import NULL, Tracer, TracedTable, instrument

# The acceptance bench: 16 x 16 regions, 36 channels, the 8-component
# default library, forward table seed 0, stop threshold 3e-3 relative.
SIDE = 16
CHANNELS = 36
KNOTS = 25
TABLE_SEED = 0
EPS_REL = 3e-3
MAP16_SCENES = 24
CHAIN16_SCENES = 12
CHAIN_SWEEPS = 40
CHAIN_BURN_IN = 20
CHAIN_THIN = 4

# pipeline128: the CLI path at 128 x 128, noise 0.2, two process patches.
PIPE_SIDE = 128
PIPE_MIN_ROUNDS = 3
PIPE_MAX_SWEEPS = 2
PIPE_SIM = ["--set", f"scene.width={PIPE_SIDE}", "--set", f"scene.height={PIPE_SIDE}",
            "--set", "noise.level=0.2"]
PIPE_PARALLEL = ["--set", "parallel.patches=2", "--set", "parallel.executor=process",
                 "--set", f"solver.max_sweeps={PIPE_MAX_SWEEPS}"]
PIPE_SERIAL = ["--set", "parallel.patches=1", "--set", "parallel.executor=serial",
               "--set", f"solver.max_sweeps={PIPE_MAX_SWEEPS}"]
# Outputs that must repeat byte for byte; trace.csv without its wall-time column.
PIPE_COMPARED = {
    "grid": ("tau.csv", "theta.csv", "metrics.json", "success.csv"),
    "map": ("tau.csv", "theta.csv", "metrics.json", "trace.csv"),
}
SCENE_FILES = ("scene.json", "radiance.csv", "truth.csv")


@dataclass
class Run:
    """What one workload run measured, and how its operations went."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # end-to-end metric -> (value, how)
    sizes: dict = field(default_factory=dict)
    layers: dict | None = None  # per-layer metrics, traced runs only

    def op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def put(self, name, value, how):
        self.values[name] = (value, how)

    def median(self, name, samples):
        if samples:
            self.put(name, statistics.median(samples), f"median of n={len(samples)}"
                     f" (min {min(samples):.6g}, max {max(samples):.6g})")

    def put_factor(self, clock, factor):
        k = clock.samples
        self.put("reference_speed_factor", factor,
                 f"kernel reference {clock.kernel.ref_s:.6g} s over its mean of n={len(k)}"
                 f" runs (min {min(k):.6g}, max {max(k):.6g} s); times above are wall"
                 " seconds times this factor")

    def guarded(self, label, fn, *args):
        """fn(*args), or None after recording a failed operation if it raised."""
        try:
            return fn(*args)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            self.op(label, [f"raised {type(exc).__name__}: {exc}"])
            return None


def scene_seeds(seed, n):
    return [seed + 1000 * i for i in range(n)]


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def schedule(seconds, n_items, min_rounds):
    """Yield (round, item) over the items in order, round after round.

    Stops once min_rounds rounds are complete and one more item, as long as
    the last, would overrun `seconds`.
    """
    start = time.perf_counter()
    done = 0
    for k in itertools.count():
        for i in range(n_items):
            t0 = time.perf_counter()
            yield k, i
            done += 1
            now = time.perf_counter()
            if done >= min_rounds * n_items and (now - start) + (now - t0) > seconds:
                return


def sizes(P, C, M, K):
    return {"P": P, "C": C, "M": M, "K": K,
            "pred_bytes": P * C * 8, "table_bytes": M * K * C * 8}


def layer_values(tracer, sweeps=0, elapsed_s=0.0, ratios=None):
    """Per-layer metrics of one traced operation.

    ratios maps accept-ratio metric names to useful updates / proposals,
    taken from the solver's own trace.
    """
    s = tracer.summary()

    def secs(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    v = {
        "forward.eval.calls": calls("forward.eval"),
        "forward.eval.s": secs("forward.eval"),
        "forward.eval_batch.calls": calls("forward.eval_batch"),
        "forward.eval_batch.rows": tracer.counts.get("forward.eval_batch.rows", 0),
        "forward.eval_batch.s": secs("forward.eval_batch"),
        "forward.eval_grid.s": secs("forward.eval_grid"),
        "baselines.grid_search_retrieve.s": secs("baselines.grid_search_retrieve"),
        "map_solver.sweeps": sweeps,
        "map_solver.sweep_regions.s": secs("map_solver.sweep_regions"),
        "map_solver.sweep_regions.self_s": s.get("map_solver.sweep_regions", (0, 0.0, 0.0))[2],
        "map_solver.proposal_rng.calls": calls("map_solver.proposal_rng"),
        "map_solver.proposal_rng.s": secs("map_solver.proposal_rng"),
        "map_solver.between_sweeps.s": elapsed_s - tracer.outermost(
            {"map_solver.sweep_regions", "parallel.dispatch"}),
        "map_solver.init_state.s": secs("map_solver.init_state"),
        "model.build_lattice.s": secs("model.build_lattice"),
        "model.log_posterior.calls": calls("model.log_posterior"),
        "model.log_posterior.s": secs("model.log_posterior"),
        "mcmc.accept_rng.calls": calls("mcmc.accept_rng"),
        "mcmc.accept_rng.s": secs("mcmc.accept_rng"),
        "parallel.partition.s": secs("parallel.partition"),
        "parallel.dispatch.s": secs("parallel.dispatch"),
        "simulate.gen_truth.s": secs("simulate.gen_truth"),
        "simulate.render_grid.s": secs("simulate.render_grid"),
        "io.load_scene.s": secs("io.load_scene"),
        "io.load_truth.s": secs("io.load_truth"),
        "io.write.s": secs("io.write"),
        "cli.simulate.s": secs("cli.simulate"),
        "cli.retrieve_grid.s": secs("cli.retrieve_grid"),
        "cli.retrieve_map_parallel.s": secs("cli.retrieve_map_parallel"),
    }
    v.update(ratios or {})
    return v


def median_layers(reps):
    """Per-metric median over traced repetitions (the lower middle one, so
    counts stay whole)."""
    return {k: statistics.median_low(r[k] for r in reps) for k in reps[0]}


# --- map16 and chain16: the library API on the acceptance bench scene ---


@dataclass
class Problem:
    seed: int
    sim: object
    forward: object
    lattice: object
    hyper: object
    init: object


def make_problem(seed, tracer=NULL):
    """Table build, simulated scene, lattice and flat init (the set-up)."""
    table = al.build_synthetic_table(al.default_library(), channels=CHANNELS, knots=KNOTS,
                                     tau_max=6.0, seed=TABLE_SEED)
    fwd = TracedTable(table, tracer) if isinstance(tracer, Tracer) else table
    sim = al.make_sim_scene(fwd, SIDE, SIDE, smoothness=2.0, sparsity="dense", seed=seed)
    lattice = tracer.call("model.build_lattice", al.build_lattice, SIDE, SIDE)
    hyper = al.HyperParams.uniform(table.n_components)
    init = tracer.call("map_solver.init_state", al.init_state, sim.scene, fwd, "flat", hyper)
    return Problem(seed, sim, fwd, lattice, hyper, init)


@dataclass
class Solved:
    tau: object
    fingerprint: tuple
    trace: object
    problems: list


def _state_problems(state, hyper):
    try:
        al.validate_state(state, hyper)
    except ValueError as exc:
        return [f"invalid state: {exc}"]
    return []


def solve_map(pb):
    """run_map to convergence; checks the greedy-ascent contract."""
    config = al.SolverConfig(hyper=pb.hyper, seed=pb.seed, epsilon_rel=EPS_REL)
    state, trace = al.run_map(pb.sim.scene, pb.forward, pb.lattice, config, pb.init)
    lp = [trace.initial_log_posterior, *trace.log_posterior]
    problems = _state_problems(state, pb.hyper)
    if any(b < a for a, b in zip(lp, lp[1:])):
        problems.append("greedy trace decreased")
    if not trace.converged:
        problems.append(f"not converged after {trace.sweeps} sweeps")
    if not math.isfinite(trace.final_log_posterior):
        problems.append("final log-posterior is not finite")
    fp = (state.tau.tobytes(), state.theta.tobytes(), tuple(trace.log_posterior))
    return Solved(state.tau, fp, trace, problems)


def solve_chain(pb):
    """run_mcmc for a fixed number of sweeps."""
    config = al.McmcConfig(hyper=pb.hyper, iterations=CHAIN_SWEEPS, burn_in=CHAIN_BURN_IN,
                           thin=CHAIN_THIN, seed=pb.seed)
    state, tau_std, trace = al.run_mcmc(pb.sim.scene, pb.forward, pb.lattice, config, pb.init)
    problems = _state_problems(state, pb.hyper)
    if not (all(math.isfinite(x) for x in tau_std) and tau_std.min() >= 0.0):
        problems.append("tau_std not finite and >= 0")
    P = pb.lattice.n_regions
    if any(not 0 <= a <= P for a in trace.tau_accepts + trace.theta_accepts):
        problems.append("accept rate outside [0, 1]")
    fp = (state.tau.tobytes(), state.theta.tobytes(), tau_std.tobytes(),
          tuple(trace.log_posterior))
    return Solved(state.tau, fp, trace, problems)


LIBRARY = {"map16": (MAP16_SCENES, solve_map, "map_solver"),
           "chain16": (CHAIN16_SCENES, solve_chain, "mcmc")}


def _accept_ratios(solver, tau_ratio, theta_ratio):
    return {f"{solver}.tau_accept_ratio": tau_ratio, f"{solver}.theta_accept_ratio": theta_ratio}


def run_library(name, seed, seconds, traced, work):
    n_scenes, solve, solver = LIBRARY[name]
    seeds = scene_seeds(seed, n_scenes)
    run = Run(sizes=sizes(SIDE * SIDE, CHANNELS, 8, KNOTS))
    P = SIDE * SIDE
    if traced:
        return _traced_library(run, name, seeds[0], seconds, work, solve, solver)
    # Each scene is set up just before its first solve, so the set-up
    # samples spread over the run like the solves do.
    clock = RefClock(SOLVER)
    problems, setup = [], []
    times = [[] for _ in seeds]
    first = {}  # scene -> (fingerprint, sweeps, rmse) of its first solve
    for k, i in schedule(seconds, len(seeds), min_rounds=1):
        if k == 0:
            t, pb = clock.timed(make_problem, seeds[i])
            setup.append(t)
            problems.append(pb)
        pb = problems[i]
        label = f"{name} scene seed {pb.seed} round {k}"
        res = run.guarded(label, clock.timed, solve, pb)
        if res is None:
            continue
        t, out = res
        rmse = al.compute_metrics(out.tau, pb.sim.truth_tau).rmse
        ref = first.setdefault(i, (out.fingerprint, out.trace.sweeps, rmse))
        run.op(label, out.problems + (
            ["result differs from the first solve"] if ref[0] != out.fingerprint else []))
        times[i].append(t)
    scale = clock.factor()
    run.median("setup_s", [t * scale for t in setup])
    # Sweeps to converge differ by scene (17 to 48 at 16 x 16), so the
    # median of repeated solves of one scene is averaged over the scenes.
    if first:
        per_scene = [scale * statistics.median(times[i]) for i in first]
        n = len(per_scene)
        counts = sorted({len(times[i]) for i in first})
        how = f"over {n} scenes of each scene's median of {'/'.join(map(str, counts))} solves"
        run.put("solve_s", statistics.fmean(per_scene), "mean " + how)
        run.put("region_sweeps_per_s", P * sum(f[1] for f in first.values()) / sum(per_scene),
                "total " + how)
        run.put("tau_rmse", statistics.fmean(f[2] for f in first.values()),
                f"mean over {n} scenes")
    run.put_factor(clock, scale)
    return run


def _traced_library(run, name, seed, seconds, work, solve, solver):
    """Alternate untraced and traced solves of scene 0; per-layer medians."""
    P = SIDE * SIDE
    pb = make_problem(seed)
    untraced, traced, reps = [], [], []
    ref = None
    tracer = None
    for k, _ in schedule(seconds, 1, min_rounds=3):
        res = run.guarded(f"{name} untraced {k}", timed, solve, pb)
        if res is not None:
            t, out = res
            ref = ref or out.fingerprint
            run.op(f"{name} untraced {k}", out.problems + (
                ["result differs between repetitions"] if out.fingerprint != ref else []))
            untraced.append(t)
        tracer = Tracer()

        def traced_op():
            with instrument(tracer):
                tpb = make_problem(seed, tracer)
                return timed(solve, tpb)

        res = run.guarded(f"{name} traced {k}", traced_op)
        if res is None:
            continue
        t, out = res
        run.op(f"{name} traced {k}", out.problems + (
            ["traced result differs from untraced"] if out.fingerprint != ref else []))
        traced.append(t)
        tr = out.trace
        ratio = (sum(tr.tau_accepts) / (P * tr.sweeps), sum(tr.theta_accepts) / (P * tr.sweeps))
        reps.append(layer_values(tracer, tr.sweeps, sum(tr.elapsed_ms) / 1000.0,
                                 _accept_ratios(solver, *ratio)))
    if tracer is not None:
        tracer.write(work / f"spans-{name}.csv")
    if reps and untraced:
        run.layers = median_layers(reps)
        run.layers["bench.trace_overhead_s"] = (statistics.median(traced)
                                                - statistics.median(untraced))
    return run


# --- pipeline128: simulate -> retrieve grid -> retrieve map-parallel via the CLI ---


def cli_main(argv):
    """aodlattice.cli.main with its progress line kept off the report."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main([str(a) for a in argv])


def _files(directory, names):
    out = {}
    for n in names:
        data = (directory / n).read_bytes()
        if n == "trace.csv":  # drop the elapsed_ms column, the only wall-time field
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        out[n] = data
    return out


def _differs(a, b):
    return [f"{n} differs" for n in a if a[n] != b.get(n)]


def _dir_bytes(directory):
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def _sweep_ms(directory):
    rows = (directory / "speedup.csv").read_text().splitlines()[1:]
    return [float(r.split(",")[2]) for r in rows]


class Pipeline:
    """One run's scene and retrieval commands under a work directory."""

    def __init__(self, run, seed, work, timer=timed):
        self.run = run
        self.timer = timer
        self.seed = seed
        self.work = work
        self.scene = work / "scene0"  # the scene of the run's own seed

    def simulate(self, out, seed, tracer=NULL, ref=None):
        """One simulate command; returns seconds or None. With ref, the
        scene must equal the one in directory ref byte for byte."""
        label = f"simulate seed {seed} -> {out.name}"
        argv = ["simulate", *PIPE_SIM, "--set", f"run.seed={seed}", "--out", out]
        res = self.run.guarded(label, self.timer, tracer.call, "cli.simulate", cli_main, argv)
        if res is None:
            return None
        t, code = res
        bad = [f"exit code {code}"] if code != 0 else []
        if not bad and ref is not None:
            bad = _differs(_files(out, SCENE_FILES), _files(ref, SCENE_FILES))
        self.run.op(label, bad)
        return t if not bad else None

    def retrieve(self, method, scene, seed, out, extra=(), tracer=NULL, span=None, ref=None):
        """One retrieve command; returns (seconds, compared files) or None."""
        label = f"retrieve {method} -> {out.parent.name}/{out.name}"
        argv = ["retrieve", "--scene", scene, "--method", method, "--set", f"run.seed={seed}",
                *extra, "--out", out]
        res = self.run.guarded(label, self.timer, tracer.call, span, cli_main, argv)
        if res is None:
            return None
        t, code = res
        if code != 0:
            self.run.op(label, [f"exit code {code}"])
            return None
        kind = "grid" if method == "grid" else "map"
        got = _files(out, PIPE_COMPARED[kind])
        bad = _differs(got, ref) if ref is not None else []
        if not math.isfinite(json.loads(got["metrics.json"])["rmse"]):
            bad.append("rmse is not finite")
        self.run.op(label, bad)
        return (t, got) if not bad else None

    def solve_round(self, pdir, scene, seed, tracer=NULL, ref=None):
        """grid then map-parallel; returns (seconds, {kind: files}) or None."""
        ref = ref or {}
        g = self.retrieve("grid", scene, seed, pdir / "grid", (), tracer, "cli.retrieve_grid",
                          ref.get("grid"))
        m = self.retrieve("map-parallel", scene, seed, pdir / "map", PIPE_PARALLEL, tracer,
                          "cli.retrieve_map_parallel", ref.get("map"))
        if g is None or m is None:
            return None
        return g[0] + m[0], {"grid": g[1], "map": m[1]}


def _map_trace(mdir):
    """(sweeps, tau accept ratio, theta accept ratio, sweep seconds) from trace.csv."""
    rows = [r.split(",") for r in (mdir / "trace.csv").read_text().splitlines()[1:]]
    n = len(rows)
    return (n, sum(float(r[2]) for r in rows) / n, sum(float(r[3]) for r in rows) / n,
            sum(float(r[5]) for r in rows) / 1000.0)


def run_pipeline(seed, seconds, traced, work):
    P = PIPE_SIDE * PIPE_SIDE
    run = Run(sizes=sizes(P, CHANNELS, 8, KNOTS))
    work = work / "pipeline128"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if traced:
            _traced_pipeline(run, Pipeline(run, seed, work), seconds)
        else:
            # few, long operations: more kernel samples around each
            clock = RefClock(PIPELINE, reps=3)
            _untraced_pipeline(run, Pipeline(run, seed, work, clock.timed), seconds, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def _untraced_pipeline(run, pipe, seconds, clock):
    P = PIPE_SIDE * PIPE_SIDE
    setup, solve, sweep_ms, rmse = [], [], [], []
    # Round k simulates and retrieves its own scene, seed s + 1000 k. One
    # scene's grid error follows its mean AOD (IQR/median 0.13 over 12
    # seeds), so tau_rmse averages the first PIPE_MIN_ROUNDS scenes. The
    # traced run checks that repeated commands give identical files.
    for k, _ in schedule(seconds, 1, min_rounds=PIPE_MIN_ROUNDS):
        scene_seed = pipe.seed + 1000 * k
        sdir, pdir = pipe.work / f"scene{k}", pipe.work / f"round{k}"
        t = pipe.simulate(sdir, scene_seed)
        if t is None:
            continue
        setup.append(t)
        res = pipe.solve_round(pdir, sdir, scene_seed)
        if res is not None:
            t, files = res
            solve.append(t)
            sweep_ms += _sweep_ms(pdir / "map")
            if k < PIPE_MIN_ROUNDS:
                rmse.append({kind: json.loads(files[kind]["metrics.json"])["rmse"]
                             for kind in files})
        shutil.rmtree(sdir)
        shutil.rmtree(pdir, ignore_errors=True)
    if rmse:
        # The 2-sweep map-parallel field is far from converged: its error
        # follows the gap between the flat start and the scene's mean AOD.
        # The grid retrieval is complete.
        mean = {kind: statistics.fmean(r[kind] for r in rmse) for kind in rmse[0]}
        run.put("tau_rmse", mean["grid"], f"grid retrieval, mean over {len(rmse)} scenes"
                f" (map-parallel after {PIPE_MAX_SWEEPS} sweeps: {mean['map']:.6g})")
    scale = clock.factor()
    run.median("setup_s", [t * scale for t in setup])
    run.median("solve_s", [t * scale for t in solve])
    if sweep_ms:
        # two sweeps a round: pooled over the run, not a median of few rates
        run.put("region_sweeps_per_s", P * len(sweep_ms) / (scale * sum(sweep_ms) / 1000.0),
                f"total over n={len(sweep_ms)} map-parallel sweeps")
    run.put_factor(clock, scale)


def _traced_pipeline(run, pipe, seconds):
    """A reference round, traced and untraced rounds in turn, then the
    single-process baseline. The reference round also warms the caches, so
    the overhead compares rounds that both start warm."""
    work, scene, seed = pipe.work, pipe.scene, pipe.seed
    if pipe.simulate(scene, seed) is None:
        return
    scene_bytes = [(scene / n).stat().st_size for n in SCENE_FILES]
    res = pipe.solve_round(work / "reference", scene, seed)
    if res is None:
        return
    ref = res[1]
    untraced, traced, reps, parallel_ms = [], [], [], []
    tracer = None
    for k, _ in schedule(seconds, 1, min_rounds=1):
        tracer = Tracer()
        tdir = work / f"traced{k}"
        with instrument(tracer):
            pipe.simulate(tdir / "scene", seed, tracer, ref=scene)
            res = pipe.solve_round(tdir, scene, seed, tracer, ref)
        if res is not None:
            traced.append(res[0])
            sweeps, tau_ratio, theta_ratio, sweep_s = _map_trace(tdir / "map")
            success = (tdir / "grid" / "success.csv").read_text().split()
            v = layer_values(tracer, sweeps, sweep_s,
                             _accept_ratios("map_solver", tau_ratio, theta_ratio))
            calls = tracer.summary()
            v["baselines.grid_success_ratio"] = sum(float(x) for x in success) / len(success)
            v["io.bytes_written"] = _dir_bytes(tdir)
            v["io.bytes_read"] = (calls["io.load_scene"][0] * sum(scene_bytes[:2])
                                  + calls["io.load_truth"][0] * scene_bytes[2])
            reps.append(v)
        shutil.rmtree(tdir, ignore_errors=True)
        udir = work / f"untraced{k}"
        res = pipe.solve_round(udir, scene, seed, ref=ref)
        if res is not None:
            untraced.append(res[0])
            parallel_ms += _sweep_ms(udir / "map")
        shutil.rmtree(udir, ignore_errors=True)
    res = pipe.retrieve("map-parallel", scene, seed, work / "serial" / "map", PIPE_SERIAL)
    if tracer is not None:
        tracer.write(work.parent / "spans-pipeline128.csv")
    if res is None or not reps or not untraced:
        return
    serial_ms = statistics.median(_sweep_ms(work / "serial" / "map"))
    parallel_p50 = statistics.median(parallel_ms)
    run.layers = median_layers(reps)
    run.layers.update({
        "parallel.sweep_ms_p50": parallel_p50,
        "parallel.serial_sweep_ms_p50": serial_ms,
        "parallel.speedup": serial_ms / parallel_p50,
        "bench.trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
    })


WORKLOADS = {
    "map16": functools.partial(run_library, "map16"),
    "chain16": functools.partial(run_library, "chain16"),
    "pipeline128": run_pipeline,
}
