"""Identical-outputs check: one sha256 line per public-API run.

Runs the solvers, the baselines, the closed-form updates, the deltas, the
patch-parallel scheduler and the CLI pipeline on small fixed scenes, and
prints `<run name> <sha256 of its outputs>` per run, then a combined
digest of all lines.  Each CLI run also gets a `.manifest` line hashing
manifest.json's `config` and `config_hash`.  Wall times and versions are
left out of every hash.  Two source trees compute the same numbers, and
record the same resolved config, exactly when every line matches:

    PYTHONPATH=<tree>/src python3 tools/fingerprint.py > <tree>.txt
    diff parent.txt change.txt

Only long-standing public API is called (no optional argument a refactor
might remove), so the script runs unchanged on both sides of a change.
It is not a test: a change that reorders floating-point work may change
bits on purpose.  It takes about two seconds on 2 cores; its patch runs
start at most four threads.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np

import aodlattice as al
from aodlattice import cli, io
from aodlattice.mcmc import toy_tau_chain
from aodlattice.model import floor_simplex

LINES: list[str] = []


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        _feed(h, sorted(obj.items()))
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, al.RetrievalState):
        _feed(h, (obj.tau, obj.theta, obj.sigma2, obj.kappa))
    elif isinstance(obj, al.SweepTrace):
        _feed(h, (obj.log_posterior, obj.tau_accepts, obj.theta_accepts, obj.kappa,
                  obj.converged, obj.epsilon, obj.initial_log_posterior,
                  obj.final_log_posterior))
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(obj).encode())


def emit(name: str, *outputs) -> None:
    h = hashlib.sha256()
    _feed(h, outputs)
    LINES.append(f"{name} {h.hexdigest()}")
    print(LINES[-1], flush=True)


def _lib_runs() -> None:
    small = al.build_synthetic_table(al.default_library(), channels=12, knots=13,
                                     tau_max=6.0, seed=0)
    sim = al.make_sim_scene(small, 10, 10, noise_level=0.1, seed=7)
    scene = sim.scene
    lat = al.build_lattice(scene.width, scene.height)
    hyper = al.HyperParams.uniform(small.n_components)
    cfg = al.SolverConfig(hyper=hyper, seed=7, epsilon_rel=3e-3)

    rng = np.random.default_rng(5)
    emit("floor_simplex", floor_simplex(rng.dirichlet(np.full(8, 0.05), size=50)))
    flat = al.init_state(scene, small, "flat", hyper=hyper)
    rand = al.init_state(scene, small, "random", hyper=hyper, seed=3)
    coarse = al.init_state(scene, small, "coarse_grid", hyper=hyper)
    emit("init_state.flat", flat)
    emit("init_state.random", rand)
    emit("init_state.coarse_grid", coarse)
    emit("update_kappa", al.update_kappa(rand, lat), al.update_kappa(flat, lat))
    emit("update_sigma", al.update_sigma(rand, scene, small))
    emit("log_posterior_terms", al.log_posterior_terms(scene, rand, hyper, small))
    theta_new = floor_simplex(rng.dirichlet(np.ones(small.n_components), size=lat.n_regions))
    emit("delta_log_posterior_tau",
         [al.delta_log_posterior_tau(rand, scene, lat, small, p, 0.3 + 0.01 * p)
          for p in range(lat.n_regions)])
    emit("delta_log_posterior_theta",
         [al.delta_log_posterior_theta(rand, scene, lat, small, p, theta_new[p], hyper)
          for p in range(lat.n_regions)])

    gcfg = al.GridSearchConfig.defaults(small, scene)
    emit("grid_search_retrieve", al.grid_search_retrieve(scene, small, gcfg))
    emit("grid_search_retrieve.inf_threshold",
         al.grid_search_retrieve(scene, small, replace(gcfg, success_threshold=np.inf)))

    emit("run_map.flat", al.run_map(scene, small, lat, cfg, flat))
    emit("run_map.coarse_grid", al.run_map(scene, small, lat, cfg, coarse))
    emit("run_map.random", al.run_map(scene, small, lat, cfg, rand))
    mcfg = al.McmcConfig(hyper=hyper, iterations=30, burn_in=10, thin=2, seed=7)
    emit("run_mcmc", al.run_mcmc(scene, small, lat, mcfg, flat))
    emit("mh_sweep.mh", al.mh_sweep(flat, scene, small, lat, mcfg, sweep=2))
    emit("mh_sweep.greedy", al.mh_sweep(flat, scene, small, lat, mcfg, sweep=2, greedy=True))
    # theta rows near the simplex corners push the Gamma shapes to their floor
    sparse = al.RetrievalState(tau=rand.tau, theta=floor_simplex(
        rng.dirichlet(np.full(small.n_components, 0.01), size=lat.n_regions)),
        sigma2=rand.sigma2, kappa=rand.kappa)
    emit("mh_sweep.sparse_theta", al.mh_sweep(sparse, scene, small, lat, mcfg, sweep=4),
         al.mh_sweep(sparse, scene, small, lat, mcfg, sweep=4, greedy=True))
    clean = al.make_sim_scene(small, 10, 10, seed=7)
    truth = al.RetrievalState(tau=clean.truth_tau, theta=clean.truth_theta,
                              sigma2=np.ones(small.n_channels), kappa=1.0)
    emit("update_sigma.perfect_fit", al.update_sigma(truth, clean.scene, small))
    for executor in ("serial", "thread", "process"):
        for n in (1, 2, 4):
            for eps_name, run_cfg in (("fixed", replace(cfg, epsilon=1e-9, max_sweeps=6)),
                                      ("relative", replace(cfg, max_sweeps=12))):
                state, trace, _ = al.run_map_parallel(scene, small, lat, run_cfg, n, flat,
                                                      executor=executor)
                emit(f"run_map_parallel.{executor}.{n}.{eps_name}", state, trace,
                     [(n, sweep) for sweep in range(1, trace.sweeps + 1)])
    stab = al.stability_bounds(scene, small, lat, replace(cfg, max_sweeps=40), 3,
                               seeds=[1, 2, 3])
    emit("stability_bounds", stab.mean, stab.std, stab.n_used, stab.excluded_seeds)

    def log_target(x):
        return -0.5 * ((np.asarray(x) - 0.4) / 0.15) ** 2

    emit("toy_tau_chain", toy_tau_chain(log_target, 0.55, 0.18, n_samples=20_000, seed=3,
                                        lo=0.0, hi=6.0, warmup=1_000))


def _bench_run() -> None:
    table36 = al.build_synthetic_table(al.default_library(), channels=36, knots=25,
                                       tau_max=6.0, seed=0)
    sim = al.make_sim_scene(table36, 16, 16, seed=7)
    lat = al.build_lattice(16, 16)
    hyper = al.HyperParams.uniform(8)
    cfg = al.SolverConfig(hyper=hyper, seed=7, epsilon_rel=3e-3)
    init = al.init_state(sim.scene, table36, "flat", hyper=hyper)
    emit("run_map.bench16", al.run_map(sim.scene, table36, lat, cfg, init))


def _multi_block_runs() -> None:
    """A 48 x 48 scene: 2304 rows, so a full-lattice eval_batch and the grid
    search each run over several row blocks.  The grid run's threshold, three
    times the default, clears about half of the noisy regions, so both the
    clearing means and the failing argmin are covered."""
    table36 = al.build_synthetic_table(al.default_library(), channels=36, knots=25,
                                       tau_max=6.0, seed=0)
    scene = al.make_sim_scene(table36, 48, 48, noise_level=0.1, seed=7).scene
    lat = al.build_lattice(48, 48)
    hyper = al.HyperParams.uniform(8)
    cfg = al.SolverConfig(hyper=hyper, seed=7, epsilon=1e-9, max_sweeps=3)
    flat = al.init_state(scene, table36, "flat", hyper=hyper)
    rand = al.init_state(scene, table36, "random", hyper=hyper, seed=3)
    emit("init_state.flat.48", flat)
    emit("init_state.random.48", rand)
    gcfg = al.GridSearchConfig.defaults(table36, scene)
    emit("grid_search_retrieve.partial.48", al.grid_search_retrieve(
        scene, table36, replace(gcfg, success_threshold=3.0 * gcfg.success_threshold)))
    emit("run_map.flat.48", al.run_map(scene, table36, lat, cfg, flat))
    state, trace, _ = al.run_map_parallel(scene, table36, lat, cfg, 2, rand)
    emit("run_map_parallel.random.48", state, trace)


def _file_digest(path: Path):
    """File bytes, minus the columns that hold wall times."""
    if path.name == "manifest.json":
        return None
    text = path.read_bytes()
    if path.name in ("trace.csv", "speedup.csv"):
        text = b"\n".join(line.rsplit(b",", 1)[0] for line in text.splitlines())
    return text


def _manifest_config(directory: Path):
    """manifest.json's resolved config and its hash, without the timings and
    versions that vary run to run."""
    manifest = json.loads((directory / "manifest.json").read_text())
    return manifest["config"], manifest["config_hash"]


def _quiet_cli(argv) -> int:
    # the commands print temporary paths, which would differ run to run
    with redirect_stdout(StringIO()):
        return cli.main(argv)


def _cli_runs() -> None:
    small = ["--set", "scene.width=8", "--set", "scene.height=8", "--set", "scene.channels=12",
             "--set", "table.knots=13", "--set", "solver.epsilon_rel=3e-3",
             "--set", "noise.level=0.2", "--set", "run.seed=5"]
    runs = {
        "grid": [],
        "map": ["--set", "solver.init=coarse_grid"],
        "map-parallel": ["--set", "parallel.patches=2"],
        "mcmc": ["--set", "mcmc.iterations=20", "--set", "mcmc.burn_in=5",
                 "--set", "mcmc.dump_samples=true"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir = Path(tmp) / "scene"
        if _quiet_cli(["simulate", *small, "--out", str(scene_dir)]) != 0:
            raise SystemExit("simulate failed")
        emit("cli.simulate", [(p.name, _file_digest(p)) for p in sorted(scene_dir.iterdir())])
        emit("cli.simulate.manifest", *_manifest_config(scene_dir))
        for method, extra in runs.items():
            out = Path(tmp) / method
            argv = ["retrieve", "--scene", str(scene_dir), "--method", method,
                    *small, *extra, "--out", str(out)]
            if _quiet_cli(argv) != 0:
                raise SystemExit(f"retrieve --method {method} failed")
            emit(f"cli.retrieve.{method}",
                 [(p.name, _file_digest(p)) for p in sorted(out.iterdir())])
            emit(f"cli.retrieve.{method}.manifest", *_manifest_config(out))
        loaded, _, _ = io.load_scene(scene_dir)
        emit("io.load_scene", loaded.radiance, loaded.channel_mask, loaded.region_size_km)


def main() -> int:
    _lib_runs()
    _bench_run()
    _multi_block_runs()
    _cli_runs()
    combined = hashlib.sha256("\n".join(LINES).encode()).hexdigest()
    print(f"combined {combined} ({len(LINES)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
