"""Command-line pipelines: simulate scenes, run retrievals, benchmark scaling.

Configuration is a flat INI file (sections of key = value) merged over
built-in defaults, with individual keys overridable on the command line
via --set section.key=value.  All randomness flows from the single
[run] seed key.  Exit codes: 0 success, 2 input/config error, 3 runtime
solver error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .baselines import GridSearchConfig, compute_metrics, grid_search_retrieve
from .forward import build_synthetic_table, default_library, load_library
from .map_solver import SolverConfig, init_state, run_map
from .mcmc import McmcConfig, run_mcmc
from .model import ConfigurationError, HyperParams, InitializationError, build_lattice
from .parallel import check_executor, partition, run_map_parallel
from .simulate import add_noise, gen_truth, render_grid

DEFAULTS = {
    "run": {"seed": "0"},
    "scene": {"width": "16", "height": "16", "channels": "36", "region_size_km": "4.4"},
    "components": {"library": "default"},
    "table": {"knots": "25", "tau_max": "6.0"},
    "truth": {
        "smoothness": "2.0",
        "sparsity": "dense",
        "tau_lo": "0.05",
        "tau_hi": "0.6",
        "blob_size": "4",
    },
    "noise": {"level": "0.0"},
    "solver": {
        "delta": "0.05",
        "epsilon": "",
        "epsilon_rel": "1e-4",
        "max_sweeps": "200",
        "alpha": "1.0",
        "tau_max": "6.0",
        "init": "flat",
    },
    "mcmc": {"iterations": "1000", "burn_in": "200", "thin": "5", "dump_samples": "false"},
    "grid": {"tau_levels": "13", "success_threshold": ""},
    "parallel": {"patches": "1", "executor": "serial"},
}

_KEY_DOC = """configuration keys (section.key = default):
  run.seed = 0                 master seed; all randomness derives from it
  scene.width/height = 16      simulated lattice dimensions
  scene.channels = 36          channels rendered by the synthetic table
  scene.region_size_km = 4.4   metadata carried through the scene files
  components.library = default component library JSON path, or "default"
  table.knots = 25             AOD knots of the synthetic lookup table
  table.tau_max = 6.0          AOD range of the table
  truth.smoothness = 2.0       box-smoothing half-width of the truth AOD field
  truth.sparsity = dense       dense | sparse composition truth
  truth.tau_lo/tau_hi          truth AOD range (0.05 / 0.6)
  truth.blob_size = 4          side of constant-composition tiles (1 = iid)
  noise.level = 0.0            relative noise std applied to observations
  solver.delta = 0.05          AOD proposal width
  solver.epsilon =             absolute stop threshold (empty = relative rule)
  solver.epsilon_rel = 1e-4    relative stop threshold on the first sweep
  solver.max_sweeps = 200      sweep cap
  solver.alpha = 1.0           symmetric Dirichlet concentration of the prior
  solver.tau_max = 6.0         AOD bound of the retrieval
  solver.init = flat           flat | coarse_grid | random initialization
  mcmc.iterations = 1000       chain length (sweeps)
  mcmc.burn_in = 200           discarded prefix
  mcmc.thin = 5                retain every thin-th sweep
  mcmc.dump_samples = false    also write thinned tau samples as CSV
  grid.tau_levels = 13         AOD levels of the grid-search baseline
  grid.success_threshold =     misfit threshold (empty = channel count)
  parallel.patches = 1         patch count for map-parallel / benchmark
  parallel.executor = serial   serial | thread | process: accepted, has no effect
"""


def load_config(path, overrides):
    """Merge defaults, the INI file (optional) and --set overrides."""
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        if not Path(path).exists():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc
    for item in overrides or []:
        try:
            key, value = item.split("=", 1)
            section, option = key.strip().split(".", 1)
        except ValueError:
            raise ConfigurationError(
                f"override must look like section.key=value, got {item!r}"
            )
        if not parser.has_section(section):
            raise ConfigurationError(f"unknown config section: {section}")
        if option not in DEFAULTS.get(section, {}):
            raise ConfigurationError(f"unknown config key: {section}.{option}")
        parser.set(section, option.strip(), value.strip())
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for section in cfg:
        unknown = set(cfg[section]) - set(DEFAULTS.get(section, {}))
        if section not in DEFAULTS:
            raise ConfigurationError(f"unknown config section: {section}")
        if unknown:
            raise ConfigurationError(
                f"unknown config keys in [{section}]: {sorted(unknown)}"
            )
    return cfg


def _geti(cfg, sec, key):
    try:
        return int(cfg[sec][key])
    except ValueError as exc:
        raise ConfigurationError(f"[{sec}] {key}: expected integer, got {cfg[sec][key]!r}") from exc


def _getf(cfg, sec, key):
    try:
        return float(cfg[sec][key])
    except ValueError as exc:
        raise ConfigurationError(f"[{sec}] {key}: expected number, got {cfg[sec][key]!r}") from exc


def _getf_optional(cfg, sec, key):
    """A number, or None for an empty value."""
    return _getf(cfg, sec, key) if cfg[sec][key].strip() else None


def _getb(cfg, sec, key):
    word = cfg[sec][key].strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigurationError(f"[{sec}] {key}: expected 1/yes/true/on or 0/no/false/off, "
                                 f"got {cfg[sec][key]!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _library(cfg):
    spec = cfg["components"]["library"]
    return default_library() if spec == "default" else load_library(spec)


def _table(cfg, library):
    return build_synthetic_table(
        library,
        channels=_geti(cfg, "scene", "channels"),
        knots=_geti(cfg, "table", "knots"),
        tau_max=_getf(cfg, "table", "tau_max"),
        seed=_geti(cfg, "run", "seed"),
    )


def _solver_config(cfg, n_components):
    alpha = _getf(cfg, "solver", "alpha")
    hyper = HyperParams.dirichlet(n_components, alpha, tau_max=_getf(cfg, "solver", "tau_max"))
    config = SolverConfig(
        hyper=hyper,
        delta=_getf(cfg, "solver", "delta"),
        epsilon=_getf_optional(cfg, "solver", "epsilon"),
        epsilon_rel=_getf(cfg, "solver", "epsilon_rel"),
        max_sweeps=_geti(cfg, "solver", "max_sweeps"),
        seed=_geti(cfg, "run", "seed"),
    )
    config.validate()
    return config


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    t0 = time.perf_counter()
    library = _library(cfg)
    table = _table(cfg, library)
    width = _geti(cfg, "scene", "width")
    height = _geti(cfg, "scene", "height")
    seed = _geti(cfg, "run", "seed")
    tau, theta = gen_truth(
        width,
        height,
        library.n_components,
        smoothness=_getf(cfg, "truth", "smoothness"),
        sparsity=cfg["truth"]["sparsity"],
        seed=seed,
        tau_range=(_getf(cfg, "truth", "tau_lo"), _getf(cfg, "truth", "tau_hi")),
        blob_size=_geti(cfg, "truth", "blob_size"),
    )
    clean = render_grid(tau, theta, table, width, height, _getf(cfg, "scene", "region_size_km"))
    level = _getf(cfg, "noise", "level")
    scene = add_noise(clean, level, seed)
    scene.validate()
    out = Path(args.out)
    io.save_scene(
        out, scene, library,
        {"knots": _geti(cfg, "table", "knots"), "tau_max": _getf(cfg, "table", "tau_max"),
         "seed": seed},
        noise_level=level,
    )
    io.save_truth(out, tau, theta)
    io.write_manifest(
        out / "manifest.json", cfg, seed,
        {"simulate": (time.perf_counter() - t0) * 1000.0},
    )
    print(f"wrote scene {width}x{height} (noise {level}) to {out}")
    return 0


def cmd_retrieve(args) -> int:
    """Run one retrieval method; the output directory is created only once
    every result, metrics included, has been computed."""
    cfg = load_config(args.config, args.set)
    t0 = time.perf_counter()
    scene, library, table = io.load_scene(args.scene)
    lattice = build_lattice(scene.width, scene.height)
    solver_cfg = _solver_config(cfg, library.n_components)
    if args.method == "map-parallel":
        # checked before init_state, which may run a full grid search
        partition(lattice, _geti(cfg, "parallel", "patches"))
        check_executor(cfg["parallel"]["executor"])
    trace = None
    matrices = {}  # method-specific CSV outputs
    if args.method == "grid":
        gcfg = GridSearchConfig.defaults(
            table, scene,
            n_tau_levels=_geti(cfg, "grid", "tau_levels"),
            success_threshold=_getf_optional(cfg, "grid", "success_threshold"),
        )
        tau, theta, success = grid_search_retrieve(scene, table, gcfg)
        matrices["success.csv"] = success.astype(float).reshape(-1, 1)
    else:
        init = init_state(
            scene, table, cfg["solver"]["init"], solver_cfg.hyper,
            seed=solver_cfg.seed, lattice=lattice,
        )
        if args.method == "map":
            state, trace = run_map(scene, table, lattice, solver_cfg, init)
        elif args.method == "map-parallel":
            state, trace, part = run_map_parallel(
                scene, table, lattice, solver_cfg,
                _geti(cfg, "parallel", "patches"), init,
                executor=cfg["parallel"]["executor"],
            )
        elif args.method == "mcmc":
            mcfg = McmcConfig(
                hyper=solver_cfg.hyper,
                iterations=_geti(cfg, "mcmc", "iterations"),
                burn_in=_geti(cfg, "mcmc", "burn_in"),
                thin=_geti(cfg, "mcmc", "thin"),
                delta=solver_cfg.delta,
                seed=solver_cfg.seed,
            )
            samples = [] if _getb(cfg, "mcmc", "dump_samples") else None
            sink = (lambda sweep, tau: samples.append(tau)) if samples is not None else None
            state, tau_std, trace = run_mcmc(scene, table, lattice, mcfg, init, sample_sink=sink)
            matrices["tau_std.csv"] = tau_std.reshape(-1, 1)
            if samples is not None:
                matrices["tau_samples.csv"] = np.asarray(samples)
        else:
            raise ConfigurationError(f"unknown method: {args.method}")
        tau, theta = state.tau, state.theta
    truth = io.load_truth(args.scene)
    report = None if truth is None else compute_metrics(tau, truth[0])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        io.write_matrix_csv(out / name, matrix)
    if args.method == "map-parallel":
        io.save_speedup(out / "speedup.csv", [(part.n_patches, trace)])
    io.write_matrix_csv(out / "tau.csv", tau.reshape(-1, 1))
    io.write_matrix_csv(out / "theta.csv", theta)
    if trace is not None:
        io.save_trace(out / "trace.csv", trace)
    if report is not None:
        io.save_metrics(out / "metrics.json", report)
        io.write_matrix_csv(out / "error.csv", report.per_region_error.reshape(-1, 1))
    io.write_manifest(
        out / "manifest.json", cfg, solver_cfg.seed,
        {"retrieve": (time.perf_counter() - t0) * 1000.0},
    )
    note = f", rmse {report.rmse:.4g}" if report is not None else ""
    print(f"{args.method} retrieval of {args.scene} -> {out}{note}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config, args.set)
    scene, library, table = io.load_scene(args.scene)
    lattice = build_lattice(scene.width, scene.height)
    solver_cfg = _solver_config(cfg, library.n_components)
    try:
        patch_counts = [int(x) for x in args.patches.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigurationError(
            f"--patches: expected a comma list of integers, got {args.patches!r}"
        ) from exc
    if not patch_counts:
        raise ConfigurationError("empty patch count list")
    if len(set(patch_counts)) < len(patch_counts):
        raise ConfigurationError(f"repeated patch count in {args.patches!r}")
    for n in patch_counts:
        partition(lattice, n)  # range check before the first run
    check_executor(cfg["parallel"]["executor"])
    init = init_state(scene, table, cfg["solver"]["init"], solver_cfg.hyper,
                      seed=solver_cfg.seed, lattice=lattice)
    runs = []
    timings = {}
    for n in patch_counts:
        _, trace, _ = run_map_parallel(
            scene, table, lattice, solver_cfg, n, init,
            executor=cfg["parallel"]["executor"],
        )
        runs.append((n, trace))
        total_ms = float(sum(trace.elapsed_ms))
        timings[f"patches_{n}"] = total_ms
        print(f"patches={n}: {trace.sweeps} sweeps, {total_ms:.1f} ms total")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.save_speedup(out / "speedup.csv", runs)
    io.write_manifest(out / "manifest.json", cfg, solver_cfg.seed, timings)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aodlattice",
        description="Bayesian lattice AOD retrieval: simulate, retrieve, benchmark.",
        epilog=_KEY_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene + truth sidecar")
    p_sim.add_argument("--config", default=None, help="INI config file")
    p_sim.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sim.add_argument("--out", required=True, help="output scene directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ret = sub.add_parser("retrieve", help="run a retrieval method on a scene directory")
    p_ret.add_argument("--scene", required=True, help="scene directory")
    p_ret.add_argument(
        "--method", required=True, choices=["map", "map-parallel", "mcmc", "grid"]
    )
    p_ret.add_argument("--config", default=None)
    p_ret.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_ret.add_argument("--out", required=True)
    p_ret.set_defaults(func=cmd_retrieve)

    p_bench = sub.add_parser("benchmark", help="time patch-parallel runs over patch counts")
    p_bench.add_argument("--scene", required=True)
    p_bench.add_argument("--patches", required=True, help="comma list, e.g. 1,2,4,8")
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        # ValueError covers ConfigurationError, the forward table's
        # DomainError and validate_state's invariant violations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InitializationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
