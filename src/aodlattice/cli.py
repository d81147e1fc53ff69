"""Command-line pipelines: simulate scenes, run retrievals, benchmark scaling.

Configuration is a flat INI file (sections of key = value) merged over
built-in defaults, with individual keys overridable on the command line
via --set section.key=value.  SCHEMA states each key's kind, default and
help once; every key is parsed before a command does any work.  All
randomness flows from the single [run] seed key.  Exit codes: 0 success,
2 input/config error, 3 runtime solver error.
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
from .forward import build_synthetic_table, check_table_args, default_library, load_library
from .map_solver import INIT_STRATEGIES, SolverConfig, init_state, run_map
from .mcmc import McmcConfig, run_mcmc
from .model import (ConfigurationError, HyperParams, InitializationError, build_lattice,
                    check_scene_shape)
from .parallel import EXECUTORS, partition, run_map_parallel
from .simulate import (SPARSITY_CONCENTRATION, add_noise, check_noise_level, check_truth_args,
                       gen_truth, render_grid)

_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES

# value kinds: (what a malformed value should have been, parser of the text)
_INT = ("integer", int)
_NUMBER = ("number", float)
_NUMBER_OR_EMPTY = ("number or empty", lambda text: float(text) if text.strip() else None)
_BOOL = ("1/yes/true/on or 0/no/false/off", lambda text: _BOOLEANS[text.strip().lower()])
_TEXT = ("text", str)


def _choice(words, default, text):
    """A key whose value is one of `words`, a tuple or a mapping's keys
    owned by the module that gives the words meaning; its help lists them."""
    words = tuple(words)
    expected = "one of " + " | ".join(words)
    return (expected, dict(zip(words, words)).__getitem__), default, f"{text}: {expected}"


# section -> key -> (kind, default text, help); the only statement of each key
SCHEMA = {
    "run": {"seed": (_INT, "0", "master seed; all randomness derives from it")},
    "scene": {
        "width": (_INT, "16", "simulated lattice width (regions)"),
        "height": (_INT, "16", "simulated lattice height (regions)"),
        "channels": (_INT, "36", "channels rendered by the synthetic table"),
        "region_size_km": (_NUMBER, "4.4", "metadata carried through the scene files"),
    },
    "components": {
        "library": (_TEXT, "default", 'component library JSON path, or "default"'),
    },
    "table": {
        "knots": (_INT, "25", "AOD knots of the synthetic lookup table"),
        "tau_max": (_NUMBER, "6.0", "AOD range of the table"),
    },
    "truth": {
        "smoothness": (_NUMBER, "2.0", "box-smoothing half-width of the truth AOD field"),
        "sparsity": _choice(SPARSITY_CONCENTRATION, "dense", "composition truth"),
        "tau_lo": (_NUMBER, "0.05", "lower end of the truth AOD range"),
        "tau_hi": (_NUMBER, "0.6", "upper end of the truth AOD range"),
        "blob_size": (_INT, "4", "side of constant-composition tiles (1 = iid)"),
    },
    "noise": {"level": (_NUMBER, "0.0", "relative noise std applied to observations")},
    "solver": {
        "delta": (_NUMBER, "0.05", "AOD proposal width"),
        "epsilon": (_NUMBER_OR_EMPTY, "", "absolute stop threshold (empty = relative rule)"),
        "epsilon_rel": (_NUMBER, "1e-4", "relative stop threshold on the first sweep"),
        "max_sweeps": (_INT, "200", "sweep cap"),
        "alpha": (_NUMBER, "1.0", "symmetric Dirichlet concentration of the prior"),
        "init": _choice(INIT_STRATEGIES, "flat", "initialization"),
    },
    "mcmc": {
        "iterations": (_INT, "1000", "chain length (sweeps)"),
        "burn_in": (_INT, "200", "discarded prefix"),
        "thin": (_INT, "5", "retain every thin-th sweep"),
        "dump_samples": (_BOOL, "false", "also write thinned tau samples as CSV"),
    },
    "grid": {
        "tau_levels": (_INT, "13", "AOD levels of the grid-search baseline"),
        "success_threshold": (_NUMBER_OR_EMPTY, "", "misfit threshold (empty = channel count)"),
    },
    "parallel": {
        "patches": (_INT, "1", "patch count for map-parallel / benchmark"),
        "executor": _choice(EXECUTORS, "serial", "patch executor (has no effect)"),
    },
}

DEFAULTS = {s: {k: spec[1] for k, spec in keys.items()} for s, keys in SCHEMA.items()}


def _key_doc() -> str:
    """The --help key list: one `section.key = default  help` line per key."""
    rows = [(f"{s}.{k} = {default}", text)
            for s, keys in SCHEMA.items() for k, (_, default, text) in keys.items()]
    width = max(len(left) for left, _ in rows) + 2
    return "configuration keys (section.key = default):\n" + "".join(
        f"  {left.ljust(width)}{text}\n" for left, text in rows)


def load_config(path, overrides):
    """Merge defaults, the INI file (optional) and --set overrides.

    Returns (text, cfg): the merged values as written, per section and key
    (what manifest.json records), and the same values parsed by their
    SCHEMA kinds.  An unknown key, a value of the wrong kind, a negative
    seed, a scene, table, truth or noise value its owner's rules reject, or
    truth.tau_hi above table.tau_max raises ConfigurationError naming it,
    before any work.
    """
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None and not Path(path).exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        if path is not None:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        for item in overrides or []:
            key, eq, value = item.partition("=")
            section, dot, option = key.strip().partition(".")
            if not (eq and dot):
                raise ConfigurationError(
                    f"override must look like section.key=value, got {item!r}"
                )
            parser.read_dict({section: {option.strip(): value.strip()}})
        text = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    if parser.defaults():  # its keys would show up in every section
        raise ConfigurationError(f"unknown config section: [{parser.default_section}]")
    cfg = {}
    for section, values in text.items():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown config section: [{section}]")
        cfg[section] = {}
        for key, raw in values.items():
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"[{section}] {key}: unknown config key")
            expected, parse = SCHEMA[section][key][0]
            try:
                cfg[section][key] = parse(raw)
            except (ValueError, KeyError):
                raise ConfigurationError(
                    f"[{section}] {key}: expected {expected}, got {raw!r}"
                ) from None
    if cfg["run"]["seed"] < 0:
        raise ConfigurationError(f"[run] seed: must be >= 0, got {cfg['run']['seed']}")
    sim, table, truth = cfg["scene"], cfg["table"], cfg["truth"]
    check_table_args(sim["channels"], table["knots"], table["tau_max"],
                     names=("[scene] channels", "[table] knots", "[table] tau_max"))
    check_truth_args(sim["width"], sim["height"], truth["smoothness"], truth["sparsity"],
                     (truth["tau_lo"], truth["tau_hi"]), truth["blob_size"])
    if truth["tau_hi"] > table["tau_max"]:
        raise ConfigurationError(f"truth.tau_hi must be <= table.tau_max (the table's AOD "
                                 f"range), got {truth['tau_hi']} > {table['tau_max']}")
    check_noise_level(cfg["noise"]["level"])
    check_scene_shape(sim["width"], sim["height"], sim["channels"], sim["region_size_km"])
    return text, cfg


def _run_configs(cfg, table, scene, lattice):
    """Build the solver, chain and grid configs and range-check them and
    parallel.patches, for every command whether or not it reads them, so a
    bad value exits 2 before any output.  Returns (SolverConfig,
    McmcConfig, GridSearchConfig)."""
    solver, mcmc, grid, seed = cfg["solver"], cfg["mcmc"], cfg["grid"], cfg["run"]["seed"]
    hyper = HyperParams.dirichlet(table.n_components, solver["alpha"])
    solver_cfg = SolverConfig(hyper=hyper, delta=solver["delta"], epsilon=solver["epsilon"],
                              epsilon_rel=solver["epsilon_rel"],
                              max_sweeps=solver["max_sweeps"], seed=seed)
    solver_cfg.validate()
    mcmc_cfg = McmcConfig(hyper=hyper, iterations=mcmc["iterations"], burn_in=mcmc["burn_in"],
                          thin=mcmc["thin"], delta=solver["delta"], seed=seed)
    mcmc_cfg.validate()
    partition(lattice, cfg["parallel"]["patches"])
    grid_cfg = GridSearchConfig.defaults(table, scene, n_tau_levels=grid["tau_levels"],
                                         success_threshold=grid["success_threshold"])
    grid_cfg.validate(table)
    return solver_cfg, mcmc_cfg, grid_cfg


def cmd_simulate(args) -> int:
    text, cfg = load_config(args.config, args.set)
    t0 = time.perf_counter()
    scene_cfg, truth_cfg = cfg["scene"], cfg["truth"]
    width, height = scene_cfg["width"], scene_cfg["height"]
    seed = cfg["run"]["seed"]
    spec = cfg["components"]["library"]
    library = default_library() if spec == "default" else load_library(spec)
    table = build_synthetic_table(library, channels=scene_cfg["channels"],
                                  knots=cfg["table"]["knots"],
                                  tau_max=cfg["table"]["tau_max"], seed=seed)
    tau, theta = gen_truth(
        width,
        height,
        library.n_components,
        smoothness=truth_cfg["smoothness"],
        sparsity=truth_cfg["sparsity"],
        seed=seed,
        tau_range=(truth_cfg["tau_lo"], truth_cfg["tau_hi"]),
        blob_size=truth_cfg["blob_size"],
    )
    clean = render_grid(tau, theta, table, width, height, scene_cfg["region_size_km"])
    level = cfg["noise"]["level"]
    scene = add_noise(clean, level, seed)
    scene.validate()
    _run_configs(cfg, table, scene, build_lattice(width, height))
    out = Path(args.out)
    io.save_scene(out, scene, library, {**cfg["table"], "seed": seed}, noise_level=level)
    io.save_truth(out, tau, theta)
    io.write_manifest(
        out / "manifest.json", text, seed,
        {"simulate": (time.perf_counter() - t0) * 1000.0},
    )
    print(f"wrote scene {width}x{height} (noise {level}) to {out}")
    return 0


def cmd_retrieve(args) -> int:
    """Run one retrieval method; the output directory is created only once
    every result, metrics included, has been computed.  A truth sidecar
    whose row count is not the scene's region count, or with a non-finite
    AOD, exits 2 before the solve; one whose metrics overflow exits 2
    before the output directory is made."""
    text, cfg = load_config(args.config, args.set)
    t0 = time.perf_counter()
    scene, _, table = io.load_scene(args.scene)
    truth = io.load_truth(args.scene)
    if truth is not None:
        truth = truth[0].copy()  # only the AOD column is held through the solve
        path = Path(args.scene) / io.TRUTH_CSV
        if truth.size != scene.n_regions:
            raise ConfigurationError(f"{path}: {truth.size} rows but the scene has "
                                     f"{scene.n_regions} regions")
        if not np.all(np.isfinite(truth)):
            raise ConfigurationError(f"{path}: every truth AOD must be finite")
    lattice = build_lattice(scene.width, scene.height)
    # checked before init_state, which may run a full grid search
    solver_cfg, mcmc_cfg, grid_cfg = _run_configs(cfg, table, scene, lattice)
    patches = cfg["parallel"]["patches"]
    trace = None
    matrices = {}  # method-specific CSV outputs
    if args.method == "grid":
        tau, theta, success = grid_search_retrieve(scene, table, grid_cfg)
        matrices["success.csv"] = success.astype(float).reshape(-1, 1)
    else:
        init = init_state(scene, table, cfg["solver"]["init"], solver_cfg.hyper,
                          seed=solver_cfg.seed)
        if args.method == "map":
            state, trace = run_map(scene, table, lattice, solver_cfg, init)
        elif args.method == "map-parallel":
            state, trace, part = run_map_parallel(scene, table, lattice, solver_cfg, patches,
                                                  init)
        else:  # mcmc
            samples = [] if cfg["mcmc"]["dump_samples"] else None
            sink = (lambda sweep, tau: samples.append(tau)) if samples is not None else None
            state, tau_std, trace = run_mcmc(scene, table, lattice, mcmc_cfg, init,
                                             sample_sink=sink)
            matrices["tau_std.csv"] = tau_std.reshape(-1, 1)
            if samples is not None:
                matrices["tau_samples.csv"] = np.asarray(samples)
        tau, theta = state.tau, state.theta
    report = None if truth is None else compute_metrics(tau, truth)
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
        out / "manifest.json", text, solver_cfg.seed,
        {"retrieve": (time.perf_counter() - t0) * 1000.0},
    )
    note = f", rmse {report.rmse:.4g}" if report is not None else ""
    print(f"{args.method} retrieval of {args.scene} -> {out}{note}")
    return 0


def cmd_benchmark(args) -> int:
    text, cfg = load_config(args.config, args.set)
    scene, _, table = io.load_scene(args.scene)
    lattice = build_lattice(scene.width, scene.height)
    solver_cfg, _, _ = _run_configs(cfg, table, scene, lattice)
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
    init = init_state(scene, table, cfg["solver"]["init"], solver_cfg.hyper,
                      seed=solver_cfg.seed)
    runs = []
    timings = {}
    for n in patch_counts:
        _, trace, _ = run_map_parallel(scene, table, lattice, solver_cfg, n, init)
        runs.append((n, trace))
        total_ms = float(sum(trace.elapsed_ms))
        timings[f"patches_{n}"] = total_ms
        print(f"patches={n}: {trace.sweeps} sweeps, {total_ms:.1f} ms total")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.save_speedup(out / "speedup.csv", runs)
    io.write_manifest(out / "manifest.json", text, solver_cfg.seed, timings)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aodlattice",
        description="Bayesian lattice AOD retrieval: simulate, retrieve, benchmark.",
        epilog=_key_doc(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="INI config file")
    config.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[config],
                           help="generate a synthetic scene + truth sidecar")
    p_sim.add_argument("--out", required=True, help="output scene directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ret = sub.add_parser("retrieve", parents=[config],
                           help="run a retrieval method on a scene directory")
    p_ret.add_argument("--scene", required=True, help="scene directory")
    p_ret.add_argument(
        "--method", required=True, choices=["map", "map-parallel", "mcmc", "grid"]
    )
    p_ret.add_argument("--out", required=True)
    p_ret.set_defaults(func=cmd_retrieve)

    p_bench = sub.add_parser("benchmark", parents=[config],
                             help="time patch-parallel runs over patch counts")
    p_bench.add_argument("--scene", required=True)
    p_bench.add_argument("--patches", required=True, help="comma list, e.g. 1,2,4,8")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers ConfigurationError, the forward table's
        # DomainError and validate_state's invariant violations; OSError
        # an unreadable input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InitializationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
