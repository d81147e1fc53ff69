"""The benchmark's traced run (perfbench/tracing.py) against the package.

Its instrumentation replaces module attributes with timing wrappers and
hands the solvers a forward-table proxy. A refactor that drops or renames
one of those attributes, or that makes a solver reach past the table's
public methods, breaks the traced benchmark; these tests catch it here.
"""

from pathlib import Path

import numpy as np
import pytest

import aodlattice as al
from aodlattice import cli, io, map_solver, mcmc, parallel, simulate

from conftest import random_scene

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (cli, io, map_solver, mcmc, parallel, simulate)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_instrument_wraps_and_restores_every_attribute(tracing):
    before = [dict(vars(mod)) for mod in MODULES]
    with tracing.instrument(tracing.Tracer()):
        patched = {
            f"{mod.__name__}.{name}"
            for mod, saved in zip(MODULES, before)
            for name, value in vars(mod).items()
            if saved.get(name) is not value
        }
    for mod, saved in zip(MODULES, before):
        assert vars(mod).keys() == saved.keys()
        for name, value in saved.items():
            assert vars(mod)[name] is value, f"{mod.__name__}.{name} not restored"
    for name in ("map_solver.log_posterior", "map_solver.proposal_rng",
                 "map_solver.sweep_regions", "parallel._one_parallel_sweep",
                 "mcmc.log_posterior", "io.load_scene", "cli.grid_search_retrieve"):
        assert f"aodlattice.{name}" in patched


def test_traced_run_map_counts(tracing, small_table):
    """run_map through the table proxy: no single-region evaluations, two
    batched passes over each colour class per sweep (2P rows), one proposal
    generator per colour and sweep, one whole-state pass to start and one
    final log_posterior."""
    rng = np.random.default_rng(17)
    scene = random_scene(small_table, rng, 4, 4)
    lat = al.build_lattice(4, 4)
    hyper = al.HyperParams.uniform(3)
    init = al.init_state(scene, small_table, "flat", hyper)
    cfg = al.SolverConfig(hyper=hyper, seed=17, max_sweeps=3, epsilon=1e-300)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        state, trace = al.run_map(scene, tracing.TracedTable(small_table, tracer), lat, cfg,
                                  init)
    plain, _ = al.run_map(scene, small_table, lat, cfg, init)
    np.testing.assert_array_equal(state.tau, plain.tau)
    calls = {name: v[0] for name, v in tracer.summary().items()}
    P = lat.n_regions
    assert "forward.eval" not in calls
    assert calls["forward.eval_batch"] == 2 + 4 * trace.sweeps
    assert tracer.counts["forward.eval_batch.rows"] == 2 * P + 2 * P * trace.sweeps
    assert calls["map_solver.proposal_rng"] == 2 * trace.sweeps
    assert "mcmc.accept_rng" not in calls
    assert calls["map_solver.sweep_regions"] == trace.sweeps
    assert calls["model.log_posterior"] == 1


def test_traced_run_map_parallel_counts(tracing, small_table):
    """A 2-patch run_map_parallel through the table proxy: every sweep is
    one dispatch and one kernel call, and the run makes one final
    log_posterior; the state has the untraced run's bits."""
    rng = np.random.default_rng(19)
    scene = random_scene(small_table, rng, 4, 4)
    lat = al.build_lattice(4, 4)
    hyper = al.HyperParams.uniform(3)
    init = al.init_state(scene, small_table, "flat", hyper)
    cfg = al.SolverConfig(hyper=hyper, seed=19, max_sweeps=3, epsilon=1e-300)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        state, trace, _ = al.run_map_parallel(scene, tracing.TracedTable(small_table, tracer),
                                              lat, cfg, 2, init)
    plain, _, _ = al.run_map_parallel(scene, small_table, lat, cfg, 2, init)
    for name in ("tau", "theta", "sigma2"):
        assert getattr(state, name).tobytes() == getattr(plain, name).tobytes()
    calls = {name: v[0] for name, v in tracer.summary().items()}
    assert trace.sweeps == 3
    assert calls["map_solver.sweep_regions"] == calls["parallel.dispatch"] == trace.sweeps
    assert calls["model.log_posterior"] == 1
