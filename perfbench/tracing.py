"""Outside-in tracing of aodlattice's layers for the benchmark's traced run.

The benchmark never edits the package. It records spans in two ways:

- the solvers receive a forward-table proxy that times ``eval``,
  ``eval_batch`` and ``eval_grid`` (the table is pluggable by design);
- for the duration of one traced operation, the module attributes through
  which callers look up the other layers are replaced by timing wrappers.

Spans stay in memory and are written once, when the benchmark ends. Work
done inside process-pool workers is invisible from here: a forked worker
records into its own copy of the tracer, which is discarded with it.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent) and counters of one operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def summary(self):
        """name -> (calls, seconds, self seconds).

        seconds leaves out spans nested in a span of the same name, so a
        writer that calls another writer is not counted twice; self
        seconds subtract the direct children of each span.
        """
        out = {}
        for name, t0, t1, _ in self.spans:
            calls, secs, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, secs, own + (t1 - t0))
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                calls, secs, own = out[pname]
                out[pname] = (calls, secs, own - (t1 - t0))
        for name in out:
            calls, _, own = out[name]
            out[name] = (calls, self.outermost({name}), own)
        return out

    def outermost(self, names):
        """Seconds in spans named in `names` that have no such ancestor."""
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if name in names and not self._inside(parent, names):
                total += t1 - t0
        return total

    def _inside(self, parent, names):
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                out.writerow([i, name, repr(t0), repr(t1), parent])


class NullTracer:
    """Stand-in for untraced runs: calls straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, n):
        pass


NULL = NullTracer()


class TracedTable:
    """Forward-table proxy that times and counts the three evaluation paths."""

    def __init__(self, table, tracer: Tracer):
        self._table = table
        self._tracer = tracer

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._table, name)

    def eval(self, tau, theta):
        return self._tracer.call("forward.eval", self._table.eval, tau, theta)

    def eval_batch(self, tau, theta):
        self._tracer.add("forward.eval_batch.rows", len(tau))
        return self._tracer.call("forward.eval_batch", self._table.eval_batch, tau, theta)

    def eval_grid(self, tau_levels, mixtures):
        return self._tracer.call("forward.eval_grid", self._table.eval_grid, tau_levels, mixtures)


def _wrap(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer entry point through `tracer` until the block exits."""
    from aodlattice import cli, io, map_solver, mcmc, parallel, simulate

    # (module, attribute the callers look up, span name)
    points = [
        (map_solver, "proposal_rng", "map_solver.proposal_rng"),
        (map_solver, "accept_rng", "mcmc.accept_rng"),
        (map_solver, "sweep_regions", "map_solver.sweep_regions"),
        (parallel, "sweep_regions", "map_solver.sweep_regions"),
        (parallel, "_one_parallel_sweep", "parallel.dispatch"),
        (parallel, "partition", "parallel.partition"),
        (map_solver, "log_posterior", "model.log_posterior"),
        (mcmc, "log_posterior", "model.log_posterior"),
        (parallel, "log_posterior", "model.log_posterior"),
        (simulate, "gen_truth", "simulate.gen_truth"),
        (simulate, "render_grid", "simulate.render_grid"),
        (cli, "gen_truth", "simulate.gen_truth"),
        (cli, "render_grid", "simulate.render_grid"),
        (cli, "grid_search_retrieve", "baselines.grid_search_retrieve"),
        (cli, "init_state", "map_solver.init_state"),
        (cli, "build_lattice", "model.build_lattice"),
        (io, "load_truth", "io.load_truth"),
    ]
    points += [
        (io, writer, "io.write")
        for writer in ("save_scene", "save_truth", "write_matrix_csv", "save_trace",
                       "save_speedup", "save_metrics", "write_manifest")
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in points]
    saved.append((io, "load_scene", io.load_scene))
    load_scene = io.load_scene

    def traced_load_scene(directory):
        scene, library, table = tracer.call("io.load_scene", load_scene, directory)
        return scene, library, TracedTable(table, tracer)

    try:
        for mod, attr, name in points:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr)))
        io.load_scene = traced_load_scene
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
