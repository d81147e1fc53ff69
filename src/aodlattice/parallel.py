"""Patch-parallel MAP sweeps.

The lattice's regions are split into runs of consecutive indices, one
per patch, and every sweep visits the lattice's colour classes in turn
(lattice.sweep_order).  A region's update reads only its neighbors, which
lie in the other class, so a class split across patches in any way
computes what the sequential sweep computes.  kappa and sigma2 move once
per sweep from the merged field.

Without a pool ("serial", or its alias "thread", kept for existing
callers) a sweep is the sequential kernel call: one vectorised pass per
colour class.  With a process pool ("process") each colour class is one
round trip of one job per patch, merged in patch order.  Proposal
randomness is keyed by (seed, sweep, colour) and drawn for the whole
class, one row per region, so every worker draws the same block and
takes its own rows: the final state is bitwise independent of the patch
count and executor.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .map_solver import (
    SolverConfig,
    Workspace,
    _start,
    _sweep_loop,
    sweep_regions,
)
from .model import (
    ConfigurationError,
    LatticeTopology,
    RetrievalState,
    Scene,
    log_posterior,
)

EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class PatchPartition:
    """Disjoint runs of consecutive region indices covering the lattice."""

    n_patches: int
    assignment: np.ndarray
    patches: tuple

    def validate(self, lattice: LatticeTopology) -> None:
        P = lattice.n_regions
        seen = np.zeros(P, dtype=bool)
        for regions in self.patches:
            if seen[regions].any():
                raise ConfigurationError("patches overlap")
            seen[regions] = True
        if not seen.all():
            raise ConfigurationError("patches do not cover the lattice")


def partition(lattice: LatticeTopology, n_patches: int) -> PatchPartition:
    """Split the regions, in row-major index order, into n_patches
    ascending runs whose sizes differ by at most 1."""
    P = lattice.n_regions
    if not 1 <= n_patches <= P:
        raise ConfigurationError(
            f"n_patches must be in [1, {P}], got {n_patches}"
        )
    patches = tuple(np.array_split(np.arange(P), n_patches))
    sizes = [len(regions) for regions in patches]
    part = PatchPartition(
        n_patches=n_patches,
        assignment=np.repeat(np.arange(n_patches), sizes),
        patches=patches,
    )
    part.validate(lattice)
    return part


@dataclass
class SpeedupRecord:
    """Per-sweep wall time rows for throughput reporting."""

    rows: list = field(default_factory=list)  # (n_patches, sweep, elapsed_ms)

    def add(self, n_patches: int, sweep: int, elapsed_ms: float) -> None:
        self.rows.append((n_patches, sweep, elapsed_ms))

    def total_ms(self) -> float:
        return float(sum(r[2] for r in self.rows))


# Static context for process-pool workers, installed once per pool by fork
# or by the initializer; sweeps then ship only the dynamic field.
_WORKER_CTX: dict = {}


def _process_init(ctx):
    _WORKER_CTX["ctx"] = ctx


def _process_task(job):
    """Sweep one patch's regions of one colour in a worker; returns their
    rows and counts.  Only those regions' prediction rows are filled,
    because the kernel reads no other."""
    scene, forward, lattice, config = _WORKER_CTX["ctx"]
    sweep, regions, current, pred_rows = job
    pred = np.zeros((lattice.n_regions, scene.channels))
    pred[regions] = pred_rows
    ws = Workspace(scene, forward, lattice, config.hyper, current, pred=pred)
    dsum, acc_t, acc_h = sweep_regions(ws, regions, sweep, config)
    return ws.tau[regions], ws.theta[regions], ws.pred[regions], dsum, acc_t, acc_h


def run_map_parallel(
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    config: SolverConfig,
    n_patches: int,
    init: RetrievalState,
    executor: str = "serial",
):
    """Full MAP loop with patch-parallel sweeps.

    Returns (state, trace, speedup_record).  The final state, sweep count
    and convergence flag equal run_map's bitwise for every n_patches and
    executor: "serial" (the default) and its alias "thread" make
    run_map's own kernel call, "process" sweeps the patches in a process
    pool.  The trace telescopes accepted deltas as run_map's does, so it
    is exactly non-decreasing; under "process" the per-patch delta sums
    are added in another order, which can move its last bits.
    """
    config.validate()
    if executor not in EXECUTORS:
        raise ConfigurationError(f"executor must be one of {EXECUTORS}")
    part = partition(lattice, n_patches)
    ws, trace = _start(scene, forward, lattice, config, init)
    speedup = SpeedupRecord()
    pool = None
    if executor == "process" and n_patches > 1:
        pool = ProcessPoolExecutor(
            max_workers=min(n_patches, 8),
            initializer=_process_init,
            initargs=((scene, forward, lattice, config),),
        )

    def run_sweep(sweep):
        return _one_parallel_sweep(ws, part, sweep, config, pool)

    try:
        for sweep, _, elapsed in _sweep_loop(ws, trace, config.max_sweeps, run_sweep, config):
            speedup.add(n_patches, sweep, elapsed)
    finally:
        if pool is not None:
            pool.shutdown()
    final = ws.to_state()
    trace.final_log_posterior = log_posterior(scene, final, config.hyper, forward)
    return final, trace, speedup


def _one_parallel_sweep(ws, part, sweep, config, pool):
    """Sweep the lattice in colour order into ws; returns (delta_sum,
    tau_accepts, theta_accepts).

    Without a pool this is the sequential kernel call.  With one, each
    colour class is split by patch into jobs sharing ws's current field;
    they read only the other colour, and merge once all have returned.
    """
    if pool is None:
        return sweep_regions(ws, ws.lattice.sweep_order, sweep, config)
    current = RetrievalState(tau=ws.tau, theta=ws.theta, sigma2=ws.sigma2, kappa=ws.kappa)
    dsum, acc_t, acc_h = 0.0, 0, 0
    for colour in ws.lattice.colours:
        members = np.asarray(colour)
        owner = part.assignment[members]
        shares = [members[owner == k] for k in range(part.n_patches)]
        jobs = [(sweep, regions.tolist(), current, ws.pred[regions])
                for regions in shares if regions.size]
        results = list(pool.map(_process_task, jobs))
        for (_, regions, _, _), (tau_r, theta_r, pred_r, d, at, ah) in zip(jobs, results):
            ws.tau[regions] = tau_r
            ws.theta[regions] = theta_r
            ws.pred[regions] = pred_r
            dsum += d
            acc_t += at
            acc_h += ah
    return dsum, acc_t, acc_h
