"""Patch-parallel MAP sweeps.

The lattice is partitioned into contiguous rectangular patches; each sweep
updates every patch concurrently against an immutable snapshot of the
previous iteration.  Within a patch, regions are visited sequentially in
index order and neighbor reads see the patch's live values; reads that
cross a patch border resolve to the snapshot.  A barrier separates sweeps;
kappa and sigma2 are global reductions and are recomputed once per sweep
from the merged field.

Execution realizes the neighbor-surrogate rule by giving each patch a
private copy of the sweep-start field and writing only its own region
indices, so the merge is a deterministic concatenation.  One per-patch
task runs either in-process ("serial"; "thread" is an alias kept for
existing callers, since threads give no speedup to this Python-bound
kernel) or in a process pool ("process"), with identical results.
Proposal randomness is keyed by (seed, sweep, region), never by patch or
worker, so a region sees the same draws under any partitioning; with a
single patch the run is bitwise identical to the sequential solver.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .map_solver import (
    SolverConfig,
    Workspace,
    _start,
    _sweep_loop,
    _sweep_step,
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
    """Disjoint rectangular patches covering the whole lattice."""

    n_patches: int
    assignment: np.ndarray
    patches: tuple
    rects: tuple

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
    """Split the lattice into n_patches contiguous rectangles.

    Recursive proportional bisection: each rectangle is cut so the two
    sides' cells-per-patch stay as close as possible, preferring cuts
    across the longer axis and balanced patch counts.  Areas stay within a
    factor 2 of each other.
    """
    P = lattice.n_regions
    if not 1 <= n_patches <= P:
        raise ConfigurationError(
            f"n_patches must be in [1, {P}], got {n_patches}"
        )
    rects = []
    stack = [(0, lattice.height, 0, lattice.width, n_patches)]
    while stack:
        r0, r1, c0, c1, n = stack.pop()
        if n == 1:
            rects.append((r0, r1, c0, c1))
            continue
        h, w = r1 - r0, c1 - c0
        cells = h * w
        best = None
        for axis in ("c", "r"):
            length = h if axis == "r" else w
            other = w if axis == "r" else h
            prefer = 0 if length >= other else 1
            for cut in range(1, length):
                cells1 = cut * other
                exact = n * cells1 / cells
                for n1 in {int(math.floor(exact)), int(math.ceil(exact))}:
                    n1 = min(max(n1, 1), n - 1)
                    a1 = cells1 / n1
                    a2 = (cells - cells1) / (n - n1)
                    imb = max(a1, a2) / min(a1, a2)
                    key = (imb, prefer, abs(n1 - n / 2), axis, cut, n1)
                    if best is None or key < best:
                        best = key
        _, _, _, axis, cut, n1 = best
        if axis == "r":
            stack.append((r0, r0 + cut, c0, c1, n1))
            stack.append((r0 + cut, r1, c0, c1, n - n1))
        else:
            stack.append((r0, r1, c0, c0 + cut, n1))
            stack.append((r0, r1, c0 + cut, c1, n - n1))
    rects.sort()
    assignment = np.empty(P, dtype=np.intp)
    patches = []
    for k, (r0, r1, c0, c1) in enumerate(rects):
        rows = np.arange(r0, r1)
        cols = np.arange(c0, c1)
        regions = (rows[:, None] * lattice.width + cols[None, :]).ravel()
        regions.sort()
        patches.append(regions)
        assignment[regions] = k
    part = PatchPartition(
        n_patches=n_patches,
        assignment=assignment,
        patches=tuple(patches),
        rects=tuple(rects),
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


def parallel_sweep(
    state: RetrievalState,
    snapshot: RetrievalState,
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    part: PatchPartition,
    config: SolverConfig,
    sweep: int = 1,
) -> RetrievalState:
    """One barrier-synchronized patch-parallel sweep; returns the merged state.

    Each patch updates its regions sequentially; neighbor reads resolve to
    the live in-patch value and to `snapshot` outside the patch.  kappa and
    sigma2 are recomputed once from the merged field afterwards.
    """
    ws = Workspace(scene, forward, lattice, config.hyper, state)

    def run_sweep(sweep):
        return _one_parallel_sweep(ws, part, sweep, config, None, snapshot.tau, snapshot.theta)

    _sweep_step(ws, run_sweep, sweep)
    return ws.to_state()


def _sweep_patch(ctx, job):
    """Sweep one patch on a private workspace; returns its rows and counts.

    The workspace field is the job's (snapshot outside the patch, live
    inside); only the patch's own prediction rows are filled, because the
    kernel reads no other.
    """
    scene, forward, lattice, config = ctx
    sweep, regions, patch_field, pred_rows = job
    pred = np.zeros((lattice.n_regions, scene.channels))
    pred[regions] = pred_rows
    ws = Workspace(scene, forward, lattice, config.hyper, patch_field, pred=pred)
    dsum, acc_t, acc_h = sweep_regions(ws, regions, sweep, config)
    return ws.tau[regions], ws.theta[regions], ws.pred[regions], dsum, acc_t, acc_h


# Static context for process-pool workers, installed once per pool by fork
# or by the initializer; sweeps then ship only the dynamic field.
_WORKER_CTX: dict = {}


def _process_init(ctx):
    _WORKER_CTX["ctx"] = ctx


def _process_task(job):
    return _sweep_patch(_WORKER_CTX["ctx"], job)


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

    Returns (state, trace, speedup_record).  Results are deterministic in
    (seed, n_patches) and independent of the executor: "serial" (the
    default) and its alias "thread" run the patches in-process, "process"
    in a process pool.  With n_patches = 1 the final state is bitwise equal
    to the sequential solver's.

    The trace's log_posterior column telescopes accepted deltas when no
    stale reads can occur (single patch) and is otherwise recomputed per
    sweep from the merged field, where stale reads may dent monotonicity
    transiently.
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
        # the sweep-start field is ws's own: every job copies it before the merge
        return _one_parallel_sweep(ws, part, sweep, config, pool, ws.tau, ws.theta)

    try:
        for sweep, _, elapsed in _sweep_loop(ws, trace, config.max_sweeps, run_sweep, config,
                                             recompute=n_patches > 1):
            speedup.add(n_patches, sweep, elapsed)
    finally:
        if pool is not None:
            pool.shutdown()
    final = ws.to_state()
    trace.final_log_posterior = log_posterior(scene, final, config.hyper, forward)
    return final, trace, speedup


def _one_parallel_sweep(ws, part, sweep, config, pool, snap_tau, snap_theta):
    """Sweep every patch against the snapshot and merge into ws.

    Each patch's field is the snapshot with the patch's own regions taken
    live from ws; all jobs are built before any merge writes into ws.  The
    task runs under map in-process, or under pool.map when a process pool
    is given.  Returns (delta_sum, tau_accepts, theta_accepts).
    """
    jobs = []
    for regions in part.patches:
        tau = snap_tau.copy()
        theta = snap_theta.copy()
        tau[regions] = ws.tau[regions]
        theta[regions] = ws.theta[regions]
        patch_field = RetrievalState(tau=tau, theta=theta, sigma2=ws.sigma2, kappa=ws.kappa)
        jobs.append((sweep, regions, patch_field, ws.pred[regions]))
    if pool is None:
        ctx = (ws.scene, ws.forward, ws.lattice, config)
        results = list(map(partial(_sweep_patch, ctx), jobs))
    else:
        results = list(pool.map(_process_task, jobs))
    dsum = 0.0
    acc_t = 0
    acc_h = 0
    for regions, (tau_r, theta_r, pred_r, d, at, ah) in zip(part.patches, results):
        ws.tau[regions] = tau_r
        ws.theta[regions] = theta_r
        ws.pred[regions] = pred_r
        dsum += d
        acc_t += at
        acc_h += ah
    return dsum, acc_t, acc_h
