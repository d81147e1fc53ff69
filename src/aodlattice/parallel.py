"""Patch-parallel MAP sweeps.

The lattice's regions are split into runs of consecutive indices, one
per patch, and every sweep visits the lattice's colour classes in turn
(lattice.classes).  A region's update reads only its neighbors, which
lie in the other class, so a class split across patches in any way
computes what the sequential sweep computes.  kappa and sigma2 move once
per sweep from the merged field.

Every patch count sweeps through the one kernel entry,
map_solver.sweep_regions, given the patch shares of each colour class
and a mapper.  With one patch the mapper is the builtin map: a sweep is
the sequential kernel call that run_map makes, in the calling thread.
With more it is the map of a thread pool of min(n_patches, 8) threads:
the calling thread computes each class's concentration and normals
once, hands the patch shares to the pool, and then draws the class's
Gamma block while each share runs its tau step in a thread, directly on
the one shared workspace; a share's theta step takes its rows of that
block, waiting for the draw if it is still running (or making it, if it
asks first).  The block comes from the same stream in the same order as
a draw before the hand-off, so no bit moves.  A patch's share of a class
is a run of the class's positions, and its plan
(map_solver.Workspace.plan) is built once per run, as a view of the
class plan.  Shares are disjoint rows and read only the other colour,
so no thread writes where another reads; the colour passes are large
numpy operations that release the GIL.  The shares' accepted deltas are
summed in patch order, which is the class order, so the final state and
the trace are bitwise independent of the patch count.  The executor name
("serial", "thread" or "process") is checked and otherwise has no
effect.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .map_solver import SolverConfig, Workspace, _start, _sweep_loop, sweep_regions
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
    patches: tuple


def partition(lattice: LatticeTopology, n_patches: int) -> PatchPartition:
    """Split the regions, in row-major index order, into n_patches
    ascending runs whose sizes differ by at most 1."""
    P = lattice.n_regions
    if not 1 <= n_patches <= P:
        raise ConfigurationError(
            f"n_patches must be in [1, {P}], got {n_patches}"
        )
    return PatchPartition(n_patches, tuple(np.array_split(np.arange(P), n_patches)))


def _patch_shares(ws: Workspace, part: PatchPartition):
    """Each colour class of the workspace's lattice.classes, in order, with
    the plans of its non-empty patch shares, in patch order: [(colour,
    [plan, ...]), ...].  A patch is a run of region indices, so its share
    of an ascending class is a run of class positions, cut where the
    patches start."""
    starts = [int(regions[0]) for regions in part.patches]
    classes = []
    for colour, members in enumerate(ws.lattice.classes):
        cuts = np.searchsorted(members, starts).tolist() + [members.size]
        classes.append((colour, [ws.plan(colour, slice(i, j))
                                 for i, j in zip(cuts, cuts[1:]) if i < j]))
    return classes


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

    Returns (state, trace, partition), the partition being the one the
    sweeps split the lattice by; per-sweep wall times are in
    trace.elapsed_ms.  The final state, sweep count, convergence flag and
    trace equal run_map's bitwise for every n_patches; every executor name
    runs the same way.  One patch sweeps in the calling thread and starts
    no thread.
    """
    config.validate()
    if executor not in EXECUTORS:
        raise ConfigurationError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    part = partition(lattice, n_patches)
    ws, trace = _start(scene, forward, lattice, config, init)
    classes = _patch_shares(ws, part)
    # the pool starts its threads on the first submit: one patch starts none
    with ThreadPoolExecutor(max_workers=min(n_patches, 8)) as pool:
        mapper = pool.map if n_patches > 1 else map

        def run_sweep(sweep):
            return _one_parallel_sweep(ws, classes, sweep, config, mapper)

        for _ in _sweep_loop(ws, trace, range(1, config.max_sweeps + 1), run_sweep, config):
            pass  # the loop records every sweep in trace
    final = ws.to_state()
    trace.final_log_posterior = log_posterior(scene, final, config.hyper, forward)
    return final, trace, part


def _one_parallel_sweep(ws, classes, sweep, config, mapper):
    """One greedy sweep of the patch shares `classes` into ws through
    mapper; returns (delta_sum, tau_accepts, theta_accepts).  The kernel
    call under its own name, so a sweep's dispatch can be timed apart from
    the kernel."""
    return sweep_regions(ws, sweep, config, "greedy", classes, mapper)
