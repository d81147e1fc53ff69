"""Timing at a reference host speed.

On a shared host, speed can swing by up to 1.7x from one second to the
next as other tenants come and go (measured on a 2-vCPU KVM guest), and
the share of slow seconds drifts over minutes, longer than one run. Repeating work
inside a run averages the swings but not the drift. So each timed
operation is bracketed by runs of a fixed reference kernel, and the run's
times are scaled by the kernel's reference time over its mean time across
the run: a result is the time the work would take on a host where the
kernel takes its reference time.

The kernels never call the package, so a change to the package moves the
operations' times and leaves the kernels' alone. How much a contended
second slows a piece of code depends on the kind of work, so each kernel
mimics the work of the workloads it serves:

- SOLVER, for map16 and chain16: the per-region sweep step, i.e. one
  seeded generator per item, a normal and a gamma draw, a knot lookup,
  an interpolated 8 x 36 mix and a weighted squared misfit;
- PIPELINE, for pipeline128: a third of that, a third formatting and
  parsing CSV text (scene and result files), and a third gathering and
  reducing the rows of a 128 x 128 x 36 field (batch evaluation, grid
  search).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

_rng = np.random.default_rng(12345)
_VALUES = _rng.random((8, 25, 36))
_KNOTS = np.linspace(0.0, 6.0, 25)
_OBS = _rng.random((256, 36))
_WEIGHTS = _rng.random(36)
_FIELD = _rng.random((128 * 128, 36))
_ORDER = _rng.permutation(128 * 128)
del _rng


def _sweep_items(n):
    acc = 0.0
    top = _KNOTS.size - 2
    for p in range(n):
        rng = np.random.default_rng([7, 1, 3, p])
        t = 3.0 + rng.standard_normal()
        mix = rng.gamma(2.0, size=8)
        idx = min(max(int(np.searchsorted(_KNOTS, t, side="right")) - 1, 0), top)
        w = (t - _KNOTS[idx]) / (_KNOTS[idx + 1] - _KNOTS[idx])
        v = _VALUES[:, idx, :] * (1.0 - w) + _VALUES[:, idx + 1, :] * w
        r = _OBS[p] - (mix / mix.sum()) @ v
        acc += float(np.sum(r * r * _WEIGHTS))
    return acc


def _csv_text(n):
    lines = [",".join(f"{x:.17g}" for x in row) for row in _OBS[:n]]
    return sum(float(x) for line in lines for x in line.split(","))


def _field_rows():
    rows = _FIELD[_ORDER]
    return float(np.sum(rows * _WEIGHTS)) + float(np.sum(_FIELD * 0.5))


def solver_kernel():
    return _sweep_items(256)


def pipeline_kernel():
    return _sweep_items(110) + _csv_text(80) + _field_rows()


@dataclass(frozen=True)
class Kernel:
    run: object
    ref_s: float  # its time on the reference host


# Reference times: each kernel's typical mean time within its workloads'
# runs on the host the benchmark was written on (2-vCPU KVM guest, Intel
# Xeon, CPython 3.11.7, numpy 2.4.6), rounded. There, reported times are
# close to wall times.
SOLVER = Kernel(solver_kernel, 0.014)
PIPELINE = Kernel(pipeline_kernel, 0.0165)


class RefClock:
    """Wall-times operations and samples the kernel around each of them."""

    def __init__(self, kernel: Kernel, reps=1):
        self.kernel = kernel
        self.reps = reps  # kernel runs on each side of an operation
        self.samples = []  # kernel seconds
        kernel.run()  # first call pays for allocation

    def _sample(self):
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.kernel.run()
            self.samples.append(time.perf_counter() - t0)

    def timed(self, fn, *args):
        """(wall seconds, fn(*args)), with kernel samples on both sides."""
        self._sample()
        t0 = time.perf_counter()
        out = fn(*args)
        t = time.perf_counter() - t0
        self._sample()
        return t, out

    def factor(self):
        """Wall seconds times this are seconds at the reference speed."""
        return self.kernel.ref_s / statistics.fmean(self.samples)
