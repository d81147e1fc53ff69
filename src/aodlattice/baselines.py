"""Operational-style grid-search baseline, comparison metrics, stability bounds.

The grid baseline retrieves each region independently: it scans a small
grid of AOD levels crossed with a fixed list of candidate mixtures,
scores each pair by the weighted least-square misfit with a fixed noise
vector, and calls the region successful when the best misfit clears a
threshold.  All pairs below the threshold are averaged; otherwise the
argmin pair is returned with the success flag cleared.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import ConfigurationError, Scene, floor_simplex

ASSUMED_REL_NOISE = 0.05  # relative noise behind the fixed grid-search variances


def default_candidate_mixtures(n_components: int) -> np.ndarray:
    """One-hot, pairwise 50/50 and equal-thirds candidate mixtures.

    For 8 components this yields 8 + 28 + 56 = 92 candidates, the same
    flavor of pre-defined composition list the operational approach uses.
    """
    M = n_components
    rows = []
    for i in range(M):
        r = np.zeros(M)
        r[i] = 1.0
        rows.append(r)
    for i, j in itertools.combinations(range(M), 2):
        r = np.zeros(M)
        r[i] = r[j] = 0.5
        rows.append(r)
    for i, j, k in itertools.combinations(range(M), 3):
        r = np.zeros(M)
        r[i] = r[j] = r[k] = 1.0 / 3.0
        rows.append(r)
    return np.asarray(rows)


@dataclass
class GridSearchConfig:
    """Search grid and scoring for the per-region baseline."""

    tau_levels: np.ndarray
    candidate_mixtures: np.ndarray
    sigma2_fixed: np.ndarray
    success_threshold: float

    @classmethod
    def defaults(cls, table, scene: Scene, n_tau_levels: int = 13,
                 success_threshold: float | None = None) -> "GridSearchConfig":
        """13 AOD levels over the table range, combinatorial mixtures.

        The fixed noise variances are (ASSUMED_REL_NOISE * mean channel
        radiance)^2, so a candidate fitting within the assumed noise scores
        about C/2; the threshold defaults to the available channel count
        (roughly 1.4 assumed noise units per channel).
        """
        if n_tau_levels < 2:
            raise ConfigurationError(f"n_tau_levels must be >= 2, got {n_tau_levels}")
        if success_threshold is None:
            success_threshold = float(scene.channel_mask.sum())
        level = np.maximum(ASSUMED_REL_NOISE * scene.radiance.mean(axis=0), 1e-6)
        return cls(
            tau_levels=np.linspace(table.tau_min, table.tau_max, n_tau_levels),
            candidate_mixtures=default_candidate_mixtures(table.n_components),
            sigma2_fixed=level**2,
            success_threshold=float(success_threshold),
        )

    def validate(self, table) -> None:
        if self.candidate_mixtures.size == 0 or self.tau_levels.size == 0:
            raise ConfigurationError("empty grid-search candidate grid")
        if np.any(self.tau_levels < table.tau_min) or np.any(self.tau_levels > table.tau_max):
            raise ConfigurationError("tau_levels outside table range")
        sums = self.candidate_mixtures.sum(axis=1)
        if np.any(self.candidate_mixtures < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ConfigurationError("candidate mixtures must lie on the simplex")
        if not np.all(np.isfinite(self.sigma2_fixed)) or np.any(self.sigma2_fixed <= 0):
            raise ConfigurationError("sigma2_fixed must be finite and positive")
        # inf is legal: every region succeeds and returns the grid mean
        if not self.success_threshold > 0:
            raise ConfigurationError(f"success_threshold must be > 0, got {self.success_threshold}")


def grid_search_retrieve(scene: Scene, table, config: GridSearchConfig):
    """Independent per-region grid search; returns (tau, theta, success).

    Scores every (tau level, mixture) pair by the weighted least-square
    misfit with the configured fixed noise variances, over available
    channels only.  Regions whose best misfit clears success_threshold
    return the mean of all clearing pairs (theta renormalized); the rest
    return the argmin pair with success False.
    """
    config.validate(table)
    T = config.tau_levels.size
    G = config.candidate_mixtures.shape[0]
    pred = table.eval_grid(config.tau_levels, config.candidate_mixtures)  # (T, G, C)
    mask = scene.channel_mask
    w = mask / (2.0 * config.sigma2_fixed)
    flat_pred = pred.reshape(T * G, -1)
    P = scene.n_regions
    M = table.n_components
    tau_out = np.empty(P)
    theta_out = np.empty((P, M))
    success = np.zeros(P, dtype=bool)
    tau_grid = np.repeat(config.tau_levels, G)
    mix_grid = np.tile(config.candidate_mixtures, (T, 1))
    # cap the residual tensor (block x T*G x C) at ~4M elements
    block = max(1, 4_000_000 // max(T * G * scene.channels, 1))
    for start in range(0, P, block):
        obs = scene.radiance[start : start + block]  # (B, C)
        resid = obs[:, None, :] - flat_pred[None, :, :]  # (B, TG, C)
        chi2 = np.einsum("btc,c->bt", resid * resid, w)
        for i in range(chi2.shape[0]):
            row = chi2[i]
            below = row < config.success_threshold
            if below.any():
                success[start + i] = True
                tau_out[start + i] = tau_grid[below].mean()
                theta_out[start + i] = floor_simplex(mix_grid[below].mean(axis=0))
            else:
                j = int(np.argmin(row))
                tau_out[start + i] = tau_grid[j]
                theta_out[start + i] = mix_grid[j]
    return tau_out, theta_out, success


@dataclass
class MetricsReport:
    """Agreement of a retrieved field with a reference field."""

    rmse: float
    correlation: float
    correlation_defined: bool
    mean_bias: float
    n: int
    per_region_error: np.ndarray = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "correlation": self.correlation if self.correlation_defined else None,
            "correlation_defined": self.correlation_defined,
            "mean_bias": self.mean_bias,
            "n": self.n,
        }


def compute_metrics(retrieved, reference, mask=None) -> MetricsReport:
    """RMSE, Pearson correlation and mean bias of retrieved vs reference.

    Population (divide-by-N) conventions throughout, so the decomposition
    rmse^2 = bias^2 + var(error) is exact.  A constant reference or
    retrieved field leaves the correlation undefined (flagged, stored as
    nan).
    """
    retrieved = np.asarray(retrieved, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if retrieved.shape != reference.shape:
        raise ConfigurationError("retrieved and reference lengths differ")
    if mask is None:
        mask = np.ones(retrieved.shape, dtype=bool)
    r = retrieved[mask]
    t = reference[mask]
    if r.size < 2:
        raise ConfigurationError("need at least 2 valid entries")
    err = r - t
    rmse = float(np.sqrt(np.mean(err**2)))
    bias = float(np.mean(err))
    sr = r - r.mean()
    st = t - t.mean()
    denom = math.sqrt(float(np.sum(sr**2)) * float(np.sum(st**2)))
    if denom == 0.0:
        corr, defined = float("nan"), False
    else:
        corr, defined = float(np.sum(sr * st) / denom), True
    full_err = np.full(retrieved.shape, np.nan)
    full_err[mask] = err
    return MetricsReport(
        rmse=rmse,
        correlation=corr,
        correlation_defined=defined,
        mean_bias=bias,
        n=int(r.size),
        per_region_error=full_err,
    )


@dataclass
class StabilityResult:
    """Multi-start spread of the MAP AOD retrieval."""

    mean: np.ndarray
    std: np.ndarray
    n_used: int
    excluded_seeds: list


def stability_bounds(
    scene: Scene,
    forward,
    lattice,
    config,
    n_inits: int,
    seeds=None,
) -> StabilityResult:
    """Run the MAP solver from several random initializations.

    Each run starts from init_state's "random" strategy under its own seed.
    Returns the per-region mean and population standard deviation of the
    retrieved AOD over the runs that converged within max_sweeps; runs
    that did not converge are excluded and their seeds reported.
    """
    from .map_solver import init_state, run_map

    if n_inits < 2:
        raise ConfigurationError("n_inits must be >= 2")
    if seeds is None:
        seeds = [config.seed + i for i in range(n_inits)]
    if len(seeds) != n_inits:
        raise ConfigurationError("len(seeds) must equal n_inits")
    fields = []
    excluded = []
    for sd in seeds:
        cfg = replace(config, seed=int(sd))
        init = init_state(scene, forward, "random", config.hyper, seed=int(sd))
        state, trace = run_map(scene, forward, lattice, cfg, init)
        if trace.converged:
            fields.append(state.tau)
        else:
            excluded.append(int(sd))
    if not fields:
        raise RuntimeError("no stability run converged within max_sweeps")
    stack = np.stack(fields)
    return StabilityResult(
        mean=stack.mean(axis=0),
        std=stack.std(axis=0),
        n_used=len(fields),
        excluded_seeds=excluded,
    )
