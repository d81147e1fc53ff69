"""Synthetic ground-truth scenes: truth fields, rendering, noise injection.

Ground-truth AOD is a smoothed white-noise field rescaled into a target
range; composition rows are Dirichlet draws held constant over square
blobs (blob size 1 recovers i.i.d. rows).  Observations are rendered
through the forward table (an exact inverse-crime setup when no noise is
added) and optionally perturbed with multiplicative Gaussian noise,
clamped nonnegative.  Everything is deterministic in its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, Scene, check_lattice_sides

# composition truth -> Dirichlet concentration of its blob rows
SPARSITY_CONCENTRATION = {"dense": 1.0, "sparse": 0.125}


@dataclass
class SimScene:
    """A rendered scene together with the truth that produced it."""

    truth_tau: np.ndarray
    truth_theta: np.ndarray
    scene: Scene


def _box_smooth(field: np.ndarray, half_width: int) -> np.ndarray:
    """Mean over the (2h+1)-square window intersected with the domain.

    Count-normalized, so a window covering the whole field returns the
    global mean everywhere (the infinite-smoothness limit is exactly
    constant).
    """
    if half_width <= 0:
        return field.copy()
    H, W = field.shape
    # 2-D prefix sums with a zero border
    ps = np.zeros((H + 1, W + 1))
    ps[1:, 1:] = np.cumsum(np.cumsum(field, axis=0), axis=1)
    r = np.arange(H)
    c = np.arange(W)
    r0 = np.maximum(r - half_width, 0)
    r1 = np.minimum(r + half_width + 1, H)
    c0 = np.maximum(c - half_width, 0)
    c1 = np.minimum(c + half_width + 1, W)
    out = (
        ps[np.ix_(r1, c1)] - ps[np.ix_(r0, c1)] - ps[np.ix_(r1, c0)] + ps[np.ix_(r0, c0)]
    )
    counts = (r1 - r0)[:, None] * (c1 - c0)[None, :]
    return out / counts


def check_truth_args(width, height, smoothness, sparsity, tau_range, blob_size) -> None:
    """gen_truth's argument rules: the lattice's sides (check_lattice_sides),
    a finite smoothness, a known sparsity, 0 <= tau_lo <= tau_hi and
    blob_size >= 1.  Raises ConfigurationError naming the first argument
    that breaks one."""
    check_lattice_sides(width, height)
    if not math.isfinite(smoothness):
        raise ConfigurationError(f"smoothness must be finite, got {smoothness}")
    if sparsity not in SPARSITY_CONCENTRATION:
        raise ConfigurationError(f"sparsity must be one of {tuple(SPARSITY_CONCENTRATION)}")
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not 0 <= lo <= hi:
        raise ConfigurationError(
            f"tau_range must satisfy 0 <= tau_lo <= tau_hi, got ({lo}, {hi})")
    if int(blob_size) < 1:
        raise ConfigurationError(f"blob_size must be >= 1, got {blob_size}")


def gen_truth(
    width: int,
    height: int,
    n_components: int,
    smoothness: float = 2.0,
    sparsity: str = "dense",
    seed: int = 0,
    tau_range: tuple = (0.05, 0.6),
    blob_size: int = 4,
):
    """Sample a ground-truth (tau field, theta field).

    tau: white noise box-smoothed with half-width round(smoothness), then
    affinely rescaled into tau_range and capped at tau_hi against rounding
    (a degenerate spread, the large-smoothness limit, maps to the midpoint).
    theta: one Dirichlet draw per blob_size x blob_size tile, with the
    concentration SPARSITY_CONCENTRATION gives: 1 for "dense" (every entry
    strictly positive almost surely), 0.125 for "sparse" (near-one-hot
    rows).  The arguments must pass check_truth_args.
    """
    check_truth_args(width, height, smoothness, sparsity, tau_range, blob_size)
    lo, hi = float(tau_range[0]), float(tau_range[1])
    b = int(blob_size)
    rng = np.random.default_rng([seed, 11])
    noise = rng.standard_normal((height, width))
    # a window wider than the grid already gives the constant field
    half_width = min(max(smoothness, 0.0), max(width, height))
    smooth = _box_smooth(noise, int(round(half_width)))
    spread = smooth.max() - smooth.min()
    if spread < 1e-15:
        tau = np.full(width * height, 0.5 * (lo + hi))
    else:
        tau = np.minimum(lo + (smooth - smooth.min()) * (hi - lo) / spread, hi).ravel()

    conc = SPARSITY_CONCENTRATION[sparsity]
    rows = np.arange(height) // b
    cols = np.arange(width) // b
    blob_id = (rows[:, None] * (int(np.ceil(width / b))) + cols[None, :]).ravel()
    n_blobs = int(blob_id.max()) + 1
    blob_theta = rng.dirichlet(np.full(n_components, conc), size=n_blobs)
    theta = blob_theta[blob_id]
    return tau, theta


def render_grid(truth_tau, truth_theta, table, width: int, height: int,
                region_size_km: float = 4.4) -> Scene:
    """Noiseless scene of a width x height grid: each region's radiance is
    the table's eval_batch at its true AOD and mixture, on every channel."""
    radiance = table.eval_batch(np.asarray(truth_tau, float), np.asarray(truth_theta, float))
    return Scene(
        width=width,
        height=height,
        channels=table.n_channels,
        radiance=radiance,
        channel_mask=np.ones(table.n_channels, dtype=bool),
        region_size_km=region_size_km,
    )


def check_noise_level(level: float) -> None:
    """add_noise's rule: the relative noise level is in [0, 1]."""
    if not 0.0 <= level <= 1.0:
        raise ConfigurationError(f"noise level must be in [0, 1], got {level}")


def add_noise(scene: Scene, level: float, seed: int = 0) -> Scene:
    """Multiplicative Gaussian noise: L -> max(0, L * (1 + level * z)).

    level is the relative standard deviation (0.5 reproduces the heavy
    50%-noise stress setup); level 0 returns an identical copy.
    """
    check_noise_level(level)
    if level == 0.0:
        noisy = scene.radiance.copy()
    else:
        z = np.random.default_rng([seed, 13]).standard_normal(scene.radiance.shape)
        noisy = np.maximum(0.0, scene.radiance * (1.0 + level * z))
    return replace(scene, radiance=noisy, channel_mask=scene.channel_mask.copy())


def make_sim_scene(
    table,
    width: int,
    height: int,
    smoothness: float = 2.0,
    sparsity: str = "dense",
    noise_level: float = 0.0,
    seed: int = 0,
    tau_range: tuple = (0.05, 0.6),
    blob_size: int = 4,
    region_size_km: float = 4.4,
) -> SimScene:
    """gen_truth + render + add_noise in one deterministic call."""
    tau, theta = gen_truth(
        width, height, table.n_components, smoothness, sparsity, seed,
        tau_range=tau_range, blob_size=blob_size,
    )
    clean = render_grid(tau, theta, table, width, height, region_size_km)
    scene = add_noise(clean, noise_level, seed)
    return SimScene(truth_tau=tau, truth_theta=theta, scene=scene)
