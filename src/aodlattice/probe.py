"""Posterior diagnostics: 2-D objective slices and component dominance maps.

posterior_slice exposes the coupling between a region's AOD and one
mixing weight by scanning the negative log-posterior over a (tau,
theta_m) grid with every other coordinate held fixed; dominance_map
reduces a composition field to the per-region winning component for
side-by-side retrieval comparisons.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ConfigurationError,
    HyperParams,
    LatticeTopology,
    RetrievalState,
    Scene,
    _region_tau_deltas,
    delta_log_posterior_theta,
    log_posterior,
)


def rebalance_row(theta_row: np.ndarray, m: int, value: float) -> np.ndarray:
    """Set component m to `value`, scaling the others to keep their ratios.

    When the rest of the row carries no mass the remainder is spread
    uniformly.  The result lies on the simplex exactly (up to rounding).
    """
    row = np.asarray(theta_row, dtype=float).copy()
    M = row.size
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError("theta component value must be in [0, 1]")
    rest = 1.0 - row[m]
    out = np.empty(M)
    if rest > 1e-300:
        scale = (1.0 - value) / rest
        out[:] = row * scale
    else:
        out[:] = (1.0 - value) / max(M - 1, 1)
    out[m] = value
    return out / out.sum()


def posterior_slice(
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    state: RetrievalState,
    hyper: HyperParams,
    p: int,
    m: int,
    tau_range: tuple,
    theta_range: tuple,
    resolution: tuple = (41, 41),
):
    """Negative log-posterior over a (tau_p, theta_pm) grid.

    Returns (values, tau_axis, theta_axis) with values[i, j] evaluated at
    tau_axis[i], theta_axis[j]; all other coordinates stay at `state`.
    The non-plotted components of row p are renormalized proportionally as
    theta_pm varies.
    """
    t_lo, t_hi = float(tau_range[0]), float(tau_range[1])
    h_lo, h_hi = float(theta_range[0]), float(theta_range[1])
    if not (0 <= t_lo < t_hi and 0 <= h_lo < h_hi <= 1):
        raise ConfigurationError("invalid slice ranges")
    n_tau, n_theta = int(resolution[0]), int(resolution[1])
    tau_axis = np.linspace(t_lo, t_hi, n_tau)
    theta_axis = np.linspace(h_lo, h_hi, n_theta)
    f_base = log_posterior(scene, state, hyper, forward)
    out = np.empty((n_tau, n_theta))
    work = state.copy()
    for j, tv in enumerate(theta_axis):
        row = rebalance_row(state.theta[p], m, tv)
        d_theta = delta_log_posterior_theta(state, scene, lattice, forward, p, row, hyper)
        work.theta[p] = row
        d_tau = _region_tau_deltas(work, scene, lattice, forward, p, tau_axis)
        out[:, j] = -(f_base + d_theta + d_tau)
    return out, tau_axis, theta_axis


def dominance_map(theta: np.ndarray, component_ids=None):
    """Per-region dominant component id and its share.

    Ties break toward the lowest component id.  Ids default to 1..M when
    no library ids are given.
    """
    theta = np.asarray(theta, dtype=float)
    P, M = theta.shape
    if component_ids is None:
        component_ids = np.arange(1, M + 1)
    ids = np.asarray(component_ids)
    if ids.size != M:
        raise ConfigurationError("component_ids length must equal M")
    order = np.argsort(ids, kind="stable")
    sorted_theta = theta[:, order]
    best = np.argmax(sorted_theta, axis=1)  # first max wins: lowest id
    return ids[order][best], sorted_theta[np.arange(P), best]
