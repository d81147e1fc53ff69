"""Domain types and joint log-posterior evaluation for lattice AOD retrieval.

The model couples, per lattice region p:

  - a Gaussian misfit between observed and modeled radiance in every
    available channel, weighted by per-channel noise variances sigma2,
  - an intrinsic Gaussian-Markov random field (GMRF) smoothness prior on
    the AOD field tau, with precision kappa, over the 4-neighbor lattice,
  - a Dirichlet prior with concentration alpha on each composition row
    theta_p (a point on the (M-1)-simplex over M aerosol components).

Up to a data-independent constant the log-posterior is

    f = (P-3)/2 * log(kappa)
        - (P+2)/2 * sum_c log(2 pi sigma2_c)          (available channels)
        - sum_p chi2_p                                 (misfit, see chi_square_region)
        - kappa/2 * sum_edges (tau_q - tau_p)^2        (each unordered pair once)
        + sum_p sum_m (alpha_m - 1) log theta_pm
        + lgamma(sum_m alpha_m) - sum_m lgamma(alpha_m)

The edge convention (each unordered neighbor pair counted once) makes the
closed-form kappa update in the MAP solver the exact argmax of the
kappa-dependent terms.  The Gamma-function terms are constants while alpha
is fixed; they are included so reported posterior values are complete.

This module owns the delta evaluations used by all solvers: changing a
single tau_p or theta_p touches only region p's misfit, the edges incident
to p, and the Dirichlet term of row p, so accept tests cost O(n_p + C)
instead of O(P*C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical guards, one value for every caller.  THETA_FLOOR: theta entries
# are clamped up to it before any log (the Dirichlet term is -inf on the
# simplex boundary when alpha_m < 1).  SIGMA2_FLOOR and KAPPA_CAP bound the
# closed-form sigma2 and kappa, so perfect-fit and constant-field
# degeneracies never divide by zero.  The theta proposal's Gamma shape floor
# is map_solver.SHAPE_FLOOR.
THETA_FLOOR = 1e-12
SIGMA2_FLOOR = 1e-12
KAPPA_CAP = 1e12
TAU_MAX = 6.0


class ConfigurationError(ValueError):
    """Invalid dimensions, topology or configuration input."""


class InitializationError(RuntimeError):
    """A solver was started from a state with a non-finite log-posterior."""


@dataclass(frozen=True)
class HyperParams:
    """Fixed hyperparameters of the hierarchical model.

    alpha is the Dirichlet concentration vector (length M, all entries > 0).
    tau_max bounds the AOD search range and must be finite and positive.
    The guards of the closed-form sigma2 and kappa updates are the module
    constants SIGMA2_FLOOR and KAPPA_CAP.
    """

    alpha: np.ndarray
    tau_max: float = TAU_MAX

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))

    @classmethod
    def uniform(cls, n_components: int, **kwargs) -> "HyperParams":
        """Uniform prior on the simplex: alpha = 1 for every component."""
        return cls(alpha=np.ones(n_components), **kwargs)

    @classmethod
    def dirichlet(cls, n_components: int, concentration: float, **kwargs) -> "HyperParams":
        """Symmetric Dirichlet prior with the given concentration."""
        return cls(alpha=np.full(n_components, float(concentration)), **kwargs)

    def validate(self) -> None:
        if self.alpha.ndim != 1 or self.alpha.size < 2:
            raise ConfigurationError("alpha must be a vector of length >= 2")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise ConfigurationError("alpha entries must be finite and > 0")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ConfigurationError(f"tau_max must be finite and > 0, got {self.tau_max}")


@dataclass
class Scene:
    """Observed radiance on a width x height lattice of regions.

    radiance is P x C, row-major in region index (region p = row * width +
    column), channel columns ascending.  channel_mask marks the channels
    that are available; masked-out channels are excluded from every sum.
    region_size_km is carried as metadata only; it must be finite and > 0.
    """

    width: int
    height: int
    channels: int
    radiance: np.ndarray
    channel_mask: np.ndarray
    region_size_km: float = 4.4

    def __post_init__(self):
        self.radiance = np.asarray(self.radiance, dtype=float)
        self.channel_mask = np.asarray(self.channel_mask, dtype=bool)

    @property
    def n_regions(self) -> int:
        return self.width * self.height

    def validate(self) -> None:
        if self.n_regions < 4:
            raise ConfigurationError(
                f"need at least 4 regions, got {self.width}x{self.height}"
            )
        if self.channels > 36:
            raise ConfigurationError("at most 36 channels supported")
        if self.radiance.shape != (self.n_regions, self.channels):
            raise ConfigurationError(
                f"radiance shape {self.radiance.shape} != "
                f"({self.n_regions}, {self.channels})"
            )
        if not np.all(np.isfinite(self.radiance)) or np.any(self.radiance < 0):
            raise ConfigurationError("radiance values must be finite and >= 0")
        if self.channel_mask.shape != (self.channels,):
            raise ConfigurationError("channel_mask length must equal channels")
        if not self.channel_mask.any():
            raise ConfigurationError("at least one channel must be available")
        size = self.region_size_km
        if not (math.isfinite(size) and size > 0):
            raise ConfigurationError(f"region_size_km must be finite and > 0, got {size}")


@dataclass(frozen=True)
class LatticeTopology:
    """4-neighbor topology of the region lattice.

    neighbor_lists[p] holds the region indices adjacent to p (borders
    truncated).  edges lists every unordered neighbor pair exactly once.
    colours holds the two checkerboard classes, (row + col) even then odd,
    each ascending; no edge joins two regions of one class.  sweep_order,
    their concatenation, is every sweep's visit order.  All are int tuples.
    """

    width: int
    height: int
    neighbor_lists: tuple
    n_p: np.ndarray
    edges: np.ndarray
    colours: tuple
    sweep_order: tuple

    @property
    def n_regions(self) -> int:
        return self.width * self.height

    def neighbors(self, p: int) -> np.ndarray:
        return self.neighbor_lists[p]


def build_lattice(width: int, height: int) -> LatticeTopology:
    """Build the 4-neighbor topology for a width x height region grid.

    Raises ConfigurationError when either dimension is < 2 (a degenerate
    strip has regions with a single neighbor, which the proposal kernels
    and the smoothness prior are not defined for).
    """
    if width < 2 or height < 2:
        raise ConfigurationError(
            f"lattice dimensions must both be >= 2, got {width}x{height}"
        )
    nbrs = []
    edges = []
    classes = ([], [])
    for r in range(height):
        for c in range(width):
            p = r * width + c
            classes[(r + c) % 2].append(p)
            lst = []
            if r > 0:
                lst.append(p - width)
            if c > 0:
                lst.append(p - 1)
            if c < width - 1:
                lst.append(p + 1)
                edges.append((p, p + 1))
            if r < height - 1:
                lst.append(p + width)
                edges.append((p, p + width))
            nbrs.append(np.asarray(lst, dtype=np.intp))
    n_p = np.asarray([len(l) for l in nbrs], dtype=np.intp)
    return LatticeTopology(
        width=width,
        height=height,
        neighbor_lists=tuple(nbrs),
        n_p=n_p,
        edges=np.asarray(edges, dtype=np.intp),
        colours=(tuple(classes[0]), tuple(classes[1])),
        sweep_order=tuple(classes[0] + classes[1]),
    )


@dataclass
class RetrievalState:
    """Current values of all model variables.

    tau: AOD per region (length P, each in [0, tau_max]).
    theta: composition per region (P x M, rows on the simplex).
    sigma2: per-channel noise variance (length C, floored positive).
    kappa: GMRF smoothness precision (nonnegative, finite).
    """

    tau: np.ndarray
    theta: np.ndarray
    sigma2: np.ndarray
    kappa: float

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)

    def copy(self) -> "RetrievalState":
        return RetrievalState(
            tau=self.tau.copy(),
            theta=self.theta.copy(),
            sigma2=self.sigma2.copy(),
            kappa=self.kappa,
        )


def validate_state(state: RetrievalState, hyper: HyperParams) -> None:
    """Raise ValueError when any RetrievalState invariant is violated."""
    if np.any(state.tau < 0) or np.any(state.tau > hyper.tau_max):
        raise ValueError("tau out of [0, tau_max]")
    if not np.all(np.isfinite(state.tau)):
        raise ValueError("tau contains non-finite values")
    if not np.all(np.isfinite(state.theta)):
        raise ValueError("theta contains non-finite values")
    if np.any(state.theta < 0):
        raise ValueError("theta has negative entries")
    row_sums = state.theta.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-12):
        raise ValueError("theta rows must sum to 1 within 1e-12")
    if np.any(state.sigma2 < SIGMA2_FLOOR):
        raise ValueError("sigma2 below floor")
    if not np.all(np.isfinite(state.sigma2)):
        raise ValueError("sigma2 contains non-finite values")
    if not math.isfinite(state.kappa) or state.kappa < 0:
        raise ValueError("kappa must be finite and >= 0")


def floor_simplex(theta: np.ndarray) -> np.ndarray:
    """Clamp entries up to THETA_FLOOR and renormalize rows to the simplex."""
    out = np.maximum(np.asarray(theta, dtype=float), THETA_FLOOR)
    if out.ndim == 1:
        return out / out.sum()
    return out / out.sum(axis=1, keepdims=True)


def _safe_log_theta(theta: np.ndarray) -> np.ndarray:
    # Clamp before the log only; never returns -inf/nan for valid rows.
    return np.log(np.maximum(theta, THETA_FLOOR))


def chi_square_region(scene: Scene, state: RetrievalState, forward, p: int) -> float:
    """Weighted least-square misfit of region p over available channels.

    Returns sum_c (L_pc - Lrt_c(tau_p, theta_p))^2 / (2 sigma2_c), the
    per-region term of the likelihood exponent.
    """
    pred = forward.eval(state.tau[p], state.theta[p])
    resid = scene.radiance[p] - pred
    mask = scene.channel_mask
    return float(np.sum(resid[mask] ** 2 / (2.0 * state.sigma2[mask])))


def gmrf_roughness(tau: np.ndarray, lattice: LatticeTopology) -> float:
    """Sum of squared AOD differences over the edge list (each pair once)."""
    e = lattice.edges
    d = tau[e[:, 0]] - tau[e[:, 1]]
    return float(np.sum(d * d))


def log_posterior_terms(
    scene: Scene, state: RetrievalState, hyper: HyperParams, forward
) -> dict:
    """The five variable terms plus the Dirichlet normalizer, separately.

    Used for initialization diagnostics and posterior reporting; the sum of
    the values equals log_posterior.
    """
    sse = _channel_sse(scene.radiance, forward.eval_batch(state.tau, state.theta))
    roughness = gmrf_roughness(state.tau, build_lattice(scene.width, scene.height))
    return _assemble_terms(scene.n_regions, sse, roughness, state, hyper, scene.channel_mask)


def _channel_sse(obs: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-channel sums of squared residuals over regions: the one misfit
    reduction, behind the log-posterior, the workspace cache and sigma2."""
    return np.sum((obs - pred) ** 2, axis=0)


def _assemble_terms(
    P: int, sse: np.ndarray, roughness: float, state, hyper: HyperParams, mask: np.ndarray
) -> dict:
    """The log-posterior terms from the per-channel sse and the GMRF roughness S.

    `state` is anything carrying kappa, sigma2 and theta: a RetrievalState,
    or a solver workspace whose sse and S caches are passed alongside.
    """
    misfit = float(np.sum(sse[mask] / (2.0 * state.sigma2[mask])))
    kappa_term = 0.5 * (P - 3) * math.log(state.kappa) if state.kappa > 0 else -math.inf
    noise_norm = -0.5 * (P + 2) * float(
        np.sum(np.log(2.0 * math.pi * state.sigma2[mask]))
    )
    alpha = hyper.alpha
    dirichlet = float(np.sum((alpha - 1.0) * _safe_log_theta(state.theta)))
    dir_norm = math.lgamma(float(alpha.sum())) - float(
        sum(math.lgamma(a) for a in alpha)
    )
    return {
        "kappa_term": kappa_term,
        "noise_norm": noise_norm,
        "misfit": -misfit,
        "smoothness": -(0.5 * state.kappa * roughness),
        "dirichlet": dirichlet,
        "dirichlet_norm": dir_norm,
    }


def log_posterior(
    scene: Scene, state: RetrievalState, hyper: HyperParams, forward
) -> float:
    """Joint log-posterior up to its data-independent constant."""
    terms = log_posterior_terms(scene, state, hyper, forward)
    return float(sum(terms.values()))


def _misfit_change(obs_p, pred_old, pred_new, weights):
    """Weighted sum of the per-channel change of the squared residuals."""
    r_new = obs_p - pred_new
    r_old = obs_p - pred_old
    return float(np.sum((r_new * r_new - r_old * r_old) * weights))


def _tau_delta(obs_p, pred_old, pred_new, weights, tau_old, tau_new, ntau, kappa):
    """Log-posterior change of tau_p <- tau_new, from region p's radiance.

    weights are mask / (2 sigma2) and ntau the neighbor values: the misfit
    change of region p plus the roughness change of its incident edges.
    """
    dchi = _misfit_change(obs_p, pred_old, pred_new, weights)
    ds = float(np.sum((tau_new - ntau) ** 2 - (tau_old - ntau) ** 2))
    return -dchi - 0.5 * kappa * ds


def _theta_delta(obs_p, pred_old, pred_new, weights, log_old, log_new, alpha_m1):
    """Log-posterior change of theta_p, given both rows' floored logs: the
    misfit change of region p plus the change of its Dirichlet term."""
    dchi = _misfit_change(obs_p, pred_old, pred_new, weights)
    return -dchi + float(alpha_m1 @ (log_new - log_old))


def delta_log_posterior_tau(
    state: RetrievalState,
    scene: Scene,
    lattice: LatticeTopology,
    forward,
    p: int,
    tau_new: float,
) -> float:
    """Change in log-posterior from setting tau_p <- tau_new.

    Touches only region p's misfit and the edges incident to p; equal to
    the difference of two full log_posterior evaluations.  The arithmetic
    is the sweep kernel's own.
    """
    tau_old = state.tau[p]
    theta_p = state.theta[p]
    return _tau_delta(
        scene.radiance[p],
        forward.eval(tau_old, theta_p),
        forward.eval(tau_new, theta_p),
        scene.channel_mask / (2.0 * state.sigma2),
        tau_old,
        tau_new,
        state.tau[lattice.neighbors(p)],
        state.kappa,
    )


def delta_log_posterior_theta(
    state: RetrievalState,
    scene: Scene,
    lattice: LatticeTopology,
    forward,
    p: int,
    theta_new: np.ndarray,
    hyper: HyperParams,
) -> float:
    """Change in log-posterior from setting theta_p <- theta_new.

    Touches only region p's misfit and the Dirichlet term of row p.  The
    arithmetic is the sweep kernel's own.
    """
    theta_old = state.theta[p]
    return _theta_delta(
        scene.radiance[p],
        forward.eval(state.tau[p], theta_old),
        forward.eval(state.tau[p], theta_new),
        scene.channel_mask / (2.0 * state.sigma2),
        _safe_log_theta(theta_old),
        _safe_log_theta(theta_new),
        hyper.alpha - 1.0,
    )


def describe_nonfinite_terms(
    scene: Scene, state: RetrievalState, hyper: HyperParams, forward
) -> str:
    """Name the log-posterior terms that are non-finite, for diagnostics."""
    terms = log_posterior_terms(scene, state, hyper, forward)
    bad = [name for name, v in terms.items() if not math.isfinite(v)]
    return ", ".join(bad) if bad else "none"
