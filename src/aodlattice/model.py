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
        - sum_p chi2_p                                 (misfit, see below)
        - kappa/2 * sum_edges (tau_q - tau_p)^2        (each unordered pair once)
        + sum_p sum_m (alpha_m - 1) log theta_pm
        + lgamma(sum_m alpha_m) - sum_m lgamma(alpha_m)

with chi2_p = sum_c (L_pc - Lrt_c(tau_p, theta_p))^2 / (2 sigma2_c) over
the available channels, the per-region term of the likelihood exponent.
The edge convention (each unordered neighbor pair counted once) makes the
closed-form kappa update in the MAP solver the exact argmax of the
kappa-dependent terms.  The Gamma-function terms are constants while alpha
is fixed; they are included so reported posterior values are complete.

This module owns the delta evaluations used by all solvers: changing a
single tau_p or theta_p touches only region p's misfit, the edges incident
to p, and the Dirichlet term of row p, so accept tests cost O(n_p + C)
instead of O(P*C).  The deltas work on k rows at once and take each
row's misfit change, the difference of two _misfit values, so the sweep
kernel computes a whole colour class of lattice.classes in one call and
carries each row's current misfit from its tau step into its theta step;
the public single-region deltas call them with one row, on eval_batch
predictions and _misfit values as the kernel does.
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


class ConfigurationError(ValueError):
    """Invalid dimensions, topology or configuration input."""


class InitializationError(RuntimeError):
    """A solver was started from a state with a non-finite log-posterior."""


@dataclass(frozen=True)
class HyperParams:
    """Fixed hyperparameters of the hierarchical model.

    alpha is the Dirichlet concentration vector (length M, all entries > 0).
    The guards of the closed-form sigma2 and kappa updates are the module
    constants SIGMA2_FLOOR and KAPPA_CAP.
    """

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))

    @classmethod
    def uniform(cls, n_components: int) -> "HyperParams":
        """Uniform prior on the simplex: alpha = 1 for every component."""
        return cls(alpha=np.ones(n_components))

    @classmethod
    def dirichlet(cls, n_components: int, concentration: float) -> "HyperParams":
        """Symmetric Dirichlet prior with the given concentration."""
        return cls(alpha=np.full(n_components, float(concentration)))

    def validate(self) -> None:
        if self.alpha.ndim != 1 or self.alpha.size < 2:
            raise ConfigurationError("alpha must be a vector of length >= 2")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise ConfigurationError("alpha entries must be finite and > 0")


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
        check_scene_shape(self.width, self.height, self.channels, self.region_size_km)
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


def check_scene_shape(width: int, height: int, channels: int, region_size_km: float) -> None:
    """Scene.validate's rules on the scene's metadata: at least 4 regions,
    at most 36 channels, and a finite region_size_km > 0."""
    if width * height < 4:
        raise ConfigurationError(f"need at least 4 regions, got {width}x{height}")
    if channels > 36:
        raise ConfigurationError(f"at most 36 channels supported, got channels = {channels}")
    if not (math.isfinite(region_size_km) and region_size_km > 0):
        raise ConfigurationError(
            f"region_size_km must be finite and > 0, got {region_size_km}")


@dataclass(frozen=True)
class LatticeTopology:
    """4-neighbor topology of the region lattice, as numpy arrays.

    nbr_index is P x 4: slot j of row p holds p's neighbor above, left,
    right and below (j = 0..3); a slot with no neighbor (lattice border)
    holds p itself and is False in nbr_mask.  n_p counts the neighbors.
    classes holds the two checkerboard colour classes, (row + col) % 2 = 0
    then 1, as ascending np.intp index arrays; that is every sweep's visit
    order, and no edge joins two regions of one class.  class_pos is each
    region's position within its class.  edges lists every unordered
    neighbor pair exactly once.
    """

    width: int
    height: int
    nbr_index: np.ndarray
    nbr_mask: np.ndarray
    n_p: np.ndarray
    classes: tuple
    class_pos: np.ndarray
    edges: np.ndarray

    @property
    def n_regions(self) -> int:
        return self.width * self.height


def check_lattice_sides(width: int, height: int) -> None:
    """build_lattice's rule: both sides of the lattice are at least 2."""
    if width < 2 or height < 2:
        raise ConfigurationError(f"width and height must both be >= 2, got {width}x{height}")


def build_lattice(width: int, height: int) -> LatticeTopology:
    """Build the 4-neighbor topology for a width x height region grid.

    Raises ConfigurationError when either dimension is < 2 (a degenerate
    strip has regions with a single neighbor, which the proposal kernels
    and the smoothness prior are not defined for).
    """
    check_lattice_sides(width, height)
    P = width * height
    p = np.arange(P, dtype=np.intp)
    r, c = np.divmod(p, width)
    mask = np.stack([r > 0, c > 0, c < width - 1, r < height - 1], axis=1)
    index = np.stack([p - width, p - 1, p + 1, p + width], axis=1)
    index = np.where(mask, index, p[:, None])
    colour = (r + c) % 2
    classes = tuple(np.flatnonzero(colour == k) for k in (0, 1))
    class_pos = np.empty(P, dtype=np.intp)
    for members in classes:
        class_pos[members] = np.arange(members.size)
    # right then down neighbor of each region, row-major: each pair once
    fwd = mask[:, 2:].ravel()
    edges = np.stack([np.repeat(p, 2)[fwd], index[:, 2:].ravel()[fwd]], axis=1)
    return LatticeTopology(
        width=width,
        height=height,
        nbr_index=index,
        nbr_mask=mask,
        n_p=mask.sum(axis=1).astype(np.intp),
        classes=classes,
        class_pos=class_pos,
        edges=edges,
    )


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1, the four neighbor slots, left to right.

    Empty slots hold 0.0, so each row's sum equals the left-to-right sum
    of its neighbors alone (numpy's sum of a vector that short) bit for
    bit, whichever slots are empty.
    """
    return ((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3]


def _gather_neighbours(values: np.ndarray, lattice: LatticeTopology, rows) -> np.ndarray:
    """values of the neighbor slots of `rows`: k x 4 (x M for row-valued
    fields), 0.0 in empty slots."""
    gathered = values[lattice.nbr_index[rows]]
    mask = lattice.nbr_mask[rows]
    return np.where(mask.reshape(mask.shape + (1,) * (gathered.ndim - 2)), gathered, 0.0)


@dataclass
class RetrievalState:
    """Current values of all model variables.

    tau: AOD per region (length P, each >= 0 and in the forward table's range).
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


def aod_domain(forward) -> tuple[float, float]:
    """The one AOD domain (lo, hi) = (max(0, tau_min), tau_max) of a forward
    table: the knot range floored at zero AOD.  The starts, the sweep
    kernel's clamp and the grid-search levels all lie in it."""
    return max(0.0, forward.tau_min), forward.tau_max


def validate_state(state: RetrievalState, hyper: HyperParams) -> None:
    """Raise ValueError when any RetrievalState invariant is violated; the
    prior's one rule is that theta has len(hyper.alpha) columns.  tau above
    the forward table's range is eval_batch's DomainError."""
    if not np.all(np.isfinite(state.tau)) or np.any(state.tau < 0):
        raise ValueError("tau must be finite and >= 0")
    if state.theta.ndim != 2 or state.theta.shape[1] != hyper.alpha.size:
        raise ValueError(f"theta shape {state.theta.shape} != (P, {hyper.alpha.size}) of alpha")
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
    return out / out.sum(axis=-1, keepdims=True)


def _safe_log_theta(theta: np.ndarray) -> np.ndarray:
    # Clamp before the log only; never returns -inf/nan for valid rows.
    return np.log(np.maximum(theta, THETA_FLOOR))


def gmrf_roughness(tau: np.ndarray, lattice: LatticeTopology) -> float:
    """Sum of squared AOD differences over the edge list (each pair once)."""
    e = lattice.edges
    d = tau[e[:, 0]] - tau[e[:, 1]]
    return float(np.sum(d * d))


def log_posterior_terms(
    scene: Scene, state: RetrievalState, hyper: HyperParams, forward
) -> dict:
    """The five variable terms plus the Dirichlet normalizer, separately.

    Used for posterior reporting; the sum of the values equals
    log_posterior.
    """
    sse = _channel_sse(scene.radiance, forward.eval_batch(state.tau, state.theta))
    roughness = gmrf_roughness(state.tau, build_lattice(scene.width, scene.height))
    return _assemble_terms(scene.n_regions, sse, roughness, state, hyper, scene.channel_mask)


def _channel_sse(obs: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-channel sums of squared residuals over regions: the one misfit
    reduction, behind the log-posterior, the workspace cache and sigma2."""
    r = obs - pred
    r *= r
    return np.add.reduce(r, axis=0)


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


def _misfit(obs, pred, weights):
    """Each row's weighted misfit sum_c weights_c (obs - pred)^2, one value
    per row of the k x C arrays; weights is a (C,) vector, mask / (2
    sigma2).  Each row's sum is its own (see eval_batch)."""
    r = obs - pred
    return np.einsum("kc,kc,c->k", r, r, weights)


def _tau_delta(dchi, tau_old, tau_new, ntau, nmask, kappa):
    """Log-posterior change of tau_p <- tau_new for k rows at once, given
    each region's misfit change dchi (new _misfit minus old).

    ntau and nmask are the k x 4 neighbor slots and their mask (see
    _gather_neighbours): the misfit change plus the roughness change of
    each region's incident edges.
    """
    d = ((tau_new[:, None] - ntau) ** 2 - (tau_old[:, None] - ntau) ** 2) * nmask
    return -dchi - 0.5 * kappa * _slot_sum(d)


def _theta_delta(dchi, log_old, log_new, alpha_m1):
    """Log-posterior change of theta_p for k rows, given each region's
    misfit change dchi (new _misfit minus old) and both rows' floored logs:
    the misfit change plus that of the Dirichlet term."""
    return -dchi + np.sum(alpha_m1 * (log_new - log_old), axis=-1)


def _row_dchi(state, scene, forward, p, tau_new, theta_new):
    """Region p's misfit change, new _misfit minus old, from moving its
    (tau, theta) to the one-row arrays tau_new (1,) and theta_new (1 x M)."""
    rows = [p]
    obs = scene.radiance[rows]
    w = scene.channel_mask / (2.0 * state.sigma2)
    return (_misfit(obs, forward.eval_batch(tau_new, theta_new), w)
            - _misfit(obs, forward.eval_batch(state.tau[rows], state.theta[rows]), w))


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
    is the sweep kernel's own, on one row.
    """
    rows = [p]
    tau_new = np.array([tau_new], dtype=float)
    dchi = _row_dchi(state, scene, forward, p, tau_new, state.theta[rows])
    return float(_tau_delta(dchi, state.tau[rows], tau_new,
                            _gather_neighbours(state.tau, lattice, rows),
                            lattice.nbr_mask[rows], state.kappa)[0])


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
    arithmetic is the sweep kernel's own, on one row.
    """
    theta_new = np.asarray(theta_new, dtype=float)[None]
    dchi = _row_dchi(state, scene, forward, p, state.tau[[p]], theta_new)
    return float(_theta_delta(
        dchi, _safe_log_theta(state.theta[[p]]), _safe_log_theta(theta_new),
        hyper.alpha - 1.0)[0])
