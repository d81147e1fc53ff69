"""MAP retrieval by coordinate-wise stochastic search.

One sweep visits every region p in index order and, per region, proposes a
new AOD value tau_p (Gaussian centered on the neighbor mean, width delta)
and a new composition row theta_p (independent Gamma draws with the
neighbor-mean shapes, normalized to the simplex; equivalently a Dirichlet
draw with the neighbor means as concentration).  A proposal is accepted
only when it strictly increases the joint log-posterior, which makes the
recorded objective non-decreasing by construction.  The smoothness
precision kappa and the channel noise variances sigma2 have closed-form
conditional maximizers and are updated either once per sweep (default) or
after every region (the literal reading of the update schedule); both
cadences share the same fixed point.

The run stops when the absolute per-sweep objective change drops below
epsilon, or after max_sweeps.

Randomness discipline: every (seed, sweep, region) triple owns its own
proposal stream, so the draws a region sees do not depend on how the
lattice is partitioned or scheduled.  The patch-parallel scheduler and the
MCMC baseline reuse this module's sweep kernel, per-sweep step and driver
loop, which is what makes their exact-equivalence contracts (single-patch
== sequential, greedy-filtered MH == MAP) hold bitwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConfigurationError,
    HyperParams,
    InitializationError,
    LatticeTopology,
    RetrievalState,
    Scene,
    _assemble_terms,
    _safe_log_theta,
    _tau_delta,
    _theta_delta,
    build_lattice,
    describe_nonfinite_terms,
    floor_simplex,
    gmrf_roughness,
    log_posterior,
    validate_state,
)

# Sub-stream labels: proposals and accept draws never share a stream, so a
# greedy run (which draws no accept uniforms) sees the same proposal
# sequence as an MH run under the same seed.
_STREAM_INIT = 0
_STREAM_PROP = 1
_STREAM_ACC = 2

DELTA_DEFAULT = 0.05
EPSILON_REL_DEFAULT = 1e-4
MAX_SWEEPS_DEFAULT = 200
SHAPE_FLOOR_DEFAULT = 1e-3


def proposal_rng(seed: int, sweep: int, p: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_PROP, sweep, int(p)])


def accept_rng(seed: int, sweep: int, p: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_ACC, sweep, int(p)])


def mh_accept(arng: np.random.Generator, delta_f: float, log_q_ratio: float) -> bool:
    """Metropolis-Hastings accept: log u < delta_f + log q(old)/q(new).

    With delta_f = 0 and a symmetric proposal (log_q_ratio = 0) this
    accepts with probability exactly 1, since u < 1 almost surely.
    """
    return math.log(arng.random()) < delta_f + log_q_ratio


@dataclass
class SolverConfig:
    """Knobs of the stochastic-search run.

    epsilon=None resolves to epsilon_rel * |objective after first sweep|.
    kappa_sigma_update_cadence is "per_sweep" (default) or "per_region".
    """

    hyper: HyperParams
    delta: float = DELTA_DEFAULT
    epsilon: float | None = None
    epsilon_rel: float = EPSILON_REL_DEFAULT
    max_sweeps: int = MAX_SWEEPS_DEFAULT
    seed: int = 0
    gamma_shape_floor: float = SHAPE_FLOOR_DEFAULT
    kappa_sigma_update_cadence: str = "per_sweep"
    validate_each_sweep: bool = False

    def validate(self) -> None:
        self.hyper.validate()
        if self.delta <= 0:
            raise ConfigurationError("delta must be > 0")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigurationError("epsilon must be > 0")
        if self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be >= 1")
        if self.gamma_shape_floor <= 0:
            raise ConfigurationError("gamma_shape_floor must be > 0")
        if self.kappa_sigma_update_cadence not in ("per_sweep", "per_region"):
            raise ConfigurationError("cadence must be per_sweep or per_region")


@dataclass
class SweepTrace:
    """Per-sweep run telemetry.

    For sequential greedy runs the log_posterior sequence is non-decreasing
    (every recorded increment is an accepted improvement or a closed-form
    maximizer step).  Patch-parallel runs recompute the value from the
    merged field instead, where stale reads may dent monotonicity
    transiently.
    """

    n_regions: int
    log_posterior: list = field(default_factory=list)
    tau_accepts: list = field(default_factory=list)
    theta_accepts: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    kappa_degenerate: list = field(default_factory=list)
    elapsed_ms: list = field(default_factory=list)
    converged: bool = False
    epsilon: float = float("nan")
    initial_log_posterior: float = float("nan")
    final_log_posterior: float = float("nan")

    @property
    def sweeps(self) -> int:
        return len(self.log_posterior)

    def rows(self):
        """(sweep, log_posterior, tau_accept_rate, theta_accept_rate, kappa, elapsed_ms)."""
        P = float(self.n_regions)
        for i in range(self.sweeps):
            yield (
                i + 1,
                self.log_posterior[i],
                self.tau_accepts[i] / P,
                self.theta_accepts[i] / P,
                self.kappa[i],
                self.elapsed_ms[i],
            )


def _draw_tau(ntau: np.ndarray, delta: float, rng: np.random.Generator):
    """The Gaussian tau draw around the neighbor mean; returns (mean, raw)."""
    mean = float(ntau.mean())
    return mean, mean + delta * rng.standard_normal()


def _draw_theta(nrows: np.ndarray, shape_floor: float, rng: np.random.Generator):
    """The normalized-Gamma theta draw; returns (concentration, row)."""
    conc = np.maximum(nrows.mean(axis=0), shape_floor)
    draw = rng.gamma(conc)
    total = draw.sum()
    if total <= 0.0:
        row = np.full(conc.size, 1.0 / conc.size)
    else:
        row = draw / total
    return conc, floor_simplex(row)


def _tau_log_q_ratio(raw: float, old: float, mean: float, delta: float,
                     lo: float, hi: float):
    """MH correction log q(old)/q(raw) of the Gaussian tau proposal.

    Returns None when raw falls outside [lo, hi], the support of the AOD
    prior: such proposals are rejected without drawing an accept variate.
    """
    if raw < lo or raw > hi:
        return None
    return ((raw - mean) ** 2 - (old - mean) ** 2) / (2.0 * delta * delta)


def propose_tau(
    state: RetrievalState,
    lattice: LatticeTopology,
    p: int,
    delta: float,
    rng: np.random.Generator,
    tau_max: float = 6.0,
) -> float:
    """Draw tau* ~ Normal(neighbor mean, delta^2), clamped into [0, tau_max]."""
    _, raw = _draw_tau(state.tau[lattice.neighbors(p)], delta, rng)
    return min(max(raw, 0.0), tau_max)


def propose_theta(
    state: RetrievalState,
    lattice: LatticeTopology,
    p: int,
    shape_floor: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw theta* from Gamma(neighbor-mean shapes, 1), normalized.

    Equivalent to a Dirichlet draw whose concentration is the neighbor
    mean of each component, floored at shape_floor.
    """
    return _draw_theta(state.theta[lattice.neighbors(p)], shape_floor, rng)[1]


def _kappa_from_roughness(S: float, P: int, kappa_cap: float):
    if S <= 0.0:
        return kappa_cap, True
    return min((P - 3) / S, kappa_cap), False


def update_kappa(
    state: RetrievalState, lattice: LatticeTopology, kappa_cap: float = 1e12
):
    """Closed-form smoothness update (P-3)/S, S summing each edge once.

    Returns (kappa, degenerate): a perfectly constant field has S = 0, in
    which case the cap is returned with the degenerate flag set.
    """
    S = gmrf_roughness(state.tau, lattice)
    return _kappa_from_roughness(S, lattice.n_regions, kappa_cap)


def update_sigma(
    state: RetrievalState, scene: Scene, forward, sigma2_floor: float = 1e-12
) -> np.ndarray:
    """Closed-form noise update SSE_c / (P+2) per available channel.

    Floored at sigma2_floor (a perfect fit would otherwise divide later
    evaluations by zero); masked-out channels keep their current value.
    """
    pred = forward.eval_batch(state.tau, state.theta)
    resid = scene.radiance - pred
    sse = np.sum(resid**2, axis=0)
    out = state.sigma2.copy()
    mask = scene.channel_mask
    out[mask] = np.maximum(sse[mask] / (scene.n_regions + 2), sigma2_floor)
    return out


def init_state(
    scene: Scene,
    forward,
    strategy: str = "flat",
    hyper: HyperParams | None = None,
    seed: int = 0,
    lattice: LatticeTopology | None = None,
    grid_config=None,
) -> RetrievalState:
    """Build a starting state.

    flat: tau = 0.2 everywhere, uniform theta, sigma2 from its closed form,
    kappa = 1.  coarse_grid: per-region winner of the grid-search baseline,
    then one neighbor-averaging pass over tau.  random: uniform tau and
    Dirichlet(1) theta rows, for multi-start stability runs.
    """
    M = forward.n_components
    if hyper is None:
        hyper = HyperParams.uniform(M)
    P = scene.n_regions
    tau_hi = min(hyper.tau_max, forward.tau_max)
    if strategy == "flat":
        tau = np.full(P, min(0.2, tau_hi))
        theta = np.full((P, M), 1.0 / M)
    elif strategy == "random":
        rng = np.random.default_rng([seed, _STREAM_INIT])
        tau = rng.uniform(0.02, min(1.0, tau_hi), size=P)
        theta = floor_simplex(rng.dirichlet(np.ones(M), size=P))
    elif strategy == "coarse_grid":
        from .baselines import GridSearchConfig, grid_search_retrieve

        if lattice is None:
            lattice = build_lattice(scene.width, scene.height)
        cfg = grid_config if grid_config is not None else GridSearchConfig.defaults(
            forward, scene
        )
        tau_g, theta_g, _success = grid_search_retrieve(scene, forward, cfg)
        tau = np.clip(tau_g, 0.0, tau_hi)
        smoothed = tau.copy()
        for p in range(P):
            nb = lattice.neighbors(p)
            smoothed[p] = (tau[p] + tau[nb].sum()) / (1 + nb.size)
        tau = smoothed
        theta = floor_simplex(theta_g)
    else:
        raise ConfigurationError(f"unknown init strategy: {strategy}")
    state = RetrievalState(tau=tau, theta=theta, sigma2=np.ones(scene.channels), kappa=1.0)
    state.sigma2 = update_sigma(state, scene, forward, hyper.sigma2_floor)
    return state


class Workspace:
    """Mutable solver state plus the caches that make sweeps O(P*C).

    pred holds the forward radiance of every region for the current
    (tau, theta); S the GMRF roughness; sse the per-channel squared
    residual sums.  All three are kept consistent with the field by the
    sweep kernel and resynced from scratch at sweep boundaries.  A caller
    that already holds the predictions passes them as pred, which skips
    the forward evaluation of every region.
    """

    def __init__(self, scene: Scene, forward, lattice: LatticeTopology,
                 hyper: HyperParams, state: RetrievalState, pred=None):
        self.scene = scene
        self.forward = forward
        self.lattice = lattice
        self.hyper = hyper
        self.obs = scene.radiance
        self.mask = scene.channel_mask
        self.alpha_m1 = hyper.alpha - 1.0
        self.tau = state.tau.astype(float).copy()
        self.theta = state.theta.astype(float).copy()
        self.sigma2 = state.sigma2.astype(float).copy()
        self.kappa = float(state.kappa)
        self.tau_lo = max(0.0, getattr(forward, "tau_min", 0.0))
        self.tau_hi = min(hyper.tau_max, getattr(forward, "tau_max", hyper.tau_max))
        self.pred = forward.eval_batch(self.tau, self.theta) if pred is None else pred
        self.S = 0.0
        self.sse = np.zeros(scene.channels)
        self.resync()

    def resync(self) -> None:
        self.S = gmrf_roughness(self.tau, self.lattice)
        resid = self.obs - self.pred
        self.sse = np.sum(resid**2, axis=0)

    def cached_log_posterior(self) -> float:
        """Joint log-posterior of the field, from the sse and S caches."""
        mask = self.mask
        misfit = float(np.sum(self.sse[mask] / (2.0 * self.sigma2[mask])))
        terms = _assemble_terms(self.lattice.n_regions, misfit, self.S, self, self.hyper, mask)
        return float(sum(terms.values()))

    def to_state(self) -> RetrievalState:
        return RetrievalState(
            tau=self.tau.copy(),
            theta=self.theta.copy(),
            sigma2=self.sigma2.copy(),
            kappa=self.kappa,
        )


def _kappa_update_delta(ws: Workspace):
    """Apply the guarded closed-form kappa update; return (delta, degenerate).

    The closed form is the exact argmax of the kappa slice, so its
    objective delta is mathematically >= 0; the update is skipped when
    floating-point rounding at the fixed point produces a negative value,
    which keeps greedy ascent exact.
    """
    P = ws.lattice.n_regions
    kappa_new, degenerate = _kappa_from_roughness(ws.S, P, ws.hyper.kappa_cap)
    if kappa_new == ws.kappa:
        return 0.0, degenerate
    dk = 0.5 * (P - 3) * (math.log(kappa_new) - math.log(ws.kappa)) - 0.5 * ws.S * (
        kappa_new - ws.kappa
    )
    if dk < 0.0:
        return 0.0, degenerate
    ws.kappa = kappa_new
    return dk, degenerate


def _sigma_update_delta(ws: Workspace) -> float:
    """Apply the guarded closed-form sigma2 update; return its delta."""
    P = ws.lattice.n_regions
    floor = ws.hyper.sigma2_floor
    dtotal = 0.0
    for c in np.flatnonzero(ws.mask):
        sse_c = float(ws.sse[c])
        s_old = float(ws.sigma2[c])
        s_new = max(sse_c / (P + 2), floor)
        if s_new == s_old:
            continue
        dc = -0.5 * (P + 2) * (math.log(s_new) - math.log(s_old)) - 0.5 * sse_c * (
            1.0 / s_new - 1.0 / s_old
        )
        if dc >= 0.0:
            ws.sigma2[c] = s_new
            dtotal += dc
    return dtotal


def _hyper_update_deltas(ws: Workspace):
    """Kappa then sigma2 closed-form updates; returns (delta, degenerate)."""
    dk, degenerate = _kappa_update_delta(ws)
    return dk + _sigma_update_delta(ws), degenerate


def sweep_regions(
    ws: Workspace,
    regions,
    sweep_idx: int,
    config: SolverConfig,
    mode: str = "greedy",
    per_region_hypers: bool = False,
):
    """Visit `regions` in order, updating tau then theta for each.

    mode "greedy" accepts only strict improvements; mode "mh" accepts with
    the Metropolis-Hastings probability, including the proposal-density
    correction for both kernels (neither proposal depends on the current
    coordinate value, so the correction is the density ratio at the old
    and new points).

    Neighbor reads resolve against the workspace arrays; the patch-parallel
    scheduler passes per-patch copies of the sweep-start field, which is
    what gives cross-patch reads their snapshot-surrogate semantics.

    Returns (delta_sum, tau_accepts, theta_accepts).  delta_sum telescopes
    to the true objective change only when no stale reads occurred.
    """
    lat = ws.lattice
    obs = ws.obs
    mask = ws.mask
    tau = ws.tau
    theta = ws.theta
    alpha_m1 = ws.alpha_m1
    fwd = ws.forward
    delta = config.delta
    shape_floor = config.gamma_shape_floor
    seed = config.seed
    weights = None  # misfit weights mask/(2 sigma2); rebuilt when sigma2 changes
    mh = mode == "mh"
    delta_sum = 0.0
    acc_t = 0
    acc_h = 0
    track_sse = per_region_hypers

    for p in regions:
        rng = proposal_rng(seed, sweep_idx, p)
        arng = accept_rng(seed, sweep_idx, p) if mh else None
        nbrs = lat.neighbor_lists[p]
        ntau = tau[nbrs]

        # --- tau step ---
        mean, raw = _draw_tau(ntau, delta, rng)
        t_old = tau[p]
        w = mask / (2.0 * ws.sigma2) if weights is None else weights
        weights = w
        if mh:
            cand = raw
            log_q = _tau_log_q_ratio(raw, t_old, mean, delta, ws.tau_lo, ws.tau_hi)
        else:
            cand = min(max(raw, ws.tau_lo), ws.tau_hi)
            log_q = 0.0
        if log_q is not None:
            pred_new = fwd.eval(cand, theta[p])
            df, dsq, ds = _tau_delta(obs[p], ws.pred[p], pred_new, w, t_old, cand, ntau,
                                     ws.kappa)
            accept = mh_accept(arng, df, log_q) if mh else df > 0.0
            if accept:
                tau[p] = cand
                ws.pred[p] = pred_new
                if track_sse:
                    ws.sse += dsq
                    ws.S += ds
                delta_sum += df
                acc_t += 1

        if per_region_hypers:
            dk, _deg = _kappa_update_delta(ws)
            delta_sum += dk

        # --- theta step ---
        conc, row = _draw_theta(theta[nbrs], shape_floor, rng)
        pred_new = fwd.eval(tau[p], row)
        w = mask / (2.0 * ws.sigma2) if weights is None else weights
        weights = w
        log_old = _safe_log_theta(theta[p])
        log_new = _safe_log_theta(row)
        df, dsq = _theta_delta(obs[p], ws.pred[p], pred_new, w, log_old, log_new, alpha_m1)
        if mh:
            accept = mh_accept(arng, df, float((conc - 1.0) @ (log_old - log_new)))
        else:
            accept = df > 0.0
        if accept:
            theta[p] = row
            ws.pred[p] = pred_new
            if track_sse:
                ws.sse += dsq
            delta_sum += df
            acc_h += 1

        if per_region_hypers:
            delta_sum += _sigma_update_delta(ws)
            weights = None  # sigma2 changed; rebuild the misfit weights

    return delta_sum, acc_t, acc_h


def _start(scene, forward, lattice, config, init):
    """Check the initial state; returns (workspace, trace holding its value)."""
    validate_state(init, config.hyper)
    f0 = log_posterior(scene, init, config.hyper, forward)
    if not math.isfinite(f0):
        bad = describe_nonfinite_terms(scene, init, config.hyper, forward)
        raise InitializationError(
            f"log-posterior non-finite at the initial state (offending terms: {bad})"
        )
    trace = SweepTrace(n_regions=lattice.n_regions, initial_log_posterior=f0)
    return Workspace(scene, forward, lattice, config.hyper, init), trace


def _sweep_step(ws: Workspace, run_sweep, sweep: int, per_region: bool = False):
    """One sweep, a cache resync, then the per-sweep closed-form updates.

    run_sweep(sweep) returns (delta_sum, tau_accepts, theta_accepts).
    Returns (delta_sum, hyper delta, tau_accepts, theta_accepts, kappa
    degenerate); with per_region the kernel has already moved kappa and
    sigma2 after every region.
    """
    dsum, acc_t, acc_h = run_sweep(sweep)
    ws.resync()
    if per_region:
        return dsum, 0.0, acc_t, acc_h, ws.S <= 0.0
    dh, degenerate = _hyper_update_deltas(ws)
    return dsum, dh, acc_t, acc_h, degenerate


def _sweep_loop(ws: Workspace, trace: SweepTrace, sweeps: int, run_sweep,
                config: SolverConfig | None = None, per_region: bool = False,
                recompute: bool = False):
    """The driver loop shared by run_map, run_map_parallel and run_mcmc.

    Each sweep is one _sweep_step.  The objective telescopes the step's
    deltas from trace.initial_log_posterior, or with recompute (patch runs,
    whose stale cross-patch reads break the telescoping) is re-evaluated
    from the workspace caches.  Every sweep appends a trace row and yields
    (sweep, objective, elapsed_ms).  Given a config the loop then stops
    once the objective moved by less than epsilon, where epsilon=None
    resolves to epsilon_rel * |objective after the first sweep|; without
    one it runs all sweeps.
    """
    f = trace.initial_log_posterior
    eps = None if config is None else config.epsilon
    for sweep in range(1, sweeps + 1):
        t0 = time.perf_counter()
        dsum, dh, acc_t, acc_h, degenerate = _sweep_step(ws, run_sweep, sweep, per_region)
        prev = f
        f = ws.cached_log_posterior() if recompute else f + dsum + dh
        elapsed = (time.perf_counter() - t0) * 1000.0
        trace.log_posterior.append(f)
        trace.tau_accepts.append(acc_t)
        trace.theta_accepts.append(acc_h)
        trace.kappa.append(ws.kappa)
        trace.kappa_degenerate.append(degenerate)
        trace.elapsed_ms.append(elapsed)
        yield sweep, f, elapsed
        if config is None:
            continue
        if eps is None:
            eps = config.epsilon_rel * abs(f)
        if abs(f - prev) < eps:
            trace.converged = True
            break
    if config is not None:
        trace.epsilon = eps


def run_map(
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    config: SolverConfig,
    init: RetrievalState,
    on_sweep=None,
):
    """Run the coordinate-wise stochastic search to convergence.

    Returns (final state, SweepTrace).  The recorded log-posterior is
    accumulated from accepted-update deltas plus guarded closed-form hyper
    steps, so it is exactly non-decreasing; trace.final_log_posterior is an
    independent full re-evaluation of the final state.
    """
    config.validate()
    ws, trace = _start(scene, forward, lattice, config, init)
    per_region = config.kappa_sigma_update_cadence == "per_region"
    all_regions = range(lattice.n_regions)

    def run_sweep(sweep):
        return sweep_regions(ws, all_regions, sweep, config, per_region_hypers=per_region)

    for sweep, f, _ in _sweep_loop(ws, trace, config.max_sweeps, run_sweep, config,
                                   per_region=per_region):
        if config.validate_each_sweep:
            validate_state(ws.to_state(), config.hyper)
        if on_sweep is not None:
            on_sweep(sweep, ws.to_state(), f)
    final = ws.to_state()
    trace.final_log_posterior = log_posterior(scene, final, config.hyper, forward)
    return final, trace
