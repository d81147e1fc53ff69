"""Metropolis-Hastings-within-Gibbs baseline over the same posterior.

Each sweep applies an MH update to every tau_p and theta_p using the same
proposal kernels as the MAP solver; the greedy accept test is replaced by
the MH rule with the proposal-density correction (both proposals depend
only on the neighbor values, never on the current coordinate, so the
correction is the density ratio at the old and new points).  The kernel
moves one checkerboard colour class at a time, all its regions at once:
given the other class they are conditionally independent, so this is a
blocked MH-within-Gibbs scan with one accept uniform per region and
move.  kappa and sigma2 are moved by their closed-form conditional
maximizers once per sweep, keeping the MAP/MCMC comparison about the
tau/theta inference method alone.

A greedy-filtered run of this chain (accept only strict improvements,
never drawing accept variates) reproduces the MAP solver's trajectory
exactly under a shared seed: both drive the same sweep kernel.

The tau proposal's Hastings term is one function of one point,
map_solver._tau_log_q, so the MH test reads log u < w(raw) - w(x) with
w = log target - log proposal density (Tierney 1994).  toy_tau_chain
computes w and log u for every proposal in one numpy pass, leaving one
float compare per step in its sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .map_solver import (
    DELTA_DEFAULT,
    SolverConfig,
    _start,
    _sweep_loop,
    _tau_log_q,
)
from .model import (
    ConfigurationError,
    HyperParams,
    LatticeTopology,
    RetrievalState,
    Scene,
    floor_simplex,
    log_posterior,
)
from . import map_solver


@dataclass
class McmcConfig:
    """Chain length and kernel knobs for the MCMC baseline; the theta
    proposal's Gamma shape floor is the MAP solver's SHAPE_FLOOR."""

    hyper: HyperParams
    iterations: int = 1000
    burn_in: int = 200
    thin: int = 5
    delta: float = DELTA_DEFAULT
    seed: int = 0

    def validate(self) -> None:
        _kernel_config(self).validate()  # hyper and delta
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigurationError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ConfigurationError("thin must be >= 1")


def _kernel_config(config: McmcConfig) -> SolverConfig:
    return SolverConfig(hyper=config.hyper, delta=config.delta, seed=config.seed)


def mh_sweep(
    state: RetrievalState,
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    config: McmcConfig,
    sweep: int = 1,
    greedy: bool = False,
) -> RetrievalState:
    """One full sweep of MH updates over every tau_p and theta_p: the
    drivers' sweep loop run over the one index `sweep`, which keys the
    sweep's random streams.

    With greedy=True the accept rule degenerates to "improvements only"
    and no accept variates are drawn, which is the MAP solver's update;
    kappa and sigma2 are refreshed by the loop's guarded closed-form step
    after the sweep in both modes.  The config and the state are checked
    as run_mcmc checks them: a state with a non-finite log-posterior
    raises InitializationError.
    """
    config.validate()
    kcfg = _kernel_config(config)
    ws, trace = _start(scene, forward, lattice, kcfg, state)
    mode = "greedy" if greedy else "mh"

    def run_sweep(sweep):
        return map_solver.sweep_regions(ws, sweep, kcfg, mode=mode)

    for _ in _sweep_loop(ws, trace, range(sweep, sweep + 1), run_sweep):
        pass  # the one sweep moves ws
    return ws.to_state()


def run_mcmc(
    scene: Scene,
    forward,
    lattice: LatticeTopology,
    config: McmcConfig,
    init: RetrievalState,
    sample_sink=None,
):
    """Run the chain; returns (posterior mean state, tau posterior std, trace).

    Samples are collected after burn_in, every thin-th sweep.  The mean
    state carries the sample means of tau and theta with the final kappa
    and sigma2; the std field is the per-region population standard
    deviation of tau over the retained samples.  sample_sink, when given,
    receives (sweep_index, tau_copy) for every retained sample.
    """
    config.validate()
    kcfg = _kernel_config(config)
    ws, trace = _start(scene, forward, lattice, kcfg, init)
    P = lattice.n_regions
    M = ws.theta.shape[1]
    # accumulate deviations from the first retained sample; the shifted
    # formula keeps a frozen chain's variance exactly zero
    ref_tau = None
    sum_dev = np.zeros(P)
    sum_dev2 = np.zeros(P)
    sum_theta = np.zeros((P, M))
    n_kept = 0

    def run_sweep(sweep):
        return map_solver.sweep_regions(ws, sweep, kcfg, mode="mh")

    for sweep, _, _ in _sweep_loop(ws, trace, range(1, config.iterations + 1), run_sweep):
        if sweep > config.burn_in and (sweep - config.burn_in - 1) % config.thin == 0:
            if ref_tau is None:
                ref_tau = ws.tau.copy()
            dev = ws.tau - ref_tau
            sum_dev += dev
            sum_dev2 += dev * dev
            sum_theta += ws.theta
            n_kept += 1
            if sample_sink is not None:
                sample_sink(sweep, ws.tau.copy())

    if n_kept == 0:
        raise ConfigurationError("no samples retained; lower burn_in or thin")
    mean_dev = sum_dev / n_kept
    mean_tau = ref_tau + mean_dev
    var_tau = np.maximum(sum_dev2 / n_kept - mean_dev**2, 0.0)
    mean_state = RetrievalState(
        tau=mean_tau,
        theta=floor_simplex(sum_theta / n_kept),
        sigma2=ws.sigma2.copy(),
        kappa=ws.kappa,
    )
    trace.converged = True
    trace.final_log_posterior = log_posterior(scene, mean_state, config.hyper, forward)
    return mean_state, np.sqrt(var_tau), trace


def toy_tau_chain(
    log_target,
    proposal_mean: float,
    delta: float,
    n_samples: int,
    seed: int = 0,
    lo: float = 0.0,
    hi: float = 6.0,
    warmup: int = 0,
):
    """Drive the tau MH kernel on a standalone 1-D target density.

    This is the single-coordinate slice of the sweep kernel: a Gaussian
    proposal centered at a fixed surrogate neighbor mean, with the
    kernel's own Hastings term _tau_log_q, rejection outside [lo, hi] (the
    support of the AOD prior) and accept rule log u < w(raw) - w(x), one
    uniform per step.  The chain starts at the proposal mean clamped into
    [lo, hi].  Used to validate the chain's stationary distribution against
    direct normalization of the target.

    Returns (samples after warmup, acceptance rate over those samples).
    """
    prop = np.random.default_rng([seed, 1])
    acc = np.random.default_rng([seed, 2])
    total = warmup + n_samples
    raws = proposal_mean + delta * prop.standard_normal(total)
    with np.errstate(divide="ignore"):
        log_u = np.log(acc.random(total)).tolist()
    # w = log target - log q; -inf outside [lo, hi], where the clipped
    # target value is unused
    w = (log_target(np.clip(raws, lo, hi))
         + _tau_log_q(raws, proposal_mean, delta, lo, hi)).tolist()
    x0 = min(max(proposal_mean, lo), hi)
    w_x = float(log_target(np.array([x0]))[0] + _tau_log_q(x0, proposal_mean, delta, lo, hi))
    moves = []  # indices of the accepted proposals
    for i in range(total):
        if log_u[i] < w[i] - w_x:
            w_x = w[i]
            moves.append(i)
    moves = np.array(moves, dtype=np.intp)
    held = np.full(total, -1)  # index of the proposal the chain holds, -1 the start
    held[moves] = moves
    held = np.maximum.accumulate(held)
    samples = np.where(held >= 0, raws[held], x0)[warmup:]
    return samples, np.count_nonzero(moves >= warmup) / n_samples
