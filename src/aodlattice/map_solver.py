"""MAP retrieval by coordinate-wise stochastic search.

Every region p draws a new AOD value tau_p (Gaussian centered on the
neighbor mean, width delta, clamped into [tau_lo, tau_hi], the forward
table's knot range floored at 0, the one AOD domain) and a new
composition row theta_p (independent Gamma draws with the neighbor-mean
shapes, floored at SHAPE_FLOOR and normalized to the simplex;
equivalently a Dirichlet draw with the neighbor means as concentration).
The draws exist only in the sweep kernel, a block of rows at a time:
per colour class, _theta_conc gives the concentration and _draw_block the
randomness, and _share_pass turns their rows into candidates through
_draw_tau and _draw_theta.  A proposal is accepted only when it strictly
increases the joint log-posterior, which makes the recorded objective
non-decreasing by construction.  The smoothness precision kappa and the
channel noise variances sigma2 have closed-form conditional maximizers
and are moved once per sweep, after the region updates, by guarded steps
that never lower the objective.

A sweep visits the two checkerboard colour classes of lattice.classes in
turn.  With four neighbors, a region's neighbors all lie in the other
class, so one class is conditionally independent given the other: the
kernel updates a whole class in one vectorised pass (a tau step on all its
rows, then a theta step), with exact per-row deltas and an accept mask.
The result is what a region-by-region visit of the class would give.
What a pass reads but never moves is built once per run by the Workspace:
tau and theta sit in buffers with one extra zero row, and each class has
a plan (its rows, their neighbor slots from lattice.nbr_index, whose
empty ones point at that zero row, the slot mask and the neighbor
counts), so a pass gathers a neighbor slot in one take and a share of the
class, a run of its positions, reads slices of the plan.

Given the other class, the tau proposal's mean never moves with the
current value, so its MH correction log q(old)/q(raw) is h(raw) - h(old)
with one function of one point, _tau_log_q: h(x) = (x - mean)^2 /
(2 delta^2) in [tau_lo, tau_hi], -inf outside.

The run stops when the absolute per-sweep objective change stays below
epsilon for two successive sweeps (or for the run's first sweep), or after
max_sweeps.

Randomness discipline: every (seed, sweep, colour) triple owns one
proposal stream (and, in MH mode, one accept stream) that draws a block
for the whole class, one row per region in class order.  A class's
neighbor means depend only on the other class, so the block is drawn
once per class, and the tau and theta steps then run over one or more
disjoint shares of the class on the one workspace.  The one kernel entry,
sweep_regions, takes the shares and the mapper that runs them: the whole
class through the builtin map for run_map, run_mcmc and a one-patch
scheduler, one share per patch through a thread pool's map for the
patch-parallel scheduler.  All of them, and mcmc.mh_sweep's single sweep,
run through this module's sweep loop, which calls the sweep kernel and then
the one hyper step, in the one visit order, lattice.classes, so their
exact-equivalence contracts (patch-parallel == sequential, greedy-filtered
MH == MAP) hold bitwise.  The concentration, the normals and the uniforms
are drawn before the shares go to the mapper; the Gamma block, which only
the theta steps read, is drawn after, from the same proposal stream after
the normals, exactly once, by the calling thread or by the first theta
step that asks for it.  A lazy map (the builtin) runs no share before the
calling thread draws it; a pool's map runs its shares' tau steps
meanwhile.  Either way every stream and every bit is the one a draw
before the hand-off gives.

stability_bounds is run_map's multi-start driver.  This module imports
the grid-search baseline for init_state's coarse_grid start; baselines
imports nothing back.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .baselines import GridSearchConfig, grid_search_retrieve
from .model import (
    KAPPA_CAP,
    SIGMA2_FLOOR,
    ConfigurationError,
    HyperParams,
    InitializationError,
    LatticeTopology,
    RetrievalState,
    Scene,
    _assemble_terms,
    _channel_sse,
    _misfit,
    _safe_log_theta,
    _slot_sum,
    _tau_delta,
    _theta_delta,
    aod_domain,
    build_lattice,
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
SHAPE_FLOOR = 1e-3  # Gamma shape floor of the theta proposal: absent components can return
INIT_STRATEGIES = ("flat", "coarse_grid", "random")  # init_state's strategies


def proposal_rng(seed: int, sweep: int, colour: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_PROP, sweep, int(colour)])


def accept_rng(seed: int, sweep: int, colour: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_ACC, sweep, int(colour)])


def mh_accept(u, delta_f, log_q_ratio):
    """Metropolis-Hastings accept, elementwise: log u < delta_f + log q(old)/q(new).

    u are uniforms in [0, 1).  With delta_f = 0 and a symmetric proposal
    (log_q_ratio = 0) this accepts with probability exactly 1; a zero
    uniform has log -inf and accepts every finite right-hand side, while
    log_q_ratio = -inf (a proposal outside the support) never accepts.
    """
    with np.errstate(divide="ignore"):
        return np.log(u) < delta_f + log_q_ratio


@dataclass
class SolverConfig:
    """Knobs of the stochastic-search run.

    epsilon=None resolves to epsilon_rel * |objective after first sweep|.
    delta, epsilon and epsilon_rel must be finite and positive, the seed
    nonnegative (numpy seeds no stream with a negative entry).  2 delta^2,
    the divisor of the tau proposal's Hastings term (_tau_log_q), must be
    a normal float: delta in about [1.1e-154, 9.5e153].  The theta
    proposal's Gamma shape floor is the module constant SHAPE_FLOOR.
    """

    hyper: HyperParams
    delta: float = DELTA_DEFAULT
    epsilon: float | None = None
    epsilon_rel: float = EPSILON_REL_DEFAULT
    max_sweeps: int = MAX_SWEEPS_DEFAULT
    seed: int = 0

    def validate(self) -> None:
        self.hyper.validate()
        for name in ("delta", "epsilon", "epsilon_rel"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
        if not sys.float_info.min <= 2.0 * self.delta * self.delta <= sys.float_info.max:
            raise ConfigurationError(
                f"delta must make 2*delta^2 a normal float (delta in about "
                f"[1.1e-154, 9.5e153]), got {self.delta}")
        if self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SweepTrace:
    """Per-sweep run telemetry.

    For greedy runs, sequential or patch-parallel, the log_posterior
    sequence is non-decreasing: every recorded increment is an accepted
    improvement or a closed-form maximizer step.
    """

    n_regions: int
    log_posterior: list = field(default_factory=list)
    tau_accepts: list = field(default_factory=list)
    theta_accepts: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
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


def _draw_tau(ntau: np.ndarray, n_p: np.ndarray, delta: float, z: np.ndarray):
    """The Gaussian tau draw around the neighbor mean for k rows, from k
    standard normals z; returns (mean, raw)."""
    mean = _slot_sum(ntau) / n_p
    return mean, mean + delta * z


def _theta_conc(ntheta: np.ndarray, n_p: np.ndarray) -> np.ndarray:
    """Concentration of the theta proposal: the neighbor-mean rows (k x M),
    floored at SHAPE_FLOOR."""
    return np.maximum(_slot_sum(ntheta) / n_p[:, None], SHAPE_FLOOR)


def _draw_theta(gammas: np.ndarray) -> np.ndarray:
    """The normalized-Gamma theta draw: k x M Gamma(conc) variates ->
    simplex rows, uniform where a row's total is zero, then floored."""
    total = gammas.sum(axis=1, keepdims=True)
    positive = total > 0.0
    rows = np.where(positive, gammas / np.where(positive, total, 1.0), 1.0 / gammas.shape[1])
    return floor_simplex(rows)


class _DrawOnce:
    """A draw made on the first call, exactly once, by whichever thread
    calls first; every call returns it.  The lock makes a later caller wait
    for a draw in progress, so the value never depends on which thread
    drew it."""

    __slots__ = ("_draw", "_value", "_lock")

    def __init__(self, draw):
        self._draw = draw
        self._value = None
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            if self._value is None:
                self._value = self._draw()
                self._draw = None
            return self._value


def _draw_block(seed: int, sweep: int, colour: int, conc: np.ndarray, mh: bool):
    """The randomness of one colour pass, for the whole class at once.

    conc is the class's n x M theta concentration.  From proposal_rng:
    n standard normals, then n x M Gamma(conc) variates; in MH mode, from
    accept_rng, a 2 x n block of uniforms (tau accepts, theta accepts).
    Row i belongs to the class's i-th region in ascending order, and the
    block depends only on the other class, so it is drawn once per class
    and every share of the class takes its own rows.
    The normals and uniforms are drawn here.  The Gamma block, which only
    the theta steps read, comes back as a _DrawOnce: its first call draws
    it from the same generator, after the normals, so the streams and bits
    do not depend on when or on which thread that call comes.
    Returns (normals, gammas: _DrawOnce, uniforms or None).
    """
    rng = proposal_rng(seed, sweep, colour)
    z = rng.standard_normal(conc.shape[0])
    u = accept_rng(seed, sweep, colour).random((2, conc.shape[0])) if mh else None
    return z, _DrawOnce(lambda: rng.standard_gamma(conc)), u


def _tau_log_q(x, mean, delta: float, lo: float, hi: float):
    """The tau proposal's Hastings term at one point: h(x) = (x - mean)^2 /
    (2 delta^2), which is -log q(x) up to a constant, elementwise.

    -inf where x falls outside [lo, hi], the support of the AOD prior.
    The MH correction log q(old)/q(raw) is h(raw) - h(old); h(old) is not
    -inf (tau stays in [lo, hi]), so an out-of-support raw gives -inf and
    mh_accept rejects it whatever its uniform.  With delta near an end of
    its range (SolverConfig) the square may overflow to +inf, silently:
    out of the support, where -inf replaces it, and at an old value too
    far from the mean for the proposal to reach, where the correction is
    then -inf as well (an in-support raw's h is z^2 / 2).
    """
    with np.errstate(over="ignore"):
        h = (x - mean) ** 2 / (2.0 * delta * delta)
    return np.where((x >= lo) & (x <= hi), h, -np.inf)


def _theta_log_q_ratio(conc, log_old, log_new):
    """MH correction log q(old)/q(new) of the Dirichlet(conc) theta
    proposal, per row, from both rows' floored logs."""
    return np.sum((conc - 1.0) * (log_old - log_new), axis=-1)


def _kappa_from_roughness(S: float, P: int):
    if S <= 0.0:
        return KAPPA_CAP, True
    return min((P - 3) / S, KAPPA_CAP), False


def _sigma2_closed_form(sigma2, sse, mask, P: int) -> np.ndarray:
    """A copy of sigma2 with every channel of mask at its closed-form
    maximizer SSE_c / (P+2), floored at SIGMA2_FLOOR (a perfect fit would
    otherwise divide later evaluations by zero); the other channels keep
    their value."""
    out = sigma2.copy()
    out[mask] = np.maximum(sse[mask] / (P + 2), SIGMA2_FLOOR)
    return out


def update_kappa(state: RetrievalState, lattice: LatticeTopology):
    """Closed-form smoothness update (P-3)/S, S summing each edge once.

    Returns (kappa, degenerate), kappa capped at KAPPA_CAP: a perfectly
    constant field has S = 0 and returns the cap with the flag set.
    """
    S = gmrf_roughness(state.tau, lattice)
    return _kappa_from_roughness(S, lattice.n_regions)


def update_sigma(state: RetrievalState, scene: Scene, forward) -> np.ndarray:
    """Closed-form noise update of state.sigma2 from the residuals of
    state.tau and state.theta: _sigma2_closed_form, the one statement of
    it; masked-out channels keep their current value."""
    sse = _channel_sse(scene.radiance, forward.eval_batch(state.tau, state.theta))
    return _sigma2_closed_form(state.sigma2, sse, scene.channel_mask, scene.n_regions)


def init_state(
    scene: Scene,
    forward,
    strategy: str,
    hyper: HyperParams,
    seed: int = 0,
) -> RetrievalState:
    """Build a starting state inside the forward table's one AOD domain
    [lo, hi] (model.aod_domain).

    flat: tau = 0.2 clamped into [lo, hi] everywhere, uniform theta,
    kappa = 1.  coarse_grid: per-region winner of the default grid-search
    baseline, then one neighbor-averaging pass over tau, clipped into
    [lo, hi].  random: tau uniform on [a, max(a, min(1, hi))], a being
    0.02 clamped into [lo, hi], and Dirichlet(1) theta rows, for
    multi-start stability runs.  Every strategy sets sigma2 by its closed
    form from the start prediction.  A flat start evaluates one row, which
    eval_batch's row independence makes every region's row bit for bit;
    the others evaluate all P rows.  No strategy reads hyper: the AOD range
    is the forward table's.
    """
    M = forward.n_components
    P = scene.n_regions
    lo, hi = aod_domain(forward)
    if strategy == "flat":
        tau = np.full(P, min(max(0.2, lo), hi))
        theta = np.full((P, M), 1.0 / M)
    elif strategy == "random":
        rng = np.random.default_rng([seed, _STREAM_INIT])
        a = min(max(0.02, lo), hi)
        tau = rng.uniform(a, max(a, min(1.0, hi)), size=P)
        theta = floor_simplex(rng.dirichlet(np.ones(M), size=P))
    elif strategy == "coarse_grid":
        lattice = build_lattice(scene.width, scene.height)
        cfg = GridSearchConfig.defaults(forward, scene)
        tau_g, theta_g, _success = grid_search_retrieve(scene, forward, cfg)
        neighbours = np.append(tau_g, 0.0)[lattice.nbr_index]
        # means of in-domain levels can round an ulp past an end of it
        tau = np.clip((tau_g + _slot_sum(neighbours)) / (1 + lattice.n_p), lo, hi)
        theta = floor_simplex(theta_g)
    else:
        raise ConfigurationError(f"unknown init strategy: {strategy}")
    state = RetrievalState(tau=tau, theta=theta, sigma2=np.ones(scene.channels), kappa=1.0)
    # flat regions share one (tau, theta): its one row predicts them all
    n = 1 if strategy == "flat" else P
    sse = _channel_sse(scene.radiance, forward.eval_batch(tau[:n], theta[:n]))
    state.sigma2 = _sigma2_closed_form(state.sigma2, sse, scene.channel_mask, P)
    return state


class _Plan(NamedTuple):
    """The static data of a colour pass over a run of one class.

    rows are the regions; pos is the run's slice of the class's draw block
    and concentration; nbr is their rows of lattice.nbr_index, k x 4
    neighbor slots that index the workspace's padded buffers, an empty
    slot pointing at the zero row P; mask is nbr < P and n_p their
    neighbor counts.
    """

    rows: np.ndarray
    pos: slice
    nbr: np.ndarray
    mask: np.ndarray
    n_p: np.ndarray


class Workspace:
    """Mutable solver state plus the caches that make sweeps O(P*C).

    pred holds the forward radiance of every region for the current
    (tau, theta); S the GMRF roughness; sse the per-channel squared
    residual sums.  The kernel keeps pred consistent with every accepted
    move; S and sse are recomputed by resync(), which the run start and
    every sweep's _hyper_step call before the closed-form kappa and sigma2
    steps read them.  tau, theta and sigma2 are the workspace's own copies
    of the state's, and pred is evaluated from them here.

    tau and theta are the first P rows of tau_pad and theta_pad, whose
    extra row P is zero and is never written: the lattice points every
    empty neighbor slot at row P, so indexing a pad with a plan's nbr
    gathers the neighbor slots, 0.0 in empty ones, in one take.
    plans holds one _Plan per colour class of lattice.classes, built here
    once per run; plan() gives a run of a class its plan, slices of the
    class plan (views, no copy).
    """

    def __init__(self, scene: Scene, forward, lattice: LatticeTopology,
                 hyper: HyperParams, state: RetrievalState):
        P = lattice.n_regions
        self.forward = forward
        self.lattice = lattice
        self.obs = scene.radiance
        self.mask = scene.channel_mask
        self.alpha_m1 = hyper.alpha - 1.0
        self.tau_pad = np.zeros(P + 1)
        self.theta_pad = np.zeros((P + 1, np.shape(state.theta)[1]))
        self.tau = self.tau_pad[:P]
        self.theta = self.theta_pad[:P]
        self.tau[:] = state.tau
        self.theta[:] = state.theta
        self.pred = forward.eval_batch(self.tau, self.theta)
        self.sigma2 = np.array(state.sigma2, dtype=float)
        self.kappa = float(state.kappa)
        self.tau_lo, self.tau_hi = aod_domain(forward)
        self.S = self.sse = None
        plans = []
        for members in lattice.classes:
            nbr = lattice.nbr_index[members]
            plans.append(_Plan(members, slice(0, members.size), nbr, nbr < P,
                               lattice.n_p[members]))
        self.plans = tuple(plans)

    def plan(self, colour: int, run: slice) -> _Plan:
        """The plan of the run `run` of class `colour`'s positions: slices
        of the class plan."""
        whole = self.plans[colour]
        return _Plan(whole.rows[run], run, whole.nbr[run], whole.mask[run], whole.n_p[run])

    def resync(self) -> None:
        self.S = gmrf_roughness(self.tau, self.lattice)
        self.sse = _channel_sse(self.obs, self.pred)

    def to_state(self) -> RetrievalState:
        return RetrievalState(self.tau, self.theta, self.sigma2, self.kappa).copy()


def sweep_regions(ws: Workspace, sweep_idx: int, config: SolverConfig, mode: str = "greedy",
                  classes=None, mapper=map):
    """The sweep kernel: update tau then theta of every region, one
    vectorised pass per colour class of lattice.classes, in order.

    classes lists (colour, shares) pairs, each share the Workspace.plan of
    a run of the class's positions; None makes each class one share.  The
    class part, its theta concentration and draw block, runs here once;
    the row part, _share_pass, runs over the shares' plans through mapper
    (the builtin map, or a thread pool's).  The block's Gamma
    variates are drawn here after mapper is called, unless a theta step
    asked first (_draw_block), so mapper may be lazy or eager.  A region's
    proposals read only its neighbors, which lie in the other class, and
    each share writes only its own rows, so the shares of a class may run
    in any order or at once on the one workspace: all rows move as a
    region-by-region visit would move them.  kappa and sigma2 stay fixed,
    so the misfit weights mask / (2 sigma2) are built once.

    mode "greedy" accepts only strict improvements; mode "mh" accepts with
    the Metropolis-Hastings probability, including the proposal-density
    correction for both kernels (neither proposal depends on the current
    coordinate value, so the correction is the density ratio at the old
    and new points).

    Returns (delta_sum, tau_accepts, theta_accepts); delta_sum is the
    exact objective change of the sweep, the sum of the accepted deltas in
    share order.  Runs that cover the class in ascending order sum them as
    one share holding the whole class does.
    """
    if classes is None:
        classes = [(colour, [plan]) for colour, plan in enumerate(ws.plans)]
    w = ws.mask / (2.0 * ws.sigma2)
    mh = mode == "mh"
    delta_sum = 0.0
    acc_t = 0
    acc_h = 0
    for colour, shares in classes:
        whole = ws.plans[colour]
        conc = _theta_conc(ws.theta_pad[whole.nbr], whole.n_p)
        z, gammas, u = _draw_block(config.seed, sweep_idx, colour, conc, mh)
        block = (conc, z, gammas, u)
        passes = mapper(lambda plan: _share_pass(ws, plan, block, config.delta, w, mh), shares)
        gammas()  # a pool's passes take their tau steps meanwhile; a lazy map has run none
        d_tau, d_theta = (np.concatenate(d) for d in zip(*passes))
        d = float(np.sum(d_tau))
        d += float(np.sum(d_theta))
        delta_sum += d
        acc_t += d_tau.size
        acc_h += d_theta.size
    return delta_sum, acc_t, acc_h


def _share_pass(ws: Workspace, plan: _Plan, block, delta: float, w, mh: bool):
    """The row part of a colour pass: one vectorised tau step, then one
    theta step, on the rows of `plan`, all of the class that `block`
    (conc, normals, gammas, uniforms or None) was drawn for.  Each row's
    misfit is computed once from ws.pred and carried from the tau step
    into the theta step, taking the tau candidate's value where it was
    accepted; the theta step reuses the tau step's theta rows and its
    post-step tau.  Writes only those rows of ws; returns the accepted
    per-row (tau deltas, theta deltas)."""
    conc, z, gammas, u = block
    rows, pos, nbr, nmask, n_p = plan
    tau = ws.tau
    theta = ws.theta
    fwd = ws.forward
    obs = ws.obs[rows]

    # --- tau step ---
    ntau = ws.tau_pad[nbr]
    mean, raw = _draw_tau(ntau, n_p, delta, z[pos])
    t_old = tau[rows]
    th_old = theta[rows]
    cand = np.minimum(np.maximum(raw, ws.tau_lo), ws.tau_hi)
    pred_new = fwd.eval_batch(cand, th_old)
    chi = _misfit(obs, ws.pred[rows], w)
    chi_new = _misfit(obs, pred_new, w)
    df = _tau_delta(chi_new - chi, t_old, cand, ntau, nmask, ws.kappa)
    if mh:
        lo, hi = ws.tau_lo, ws.tau_hi
        log_q = _tau_log_q(raw, mean, delta, lo, hi) - _tau_log_q(t_old, mean, delta, lo, hi)
        accept = mh_accept(u[0, pos], df, log_q)
    else:
        accept = df > 0.0
    moved = rows[accept]
    tau[moved] = cand[accept]
    ws.pred[moved] = pred_new[accept]
    chi[accept] = chi_new[accept]
    d_tau = df[accept]

    # --- theta step ---
    new_rows = _draw_theta(gammas()[pos])
    pred_new = fwd.eval_batch(np.where(accept, cand, t_old), new_rows)
    log_old = _safe_log_theta(th_old)
    log_new = _safe_log_theta(new_rows)
    df = _theta_delta(_misfit(obs, pred_new, w) - chi, log_old, log_new, ws.alpha_m1)
    if mh:
        accept = mh_accept(u[1, pos], df, _theta_log_q_ratio(conc[pos], log_old, log_new))
    else:
        accept = df > 0.0
    moved = rows[accept]
    theta[moved] = new_rows[accept]
    ws.pred[moved] = pred_new[accept]
    return d_tau, df[accept]


def _start(scene, forward, lattice, config, init):
    """Check the lattice against the scene and the initial state; returns
    (workspace, trace holding its value, assembled from the resynced
    caches: log_posterior(init) bitwise)."""
    if (lattice.width, lattice.height) != (scene.width, scene.height):
        raise ConfigurationError(f"lattice {lattice.width}x{lattice.height} does not match "
                                 f"the scene's {scene.width}x{scene.height}")
    validate_state(init, config.hyper)
    ws = Workspace(scene, forward, lattice, config.hyper, init)
    ws.resync()
    terms = _assemble_terms(lattice.n_regions, ws.sse, ws.S, ws, config.hyper, ws.mask)
    f0 = float(sum(terms.values()))
    if not math.isfinite(f0):
        bad = ", ".join(name for name, v in terms.items() if not math.isfinite(v)) or "none"
        raise InitializationError(
            f"log-posterior non-finite at the initial state (offending terms: {bad})"
        )
    return ws, SweepTrace(n_regions=lattice.n_regions, initial_log_posterior=f0)


def _hyper_step(ws: Workspace) -> float:
    """Resync the caches, then apply the guarded closed-form kappa and
    sigma2 steps: the only place the hyper-parameters move.  Returns the
    objective delta, kappa's plus sigma2's.

    Each closed form is the exact argmax of its slice, so its delta is
    mathematically >= 0; a step whose rounded delta is negative (at the
    fixed point) is skipped, which keeps greedy ascent exact.  The sigma2
    channels are stepped one at a time, in channel order.
    """
    ws.resync()
    P = ws.lattice.n_regions
    S = ws.S
    kappa_new, _ = _kappa_from_roughness(S, P)
    dk = 0.0
    if kappa_new != ws.kappa:
        d = 0.5 * (P - 3) * (math.log(kappa_new) - math.log(ws.kappa)) - 0.5 * S * (
            kappa_new - ws.kappa
        )
        if d >= 0.0:
            ws.kappa = kappa_new
            dk = d
    closed_form = _sigma2_closed_form(ws.sigma2, ws.sse, ws.mask, P).tolist()
    sigma2 = ws.sigma2.tolist()
    ds = 0.0
    for c, (sse_c, old, new) in enumerate(zip(ws.sse.tolist(), sigma2, closed_form)):
        if new == old:
            continue
        d = -0.5 * (P + 2) * (math.log(new) - math.log(old)) - 0.5 * sse_c * (
            1.0 / new - 1.0 / old
        )
        if d >= 0.0:
            sigma2[c] = new
            ds += d
    ws.sigma2[:] = sigma2
    return dk + ds


def _sweep_loop(ws: Workspace, trace: SweepTrace, sweeps: range, run_sweep,
                config: SolverConfig | None = None):
    """The driver loop of run_map, run_map_parallel, run_mcmc and mh_sweep.

    For each index of sweeps, one sweep is the kernel call run_sweep(index),
    returning (delta_sum, tau_accepts, theta_accepts), then one
    _hyper_step.  The objective telescopes their deltas from
    trace.initial_log_posterior, so a greedy trace is exactly
    non-decreasing.  Every sweep appends a trace row and yields (index,
    objective, elapsed_ms).  Given a config the loop then stops once the
    objective moved by less than epsilon in each of the last two sweeps, or
    in the first sweep of the run, where epsilon=None resolves to
    epsilon_rel * |objective after the first sweep|; without one it runs
    all sweeps.  A single small gain between large ones is a lull of the
    stochastic search, not convergence; a start that one sweep leaves in
    place is already converged.
    """
    f = trace.initial_log_posterior
    eps = None if config is None else config.epsilon
    settled = True  # the sweep before the first counts as small
    for sweep in sweeps:
        t0 = time.perf_counter()
        dsum, acc_t, acc_h = run_sweep(sweep)
        prev = f
        f = f + dsum + _hyper_step(ws)
        elapsed = (time.perf_counter() - t0) * 1000.0
        trace.log_posterior.append(f)
        trace.tau_accepts.append(acc_t)
        trace.theta_accepts.append(acc_h)
        trace.kappa.append(ws.kappa)
        trace.elapsed_ms.append(elapsed)
        yield sweep, f, elapsed
        if config is None:
            continue
        if eps is None:
            eps = config.epsilon_rel * abs(f)
        small = abs(f - prev) < eps
        if small and settled:
            trace.converged = True
            break
        settled = small
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

    def run_sweep(sweep):
        return sweep_regions(ws, sweep, config)

    sweeps = range(1, config.max_sweeps + 1)
    for sweep, f, _ in _sweep_loop(ws, trace, sweeps, run_sweep, config):
        if on_sweep is not None:
            on_sweep(sweep, ws.to_state(), f)
    final = ws.to_state()
    trace.final_log_posterior = log_posterior(scene, final, config.hyper, forward)
    return final, trace


@dataclass
class StabilityResult:
    """Multi-start spread of the MAP AOD retrieval."""

    mean: np.ndarray
    std: np.ndarray
    n_used: int
    excluded_seeds: list


def stability_bounds(scene: Scene, forward, lattice, config, n_inits: int,
                     seeds=None) -> StabilityResult:
    """Run the MAP solver from several random initializations.

    Each run starts from init_state's "random" strategy under its own seed.
    Returns the per-region mean and population standard deviation of the
    retrieved AOD over the runs that converged within max_sweeps; runs
    that did not converge are excluded and their seeds reported.
    """
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
    return StabilityResult(mean=stack.mean(axis=0), std=stack.std(axis=0),
                           n_used=len(fields), excluded_seeds=excluded)
