"""Operational-style grid-search baseline, comparison metrics and
dominance maps; imports only model (the MAP solver's multi-start
stability bounds are map_solver.stability_bounds).

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
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigurationError, Scene, aod_domain, floor_simplex

ASSUMED_REL_NOISE = 0.05  # relative noise behind the fixed grid-search variances
# Most AOD levels of a search grid, checked before the grid is made.  The
# search holds T * G cells of C predictions a few times over: at 1000
# levels, 92 mixtures (8 components) and 36 channels each copy is 26 MB,
# and the levels of a 6-AOD range are already 0.006 apart (13 by default).
MAX_TAU_LEVELS = 1000


def default_candidate_mixtures(n_components: int) -> np.ndarray:
    """One-hot, pairwise 50/50 and equal-thirds candidate mixtures.

    For 8 components this yields 8 + 28 + 56 = 92 candidates, the same
    flavor of pre-defined composition list the operational approach uses.
    """
    rows = []
    for k in (1, 2, 3):
        for members in itertools.combinations(range(n_components), k):
            r = np.zeros(n_components)
            r[list(members)] = 1.0 / k
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
        """13 AOD levels over the table's one AOD domain (model.aod_domain),
        combinatorial mixtures.

        The fixed noise variances are (ASSUMED_REL_NOISE * mean channel
        radiance)^2, so a candidate fitting within the assumed noise scores
        about C/2; the threshold defaults to the available channel count
        (roughly 1.4 assumed noise units per channel).
        """
        if not 2 <= n_tau_levels <= MAX_TAU_LEVELS:
            raise ConfigurationError(
                f"n_tau_levels must be in [2, {MAX_TAU_LEVELS}], got {n_tau_levels}")
        if success_threshold is None:
            success_threshold = float(scene.channel_mask.sum())
        level = np.maximum(ASSUMED_REL_NOISE * scene.radiance.mean(axis=0), 1e-6)
        return cls(
            tau_levels=np.linspace(*aod_domain(table), n_tau_levels),
            candidate_mixtures=default_candidate_mixtures(table.n_components),
            sigma2_fixed=level**2,
            success_threshold=float(success_threshold),
        )

    def validate(self, table) -> None:
        if self.candidate_mixtures.size == 0 or self.tau_levels.size == 0:
            raise ConfigurationError("empty grid-search candidate grid")
        if self.tau_levels.size > MAX_TAU_LEVELS:
            raise ConfigurationError(f"tau_levels must hold at most {MAX_TAU_LEVELS} levels, "
                                     f"got {self.tau_levels.size}")
        lo, hi = aod_domain(table)
        if np.any(self.tau_levels < lo) or np.any(self.tau_levels > hi):
            raise ConfigurationError("tau_levels outside [max(0, tau_min), tau_max]")
        sums = self.candidate_mixtures.sum(axis=1)
        if np.any(self.candidate_mixtures < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ConfigurationError("candidate mixtures must lie on the simplex")
        if not np.all(np.isfinite(self.sigma2_fixed)) or np.any(self.sigma2_fixed <= 0):
            raise ConfigurationError("sigma2_fixed must be finite and positive")
        # inf is legal: every region succeeds and returns the grid mean
        if not self.success_threshold > 0:
            raise ConfigurationError(f"success_threshold must be > 0, got {self.success_threshold}")


_GRID_CELLS = 1 << 18  # misfit cells (rows x T*G) per row block; bounds its temporaries
_TIE_ULPS = 16  # candidates of one level within this many ulps of its scale tie


def _tie_groups(pred: np.ndarray, mixtures: np.ndarray):
    """Fallback theta and tie-group id of every grid cell, (T*G, M) and (T*G,).

    At each level, candidate j ties with the first candidate i whose
    prediction differs from j's by at most _TIE_ULPS * eps times the
    level's largest radiance on every channel, and its tie group is every
    candidate that ties with the same i.  A cell alone in its group keeps
    its mixture; a larger group gives each member floor_simplex of the
    group's mean mixture.  A cell's group id is t * G + i, so two cells
    with one id return the same level and the same fallback theta.  A pair
    further apart than the tolerance on channel 0 cannot tie, so each
    candidate's all-channel distance is taken only to the candidates that
    pass channel 0, in index order, until the first tie (itself at worst).
    """
    T, G, _ = pred.shape
    theta = np.tile(mixtures, (T, 1)).reshape(T, G, -1)
    group = np.empty((T, G), dtype=np.intp)
    for t, level in enumerate(pred):
        tol = _TIE_ULPS * np.finfo(float).eps * np.abs(level).max()
        screen = np.abs(level[:, :1] - level[:, 0]) <= tol  # [i, k]: may tie
        label = np.empty(G, dtype=np.intp)
        k = np.arange(G)
        while k.size:
            i = screen[:, k].argmax(axis=0)
            tie = np.abs(level[i] - level[k]).max(axis=1) <= tol
            label[k[tie]] = i[tie]
            screen[i[~tie], k[~tie]] = False
            k = k[~tie]
        for lead in np.flatnonzero(np.bincount(label, minlength=G) > 1):
            members = label == lead
            theta[t, members] = floor_simplex(mixtures[members].mean(axis=0))
        group[t] = t * G + label
    return theta.reshape(T * G, -1), group.ravel()


def _direct_chi2(obs: np.ndarray, pred: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise weighted misfit sum_c w_c (obs - pred)^2 in residual form."""
    resid = obs - pred
    return np.einsum("kc,c->k", resid * resid, w)


def grid_search_retrieve(scene: Scene, table, config: GridSearchConfig):
    """Independent per-region grid search; returns (tau, theta, success).

    Scores every (tau level, mixture) pair by the weighted least-square
    misfit with the configured fixed noise variances, over available
    channels only.  Regions whose best misfit clears success_threshold
    return the mean of all clearing pairs (theta renormalized); the rest
    return the argmin pair with success False.  When the argmin pair ties
    with other mixtures at its level (at tau = 0 every mixture gives the
    same surface radiance), the region returns floor_simplex of the tie
    group's mean mixture instead (see _tie_groups), so rounding does not
    pick the composition.

    The misfit is expanded as ||o||^2_w - 2 (o*w).p + ||p||^2_w, so a row
    block of regions is scored by one matrix product,
    [o | 1 | ||o||^2_w] (B x C+2) times [-2 (w*p)^T ; ||p||^2_w ; 1]
    (C+2 x T*G), with no full-matrix adds.  The block holds at most
    _GRID_CELLS misfits; the left factor and the product fill two reusable
    buffers, so memory does not grow with the scene and a long tau grid
    only shrinks the block.  Each product sums C+2 terms whose magnitudes
    add up to at most 2 (||o||^2_w + ||p||^2_w), in whatever order BLAS
    takes them, so rb = 2 (C+2) eps (||o||^2_w + max ||p||^2_w) bounds its
    rounding; the expanded form loses digits when the misfit is small
    against that.  Every cell within rb of the threshold is scored again
    in residual form, so success is decided as the residual form decides
    it.  A failing row returns its argmin cell's level and fallback theta,
    so what the residual form must decide is that output, not the argmin
    index.  When the row's runner-up (the minimum with the argmin cell
    masked out) lies within 2 rb of its minimum, the residual-form argmin
    may be any cell that close.  If all of them lie in the argmin cell's
    tie group they give one output and the row is left as it is; otherwise
    every cell that close is scored again in residual form and the row
    returns the first minimum, so the output is the residual form's.  At
    the default grid the near-ties are the AOD-0 cells, one group, so a
    search rescores no row for them.  The clearing means sum per-level and
    per-mixture counts of the clearing cells times the levels and the
    mixtures, row by row, so a region's output does not depend on the
    other regions in its block.
    """
    config.validate(table)
    levels, mixtures = config.tau_levels, config.candidate_mixtures
    thr = config.success_threshold
    T, G = levels.size, mixtures.shape[0]
    tau_grid = np.repeat(levels, G)
    flat_pred = table.eval_batch(tau_grid, np.tile(mixtures, (T, 1)))  # level-major cells
    fallback_theta, group = _tie_groups(flat_pred.reshape(T, G, -1), mixtures)
    obs_all = scene.radiance
    C = scene.channels
    w = scene.channel_mask / (2.0 * config.sigma2_fixed)
    p_norm = np.einsum("jc,jc,c->j", flat_pred, flat_pred, w)
    o_norm = np.einsum("ic,ic,c->i", obs_all, obs_all, w)
    right = np.empty((C + 2, T * G))
    right[:C] = -2.0 * (flat_pred * w).T
    right[C] = p_norm
    right[C + 1] = 1.0
    bound = 2 * (C + 2) * np.finfo(float).eps * (o_norm + p_norm.max())
    P = scene.n_regions
    M = table.n_components
    tau_out = np.empty(P)
    theta_out = np.empty((P, M))
    success = np.zeros(P, dtype=bool)
    block = max(1, _GRID_CELLS // (T * G))
    left = np.empty((min(block, P), C + 2))
    left[:, C] = 1.0
    product = np.empty((left.shape[0], T * G))
    for start in range(0, P, block):
        rows = slice(start, start + block)
        obs, rb = obs_all[rows], bound[rows]
        b = obs.shape[0]
        lb = left[:b]
        lb[:, :C] = obs
        lb[:, C + 1] = o_norm[rows]
        chi2 = np.matmul(lb, right, out=product[:b])
        at = np.arange(b)
        best = chi2.argmin(axis=1)
        low = chi2[at, best]
        chi2[at, best] = np.inf
        runner_up = chi2.min(axis=1)
        chi2[at, best] = low
        # rows whose best cell may clear the threshold: decide each cell
        hit = np.flatnonzero(low < thr + rb)
        if hit.size:
            sub = chi2[hit]
            below = sub < thr
            i, j = np.nonzero(np.abs(sub - thr) <= rb[hit, None])
            if i.size:
                below[i, j] = _direct_chi2(obs[hit[i]], flat_pred[j], w) < thr
            count = below.sum(axis=1)
            ok = count > 0
            hits, n, won = below[ok].reshape(-1, T, G), count[ok], hit[ok]
            tau_out[rows][won] = (hits.sum(axis=2) * levels).sum(axis=1) / n
            mix_sum = (hits.sum(axis=1)[:, :, None] * mixtures).sum(axis=1)
            theta_out[rows][won] = floor_simplex(mix_sum / n[:, None])
            success[rows][won] = True
        # failing rows whose minimum is not clear of the runner-up: argmin
        # over the near-minimal cells in residual form, unless those cells
        # all lie in the argmin's tie group and so give its output
        fail = ~success[rows]
        redo = np.flatnonzero((runner_up <= low + 2.0 * rb) & fail)
        near = chi2[redo] <= (low[redo] + 2.0 * rb[redo])[:, None]
        mixed = (near & (group != group[best[redo], None])).any(axis=1)
        redo, near = redo[mixed], near[mixed]
        if redo.size:
            i, j = np.nonzero(near)
            exact = np.full(near.shape, np.inf)
            exact[i, j] = _direct_chi2(obs[redo[i]], flat_pred[j], w)
            best[redo] = exact.argmin(axis=1)
        tau_out[rows][fail] = tau_grid[best[fail]]
        theta_out[rows][fail] = fallback_theta[best[fail]]
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


def _pow2_exponent(*arrays) -> int:
    """e such that the largest magnitude in arrays times 2**-e lies in
    [0.5, 1); 0 when every entry is zero."""
    return math.frexp(max(np.abs(a).max() for a in arrays))[1]


def compute_metrics(retrieved, reference) -> MetricsReport:
    """RMSE, Pearson correlation and mean bias of retrieved vs reference.

    Population (divide-by-N) conventions throughout, so the decomposition
    rmse^2 = bias^2 + var(error) is exact.  Non-finite entries raise
    ConfigurationError.  A constant reference or
    retrieved field leaves the correlation undefined (flagged, stored as
    nan).  The errors are taken between the two fields scaled by one
    power of two that brings their largest magnitude into [0.5, 1), the
    RMSE and bias scaled back, and each field's deviations from its mean
    are taken after scaling it alone the same way, so no square or sum
    overflows: a result that a float can hold comes out finite.  Outside
    the subnormal range the scaling is exact, so the results have the
    bits of the unscaled formulas.
    """
    r = np.asarray(retrieved, dtype=float)
    t = np.asarray(reference, dtype=float)
    if r.shape != t.shape:
        raise ConfigurationError("retrieved and reference lengths differ")
    if r.size < 2:
        raise ConfigurationError("need at least 2 entries")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        raise ConfigurationError("retrieved and reference values must be finite")
    scale = _pow2_exponent(r, t)
    err = np.ldexp(r, -scale) - np.ldexp(t, -scale)
    rmse = float(np.ldexp(np.sqrt(np.mean(err**2)), scale))
    bias = float(np.ldexp(np.mean(err), scale))
    sr = np.ldexp(r, -_pow2_exponent(r))
    st = np.ldexp(t, -_pow2_exponent(t))
    if np.ptp(sr) == 0 or np.ptp(st) == 0:  # mean() need not return the constant exactly
        corr, defined = float("nan"), False
    else:
        sr -= sr.mean()
        st -= st.mean()
        denom = math.sqrt(float(np.sum(sr**2)) * float(np.sum(st**2)))
        corr, defined = float(np.sum(sr * st) / denom), True
    return MetricsReport(
        rmse=rmse,
        correlation=corr,
        correlation_defined=defined,
        mean_bias=bias,
        n=int(r.size),
        per_region_error=r - t,
    )


def dominance_map(theta: np.ndarray, component_ids=None):
    """Per-region dominant component id and its share, for side-by-side
    comparisons of composition fields.

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
