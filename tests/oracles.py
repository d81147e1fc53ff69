"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and the
math module, independent of the library's vectorized evaluation paths.
"""

import math
from decimal import Decimal

import numpy as np

THETA_FLOOR = 1e-12


def oracle_eval_radiance(table, tau, theta):
    """Loop-based linear interpolation + mixing over the table.

    Per channel: the lower-knot terms (theta_m (1 - w)) L_m(k), summed
    over m in order, plus the upper-knot terms (theta_m w) L_m(k + 1),
    summed the same way; the grouping eval_batch uses, so a rendered
    radiance scores an exact zero misfit here too."""
    knots = [float(k) for k in table.tau_knots]
    vals = table.values
    k = 0
    while k < len(knots) - 2 and tau > knots[k + 1]:
        k += 1
    w = (tau - knots[k]) / (knots[k + 1] - knots[k])
    M, _, C = vals.shape
    out = np.zeros(C)
    for c in range(C):
        lower = 0.0
        upper = 0.0
        for m in range(M):
            lower += (theta[m] * (1.0 - w)) * vals[m, k, c]
        for m in range(M):
            upper += (theta[m] * w) * vals[m, k + 1, c]
        out[c] = lower + upper
    return out


def oracle_chi2_region(scene, state, table, p):
    pred = oracle_eval_radiance(table, state.tau[p], state.theta[p])
    total = 0.0
    for c in range(scene.channels):
        if scene.channel_mask[c]:
            r = scene.radiance[p, c] - pred[c]
            total += r * r / (2.0 * state.sigma2[c])
    return total


def oracle_log_posterior(scene, state, hyper, table):
    """Term-by-term evaluation of the joint log-posterior."""
    P = scene.n_regions
    f = 0.5 * (P - 3) * math.log(state.kappa)
    for c in range(scene.channels):
        if scene.channel_mask[c]:
            f -= 0.5 * (P + 2) * math.log(2.0 * math.pi * state.sigma2[c])
    for p in range(P):
        f -= oracle_chi2_region(scene, state, table, p)
    for r in range(scene.height):
        for c in range(scene.width):
            p = r * scene.width + c
            if c + 1 < scene.width:
                d = state.tau[p] - state.tau[p + 1]
                f -= 0.5 * state.kappa * d * d
            if r + 1 < scene.height:
                d = state.tau[p] - state.tau[p + scene.width]
                f -= 0.5 * state.kappa * d * d
    M = state.theta.shape[1]
    for p in range(P):
        for m in range(M):
            f += (hyper.alpha[m] - 1.0) * math.log(max(state.theta[p, m], THETA_FLOOR))
    f += math.lgamma(float(sum(hyper.alpha)))
    for a in hyper.alpha:
        f -= math.lgamma(float(a))
    return f


def oracle_neighbours(width, height):
    """Each region's 4-neighbours in slot order (above, left, right,
    below), built cell by cell from the grid shape alone."""
    out = []
    for r in range(height):
        for c in range(width):
            p = r * width + c
            nbrs = []
            if r > 0:
                nbrs.append(p - width)
            if c > 0:
                nbrs.append(p - 1)
            if c < width - 1:
                nbrs.append(p + 1)
            if r < height - 1:
                nbrs.append(p + width)
            out.append(nbrs)
    return out


def golden_max(fn, lo, hi, iters=300):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def pearson_textbook(x, y):
    """Direct textbook Pearson correlation with explicit loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    sxx = sum((xi - mx) ** 2 for xi in x)
    syy = sum((yi - my) ** 2 for yi in y)
    return sxy / math.sqrt(sxx * syy)


def oracle_sweep_regions(ws, sweep, config, mode="greedy"):
    """The region-by-region colour-ordered sweep the vectorised kernel
    replaces, fed the same draw blocks.

    Visits every region of colour 0 and then of colour 1, each in
    ascending order, one at a time, tau then theta per region, and takes
    region p's draws from its row of its colour's block (its rank among
    the regions of its colour), drawn when the first region of that
    colour comes up.  Colours and neighbor slots are rebuilt from the
    grid shape (oracle_neighbours), the slots packed to the left, and
    every library helper sees a single row.  Each step's misfit change
    is computed afresh from ws.pred as it stands, so the kernel's carried
    misfit must match it bit for bit.  Returns (delta_sum, tau_accepts,
    theta_accepts), the sum added region by region.
    """
    from aodlattice.map_solver import (
        _draw_block,
        _draw_tau,
        _draw_theta,
        _theta_conc,
        _theta_log_q_ratio,
        mh_accept,
    )
    from aodlattice.model import _misfit, _safe_log_theta, _tau_delta, _theta_delta

    width, height = ws.lattice.width, ws.lattice.height
    P = width * height
    neighbours = oracle_neighbours(width, height)
    colour = [(p // width + p % width) % 2 for p in range(P)]
    members = [[q for q in range(P) if colour[q] == c] for c in (0, 1)]
    tau, theta, fwd = ws.tau, ws.theta, ws.forward
    w = ws.mask / (2.0 * ws.sigma2)
    mh = mode == "mh"

    def slots(values, p):
        nb = neighbours[p]
        out = np.zeros((1, 4) + values.shape[1:])
        out[0, : len(nb)] = values[nb]
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, : len(nb)] = True
        return out, mask, np.array([len(nb)])

    def dchi(p, pred_new):
        # region p's misfit change, both misfits from scratch: nothing carried
        obs = ws.obs[[p]]
        return _misfit(obs, pred_new[None], w) - _misfit(obs, ws.pred[[p]], w)

    blocks = {}
    dsum, acc_t, acc_h = 0.0, 0, 0
    for p in members[0] + members[1]:
        c = colour[p]
        if c not in blocks:
            conc = np.concatenate([_theta_conc(*slots(theta, q)[::2]) for q in members[c]])
            blocks[c] = (conc,) + _draw_block(config.seed, sweep, c, conc, mh)
        conc, z, gammas, u = blocks[c]
        i = members[c].index(p)

        ntau, nmask, n_p = slots(tau, p)
        mean, raw = _draw_tau(ntau, n_p, config.delta, z[[i]])
        t_old = tau[[p]]
        cand = np.array([min(max(float(raw[0]), ws.tau_lo), ws.tau_hi)])
        pred_new = fwd.eval_batch(cand, theta[[p]])[0]
        df = _tau_delta(dchi(p, pred_new), t_old, cand, ntau, nmask, ws.kappa)[0]
        if mh:
            # Gaussian log q(old)/q(raw) as h(raw) - h(old), -inf off support
            r, o, m = float(raw[0]), float(t_old[0]), float(mean[0])
            two_var = 2.0 * config.delta * config.delta
            log_q = (r - m) * (r - m) / two_var - (o - m) * (o - m) / two_var
            if not ws.tau_lo <= r <= ws.tau_hi:
                log_q = -math.inf
            accept = mh_accept(u[0, i], df, log_q)
        else:
            accept = df > 0.0
        if accept:
            tau[p] = cand[0]
            ws.pred[p] = pred_new
            dsum += df
            acc_t += 1

        row = _draw_theta(gammas()[[i]])[0]
        pred_new = fwd.eval_batch(tau[[p]], row[None])[0]
        log_old = _safe_log_theta(theta[p])
        log_new = _safe_log_theta(row)
        df = _theta_delta(dchi(p, pred_new), log_old[None], log_new[None], ws.alpha_m1)[0]
        if mh:
            accept = mh_accept(u[1, i], df, _theta_log_q_ratio(conc[i], log_old, log_new))
        else:
            accept = df > 0.0
        if accept:
            theta[p] = row
            ws.pred[p] = pred_new
            dsum += df
            acc_h += 1
    return dsum, acc_t, acc_h


def oracle_toy_tau_chain(log_target, proposal_mean, delta, n_samples, seed=0, lo=0.0,
                         hi=6.0, warmup=0):
    """The toy tau chain step by step: one MH decision per proposal, the
    Gaussian ratio log q(x)/q(raw) written out, and the accept rule
    mh_accept called on scalars.  Same streams and return values as
    mcmc.toy_tau_chain."""
    from aodlattice.map_solver import mh_accept

    prop = np.random.default_rng([seed, 1])
    acc = np.random.default_rng([seed, 2])
    total = warmup + n_samples
    raws = proposal_mean + delta * prop.standard_normal(total)
    uniforms = acc.random(total)
    log_t = log_target(np.clip(raws, lo, hi))
    x = min(max(proposal_mean, lo), hi)
    lt_x = float(log_target(np.array([x]))[0])
    samples = np.empty(n_samples)
    accepted = 0
    for i in range(total):
        raw = float(raws[i])
        log_q = -math.inf
        if lo <= raw <= hi:
            d_raw, d_x = raw - proposal_mean, x - proposal_mean
            log_q = (d_raw**2 - d_x**2) / (2.0 * delta * delta)
        if mh_accept(uniforms[i], float(log_t[i]) - lt_x, log_q):
            x = raw
            lt_x = float(log_t[i])
            if i >= warmup:
                accepted += 1
        if i >= warmup:
            samples[i - warmup] = x
    return samples, accepted / n_samples


def oracle_grid_search(scene, table, config):
    """The region-by-region grid search the blocked matrix product replaces.

    Builds the residual tensor (block x T*G x C) and scores every cell in
    residual form, then walks the block's regions one at a time: the mean
    of the clearing cells, or the argmin cell with success False.  An
    argmin cell takes its theta from oracle_tie_theta.
    """
    from aodlattice.model import floor_simplex

    config.validate(table)
    T = config.tau_levels.size
    G = config.candidate_mixtures.shape[0]
    tau_grid = np.repeat(config.tau_levels, G)
    mix_grid = np.tile(config.candidate_mixtures, (T, 1))
    flat_pred = table.eval_batch(tau_grid, mix_grid)
    pred = flat_pred.reshape(T, G, -1)
    mask = scene.channel_mask
    w = mask / (2.0 * config.sigma2_fixed)
    P = scene.n_regions
    M = table.n_components
    tau_out = np.empty(P)
    theta_out = np.empty((P, M))
    success = np.zeros(P, dtype=bool)
    labels = {}
    block = max(1, 4_000_000 // max(T * G * scene.channels, 1))
    for start in range(0, P, block):
        obs = scene.radiance[start : start + block]
        resid = obs[:, None, :] - flat_pred[None, :, :]
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
                theta_out[start + i] = oracle_tie_theta(pred, config.candidate_mixtures, j,
                                                        labels)
    return tau_out, theta_out, success


def oracle_tie_theta(pred, mixtures, j, labels):
    """Theta of argmin cell j under the tie rule, candidate by candidate.

    Candidate k of level t ties with the first candidate i whose radiance
    is within _TIE_ULPS ulps of the level's largest radiance on every
    channel; k's group is every candidate tying with the same i.  labels
    caches each level's first-tie indices.
    """
    from aodlattice.baselines import _TIE_ULPS
    from aodlattice.model import floor_simplex

    G = pred.shape[1]
    t, g = divmod(j, G)
    level = pred[t]
    if t not in labels:
        tol = _TIE_ULPS * np.finfo(float).eps * np.abs(level).max()
        first = []
        for k in range(G):
            i = 0
            while np.abs(level[i] - level[k]).max() > tol:
                i += 1
            first.append(i)
        labels[t] = np.array(first)
    members = labels[t] == labels[t][g]
    if members.sum() == 1:
        return mixtures[g]
    return floor_simplex(mixtures[members].mean(axis=0))


def oracle_float_spelling(v):
    """The CSV spelling of one float, from repr's digits and exponent:
    decimal notation for 0 and for 1e-5 <= |v| < 1e16, an exponent with
    no "+" and no leading zero otherwise, and repr's nan, inf and -inf."""
    text = repr(float(v))
    if not math.isfinite(v):
        return text
    negative, digits, exp = Decimal(text).normalize().as_tuple()
    sign = "-" if negative else ""
    if not any(digits):
        return sign + "0.0"
    digits = "".join(map(str, digits))
    e = exp + len(digits) - 1  # v = d.ddd x 10**e
    if -5 <= e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    if 0 <= e <= 15:
        return f"{sign}{digits[:e + 1].ljust(e + 1, '0')}.{digits[e + 1:] or '0'}"
    rest = f".{digits[1:]}" if len(digits) > 1 else ""
    return f"{sign}{digits[0]}{rest}e{e}"


def oracle_matrix_csv(array):
    """The text of a headerless matrix CSV written one value at a time,
    oracle_float_spelling per value, one str.join per row (a 1-D array is
    one row)."""
    array = np.atleast_2d(np.asarray(array, dtype=float))
    return "".join(",".join(oracle_float_spelling(v) for v in row) + "\n" for row in array)
