"""MCMC baseline: accept rule, toy-chain calibration, greedy equivalence."""

import math
import warnings

import numpy as np
import pytest

import aodlattice as al
from aodlattice import map_solver
from aodlattice.map_solver import (
    Workspace,
    _draw_theta,
    _tau_log_q,
    _theta_log_q_ratio,
    mh_accept,
)
from aodlattice.mcmc import toy_tau_chain
from aodlattice.model import _safe_log_theta, _theta_delta

from conftest import random_scene
from oracles import oracle_toy_tau_chain


def _toy_log_target(x):
    # skewed two-bump density on [0, 6]; analytically evaluable everywhere
    return np.log(
        0.7 * np.exp(-0.5 * ((x - 0.4) / 0.12) ** 2)
        + 0.3 * np.exp(-0.5 * ((x - 0.9) / 0.2) ** 2)
    )


def _quadrature_acceptance(mean, delta, lo, hi, n=1500):
    """Expected stationary acceptance rate by direct 2-D quadrature.

    A = E_pi(x) E_q(y) [ accept(x, y) ] with accept = min(1, r) inside the
    support and 0 outside (out-of-support proposals are auto-rejected).
    """
    xs = np.linspace(lo, hi, n)
    pi = np.exp(_toy_log_target(xs))
    pi /= pi.sum()
    # proposal grid wide enough to capture essentially all q mass
    ys = np.linspace(mean - 8 * delta, mean + 8 * delta, n)
    q = np.exp(-0.5 * ((ys - mean) / delta) ** 2)
    q /= q.sum()
    in_support = (ys >= lo) & (ys <= hi)
    log_pi_x = _toy_log_target(xs)
    log_pi_y = _toy_log_target(np.clip(ys, lo, hi))
    log_q_x = -0.5 * ((xs - mean) / delta) ** 2
    log_q_y = -0.5 * ((ys - mean) / delta) ** 2
    log_r = (log_pi_y[None, :] - log_pi_x[:, None]) + (log_q_x[:, None] - log_q_y[None, :])
    acc = np.minimum(1.0, np.exp(np.minimum(log_r, 0.0)))
    acc[:, ~in_support] = 0.0
    return float(pi @ acc @ q)


class TestAcceptRule:
    def test_zero_delta_symmetric_accepts_with_probability_one(self):
        rng = np.random.default_rng(0)
        assert mh_accept(rng.random(100_000), 0.0, 0.0).all()

    def test_large_negative_delta_rejects(self):
        rng = np.random.default_rng(1)
        assert not mh_accept(rng.random(10_000), -50.0, 0.0).any()

    def test_zero_uniform_accepts_without_error(self):
        """Generator.random() can return 0.0: its log is -inf, which accepts
        any finite right-hand side and rejects an out-of-support -inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mh_accept(0.0, -1e300, 0.0)
            got = mh_accept(np.zeros(3), np.array([-50.0, 0.0, 5.0]), np.array([0.0, -7.0, -np.inf]))
        np.testing.assert_array_equal(got, [True, True, False])

    def test_kernel_with_zero_uniforms_accepts_every_supported_proposal(self, small_table,
                                                                        monkeypatch):
        """An accept stream that returns only 0.0 makes the MH sweep accept
        every in-support tau proposal and every theta proposal."""

        class ZeroUniforms:
            def random(self, size=None):
                return np.zeros(size) if size is not None else 0.0

        monkeypatch.setattr(map_solver, "accept_rng", lambda seed, sweep, colour: ZeroUniforms())
        rng = np.random.default_rng(9)
        scene = random_scene(small_table, rng, 5, 4)
        lat = al.build_lattice(5, 4)
        hyper = al.HyperParams.uniform(3)
        init = al.init_state(scene, small_table, "flat", hyper)
        init.tau[:] = 0.02  # proposals of width 0.05 leave [0, 6] often
        ws = Workspace(scene, small_table, lat, hyper, init)
        cfg = al.SolverConfig(hyper=hyper, seed=4)
        _, acc_t, acc_h = map_solver.sweep_regions(ws, 1, cfg, mode="mh")
        assert acc_h == lat.n_regions
        assert 0 < acc_t < lat.n_regions
        assert np.all(ws.tau >= 0.0)
        changed = np.count_nonzero(ws.tau != init.tau)
        assert changed == acc_t


class TestToyChain:
    def test_acceptance_rate_matches_quadrature(self):
        mean, delta, lo, hi = 0.55, 0.18, 0.0, 6.0
        want = _quadrature_acceptance(mean, delta, lo, hi)
        samples, rate = toy_tau_chain(
            _toy_log_target, mean, delta, n_samples=100_000, seed=3,
            lo=lo, hi=hi, warmup=5_000,
        )
        # batch-means standard error handles chain autocorrelation
        k = 100
        batches = samples[: (len(samples) // k) * k].reshape(k, -1)
        acc_series = np.concatenate([[1.0], (np.diff(samples) != 0).astype(float)])
        ab = acc_series[: (len(acc_series) // k) * k].reshape(k, -1).mean(axis=1)
        se = ab.std(ddof=1) / math.sqrt(k)
        assert abs(rate - want) < 3 * max(se, 1e-4)

    def test_stationary_distribution_total_variation(self):
        # smaller twin of the acceptance-gate check: 1e5 samples, TV < 0.1
        lo, hi = 0.0, 6.0
        samples, _ = toy_tau_chain(
            _toy_log_target, 0.55, 0.18, n_samples=100_000, seed=4,
            lo=lo, hi=hi, warmup=5_000,
        )
        edges = np.linspace(0.0, 2.0, 41)
        hist, _ = np.histogram(samples, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        target = np.exp(_toy_log_target(centers))
        target /= target.sum()
        emp = hist / hist.sum()
        tv = 0.5 * np.abs(emp - target).sum()
        assert tv < 0.1

    # (proposal mean, delta, lo, hi, seed): criterion 9's chain and the two
    # above; a narrow support that rejects most proposals; a start clamped to
    # hi with most proposals above it
    ORACLE_CASES = [
        (0.55, 0.18, 0.0, 6.0, 103), (0.55, 0.18, 0.0, 6.0, 3), (0.55, 0.18, 0.0, 6.0, 4),
        (0.1, 0.5, 0.0, 0.6, 5), (0.9, 0.3, 0.0, 0.6, 6),
    ]

    @pytest.mark.parametrize("mean, delta, lo, hi, seed", ORACLE_CASES)
    def test_equals_step_by_step_oracle(self, mean, delta, lo, hi, seed):
        """The array-driven chain makes the per-step chain's decisions:
        samples and acceptance rate bitwise."""
        args = (_toy_log_target, mean, delta, 20_000)
        kwargs = dict(seed=seed, lo=lo, hi=hi, warmup=2_000)
        samples, rate = toy_tau_chain(*args, **kwargs)
        want_samples, want_rate = oracle_toy_tau_chain(*args, **kwargs)
        np.testing.assert_array_equal(samples, want_samples)
        assert rate == want_rate
        assert 0.0 < rate < 1.0


class TestTauLogQ:
    MEAN, DELTA, LO, HI = 0.3, 0.05, 0.0, 0.6

    def h(self, x):
        return _tau_log_q(x, self.MEAN, self.DELTA, self.LO, self.HI)

    def test_difference_is_the_gaussian_ratio(self):
        """h(raw) - h(old) is log q(old)/q(raw) of the Gaussian proposal."""
        rng = np.random.default_rng(8)
        raw = rng.uniform(self.LO, self.HI, 1000)
        old = rng.uniform(self.LO, self.HI, 1000)

        def log_q(x):
            return -0.5 * ((x - self.MEAN) / self.DELTA) ** 2

        np.testing.assert_allclose(self.h(raw) - self.h(old), log_q(old) - log_q(raw),
                                   rtol=1e-12, atol=1e-9)

    def test_outside_support_is_minus_inf(self):
        x = np.array([-1e-12, -0.3, np.nextafter(self.HI, 7.0), 2.0])
        assert np.all(self.h(x) == -np.inf)

    def test_support_ends_are_inside(self):
        ends = np.array([self.LO, self.HI])
        got = self.h(ends)
        np.testing.assert_allclose(got, (ends - self.MEAN) ** 2 / (2 * self.DELTA**2),
                                   rtol=1e-14)


def _beta_bin_probs(a, b, edges, n=4000):
    """Bin probabilities of Beta(a, b) by midpoint quadrature per bin."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        pdf = np.exp(log_norm + (a - 1) * np.log(x) + (b - 1) * np.log1p(-x))
        probs.append(pdf.mean() * (hi - lo))
    return np.array(probs)


class TestDirichletChain:
    def test_stationary_marginal_total_variation(self):
        """One region's composition under the kernel's MH theta move: the
        Dirichlet(conc) proposal of _draw_theta, the Hastings term of
        _theta_log_q_ratio and the Dirichlet delta of _theta_delta, with a
        zero misfit change.  The target is Dirichlet(alpha); the chain's
        marginal of each component must match its Beta marginal within TV
        0.05."""
        alpha = np.array([2.0, 3.0, 1.5])
        conc = np.array([1.0, 1.5, 2.0])  # >= 1: no floor or zero-total fallback fires
        n = 60_000
        rng = np.random.default_rng(77)
        rows = _draw_theta(rng.standard_gamma(np.tile(conc, (n, 1))))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert rows.min() > 1e-9
        log_rows = _safe_log_theta(rows)
        uniforms = rng.random(n)
        x = np.full(3, 1.0 / 3.0)
        log_x = _safe_log_theta(x)
        samples = np.empty((n, 3))
        for i in range(n):
            log_new = log_rows[i]
            df = _theta_delta(0.0, log_x[None], log_new[None], alpha - 1.0)[0]
            if mh_accept(uniforms[i], df, _theta_log_q_ratio(conc, log_x, log_new)):
                x, log_x = rows[i], log_new
            samples[i] = x
        samples = samples[2_000:]
        edges = np.linspace(0.0, 1.0, 21)
        for m in range(3):
            hist, _ = np.histogram(samples[:, m], bins=edges)
            target = _beta_bin_probs(alpha[m], alpha.sum() - alpha[m], edges)
            tv = 0.5 * np.abs(hist / hist.sum() - target / target.sum()).sum()
            assert tv < 0.05, (m, tv)


class TestMhSweep:
    def test_greedy_filter_reproduces_map_exactly(self, small_table):
        """Greedy-filtered MH and the MAP solver share seed and trajectory."""
        rng = np.random.default_rng(5)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        seed = 6
        sweeps = 8
        cfg = al.SolverConfig(hyper=hyper, seed=seed, max_sweeps=sweeps, epsilon=1e-12)
        init = al.init_state(scene, small_table, "flat", hyper)
        map_states = []
        al.run_map(scene, small_table, lat, cfg, init,
                   on_sweep=lambda s, st, f: map_states.append(st))

        mcfg = al.McmcConfig(hyper=hyper, iterations=sweeps, burn_in=0, thin=1,
                             delta=cfg.delta, seed=seed)
        state = init
        for sweep in range(1, sweeps + 1):
            state = al.mh_sweep(state, scene, small_table, lat, mcfg, sweep, greedy=True)
            np.testing.assert_array_equal(state.tau, map_states[sweep - 1].tau)
            np.testing.assert_array_equal(state.theta, map_states[sweep - 1].theta)
            np.testing.assert_array_equal(state.sigma2, map_states[sweep - 1].sigma2)
            assert state.kappa == map_states[sweep - 1].kappa

    def test_mh_mode_differs_from_greedy(self, small_table):
        rng = np.random.default_rng(7)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        mcfg = al.McmcConfig(hyper=hyper, iterations=4, burn_in=0, thin=1, seed=8)
        init = al.init_state(scene, small_table, "flat", hyper)
        greedy = al.mh_sweep(init, scene, small_table, lat, mcfg, 1, greedy=True)
        mh = al.mh_sweep(init, scene, small_table, lat, mcfg, 1, greedy=False)
        assert not np.array_equal(greedy.tau, mh.tau)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan")])
    def test_invalid_delta_rejected(self, small_table, delta):
        rng = np.random.default_rng(9)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        mcfg = al.McmcConfig(hyper=hyper, delta=delta)
        init = al.init_state(scene, small_table, "flat", hyper)
        for greedy in (False, True):
            with pytest.raises(al.ConfigurationError, match="delta"):
                al.mh_sweep(init, scene, small_table, lat, mcfg, 1, greedy=greedy)

    def test_off_simplex_state_rejected(self, small_table):
        """A theta row of [2, 0, 0] is refused, not silently overwritten."""
        rng = np.random.default_rng(10)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        mcfg = al.McmcConfig(hyper=hyper)
        init = al.init_state(scene, small_table, "flat", hyper)
        init.theta[0] = [2.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="theta rows must sum to 1"):
            al.mh_sweep(init, scene, small_table, lat, mcfg, 1)

    @pytest.mark.parametrize("greedy", [True, False])
    def test_zero_kappa_state_raises_initialization_error(self, small_table, greedy):
        """kappa = 0 passes validate_state but makes the kappa term -inf: the
        sweep refuses the state as run_map and run_mcmc do, naming the term,
        instead of failing later in the closed-form kappa step."""
        rng = np.random.default_rng(11)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        mcfg = al.McmcConfig(hyper=hyper)
        init = al.init_state(scene, small_table, "flat", hyper)
        init.kappa = 0.0
        al.validate_state(init, hyper)
        with pytest.raises(al.InitializationError, match="kappa_term"):
            al.mh_sweep(init, scene, small_table, lat, mcfg, 1, greedy=greedy)
        with pytest.raises(al.InitializationError, match="kappa_term"):
            al.run_mcmc(scene, small_table, lat, mcfg, init)


class TestRunMcmc:
    def test_zero_variance_chain_when_all_rejected(self, small_table):
        """Perfect fit, floored noise, checkerboard field: every proposal
        (centered on the neighbor mean, hence far from the current value)
        raises the misfit astronomically and is rejected."""
        checker = np.array([(r + c) % 2 for r in range(3) for c in range(3)])
        truth_tau = np.where(checker == 0, 0.2, 0.6)
        rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]])
        truth_theta = rows[checker]
        radiance = small_table.eval_batch(truth_tau, truth_theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        lat = al.build_lattice(3, 3)
        hyper = al.HyperParams.uniform(3)
        init = al.RetrievalState(
            tau=truth_tau, theta=truth_theta, sigma2=np.full(4, 1e-12), kappa=1.0
        )
        mcfg = al.McmcConfig(hyper=hyper, iterations=40, burn_in=10, thin=2, seed=10)
        mean_state, tau_std, trace = al.run_mcmc(scene, small_table, lat, mcfg, init)
        assert sum(trace.tau_accepts) == 0
        assert sum(trace.theta_accepts) == 0
        np.testing.assert_array_equal(tau_std, np.zeros(9))
        np.testing.assert_array_equal(mean_state.tau, truth_tau)

    def test_moments_and_trace_shapes(self, small_table):
        rng = np.random.default_rng(11)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        mcfg = al.McmcConfig(hyper=hyper, iterations=60, burn_in=20, thin=4, seed=12)
        init = al.init_state(scene, small_table, "flat", hyper)
        kept = []
        mean_state, tau_std, trace = al.run_mcmc(
            scene, small_table, lat, mcfg, init, sample_sink=lambda s, t: kept.append(s)
        )
        assert len(kept) == 10
        assert np.all(tau_std >= 0)
        al.validate_state(mean_state, hyper)
        assert trace.sweeps == 60

    def test_config_validation(self):
        hyper = al.HyperParams.uniform(3)
        with pytest.raises(al.ConfigurationError):
            al.McmcConfig(hyper=hyper, iterations=10, burn_in=10).validate()
        with pytest.raises(al.ConfigurationError):
            al.McmcConfig(hyper=hyper, thin=0).validate()
        with pytest.raises(al.ConfigurationError):
            al.McmcConfig(hyper=hyper, delta=float("nan")).validate()
        # numpy seeds no stream with a negative entry
        with pytest.raises(al.ConfigurationError, match="seed"):
            al.McmcConfig(hyper=hyper, seed=-1).validate()
        with pytest.raises(al.ConfigurationError, match="seed"):
            al.SolverConfig(hyper=hyper, seed=-1).validate()
