"""MAP solver: proposals, closed-form updates, greedy ascent, initialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

import aodlattice as al
from aodlattice.map_solver import Workspace, proposal_rng, sweep_regions
from aodlattice.model import gmrf_roughness

from conftest import random_scene, random_state
from oracles import golden_max


class TestProposeTau:
    def test_tiny_width_limit_hits_neighbor_mean(self, small_table):
        rng = np.random.default_rng(0)
        state = random_state(rng, 9, 3, 4)
        lat = al.build_lattice(3, 3)
        state.tau[lat.neighbors(4)] = 0.3
        draw = al.propose_tau(state, lat, 4, 1e-12, np.random.default_rng(1))
        assert draw == pytest.approx(0.3, abs=1e-9)

    def test_deterministic_given_seed(self, small_table):
        rng = np.random.default_rng(2)
        state = random_state(rng, 9, 3, 4)
        lat = al.build_lattice(3, 3)
        a = [al.propose_tau(state, lat, p, 0.05, proposal_rng(7, 1, p)) for p in range(9)]
        b = [al.propose_tau(state, lat, p, 0.05, proposal_rng(7, 1, p)) for p in range(9)]
        assert a == b

    def test_monte_carlo_mean(self):
        # neighbors {0.1, 0.3}, width 0.05 -> mean 0.2 within 3 standard errors
        state = al.RetrievalState(
            tau=np.array([0.1, 0.3, 0.2, 0.2]),
            theta=np.full((4, 3), 1.0 / 3.0),
            sigma2=np.ones(4),
            kappa=1.0,
        )
        lat = al.build_lattice(2, 2)
        # region 0 has neighbors 1 and 2 on a 2x2 grid
        state.tau[1] = 0.1
        state.tau[2] = 0.3
        rng = np.random.default_rng(3)
        n = 100_000
        draws = np.array([al.propose_tau(state, lat, 0, 0.05, rng) for _ in range(n)])
        se = 0.05 / math.sqrt(n)
        assert abs(draws.mean() - 0.2) < 3 * se

    def test_clamped_to_bounds(self):
        state = al.RetrievalState(
            tau=np.zeros(4), theta=np.full((4, 3), 1 / 3), sigma2=np.ones(4), kappa=1.0
        )
        lat = al.build_lattice(2, 2)
        rng = np.random.default_rng(4)
        draws = [al.propose_tau(state, lat, 0, 3.0, rng, tau_max=6.0) for _ in range(200)]
        assert all(0.0 <= d <= 6.0 for d in draws)
        assert any(d == 0.0 for d in draws)  # wide proposals hit the clamp


class TestProposeTheta:
    def test_always_on_simplex(self, small_table):
        rng = np.random.default_rng(5)
        state = random_state(rng, 9, 3, 4)
        lat = al.build_lattice(3, 3)
        for p in range(9):
            row = al.propose_theta(state, lat, p, 1e-3, proposal_rng(1, 1, p))
            assert np.all(row >= 0)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_concentrates_on_dominant_neighbor_component(self):
        state = al.RetrievalState(
            tau=np.full(4, 0.2),
            theta=np.tile(np.array([0.98, 0.01, 0.01]), (4, 1)),
            sigma2=np.ones(4),
            kappa=1.0,
        )
        lat = al.build_lattice(2, 2)
        rng = np.random.default_rng(6)
        rows = np.array([al.propose_theta(state, lat, 0, 1e-3, rng) for _ in range(100_000)])
        means = rows.mean(axis=0)
        assert means[0] > means[1] and means[0] > means[2]

    def test_deterministic_given_seed(self):
        state = al.RetrievalState(
            tau=np.full(4, 0.2), theta=np.full((4, 3), 1 / 3), sigma2=np.ones(4), kappa=1.0
        )
        lat = al.build_lattice(2, 2)
        a = al.propose_theta(state, lat, 0, 1e-3, proposal_rng(3, 2, 0))
        b = al.propose_theta(state, lat, 0, 1e-3, proposal_rng(3, 2, 0))
        np.testing.assert_array_equal(a, b)


class TestSweepKernel:
    def test_accepted_moves_are_the_public_draws_and_deltas(self, small_table):
        """A greedy step that accepts both moves draws what propose_tau and
        propose_theta draw, and its delta is the public deltas' sum, bitwise."""
        rng = np.random.default_rng(11)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams(alpha=np.array([0.7, 1.3, 2.0]))
        cfg = al.SolverConfig(hyper=hyper, seed=3)
        init = al.init_state(scene, small_table, "flat", hyper)
        sweep = 1
        for p in range(lat.n_regions):
            ws = Workspace(scene, small_table, lat, hyper, init)
            dsum, acc_t, acc_h = sweep_regions(ws, [p], sweep, cfg)
            if acc_t == 1 and acc_h == 1:
                break
        else:
            pytest.fail("no region accepted both moves")
        tau_new, theta_new = ws.tau[p], ws.theta[p]

        draws = proposal_rng(cfg.seed, sweep, p)
        assert al.propose_tau(init, lat, p, cfg.delta, draws, tau_max=hyper.tau_max) == tau_new
        np.testing.assert_array_equal(
            al.propose_theta(init, lat, p, cfg.gamma_shape_floor, draws), theta_new
        )
        d_tau = al.delta_log_posterior_tau(init, scene, lat, small_table, p, tau_new)
        moved = init.copy()
        moved.tau[p] = tau_new
        d_theta = al.delta_log_posterior_theta(moved, scene, lat, small_table, p, theta_new, hyper)
        assert dsum == d_tau + d_theta


class TestUpdateKappa:
    def test_hand_enumerated_2x2(self):
        state = al.RetrievalState(
            tau=np.array([0.1, 0.1, 0.1, 0.2]),
            theta=np.full((4, 3), 1 / 3),
            sigma2=np.ones(4),
            kappa=1.0,
        )
        lat = al.build_lattice(2, 2)
        # edges (0,1), (0,2), (1,3), (2,3): S = 0 + 0 + 0.01 + 0.01 = 0.02
        kappa, degenerate = al.update_kappa(state, lat)
        assert not degenerate
        assert kappa == pytest.approx((4 - 3) / 0.02, rel=1e-12)

    def test_constant_field_capped_and_flagged(self):
        state = al.RetrievalState(
            tau=np.full(4, 0.3), theta=np.full((4, 3), 1 / 3), sigma2=np.ones(4), kappa=1.0
        )
        lat = al.build_lattice(2, 2)
        kappa, degenerate = al.update_kappa(state, lat, kappa_cap=1e12)
        assert degenerate
        assert kappa == 1e12

    def test_matches_golden_section_argmax(self):
        rng = np.random.default_rng(7)
        lat = al.build_lattice(3, 3)
        P = 9
        for _ in range(100):
            state = random_state(rng, P, 3, 4)
            kappa, _ = al.update_kappa(state, lat)
            S = gmrf_roughness(state.tau, lat)

            def slice_value(log_k):
                k = math.exp(log_k)
                return 0.5 * (P - 3) * log_k - 0.5 * k * S

            best = math.exp(golden_max(slice_value, math.log(1e-8), math.log(1e14)))
            assert kappa == pytest.approx(best, rel=1e-6)


class TestUpdateSigma:
    def test_perfect_fit_floors(self, small_table):
        rng = np.random.default_rng(8)
        state = random_state(rng, 9, 3, 4)
        radiance = small_table.eval_batch(state.tau, state.theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        out = al.update_sigma(state, scene, small_table, sigma2_floor=1e-12)
        np.testing.assert_array_equal(out, np.full(4, 1e-12))

    def test_direct_arithmetic_two_regions(self, small_table):
        # residuals {0.3, 0.4} on one channel with P = 2: (0.09+0.16)/4
        state = al.RetrievalState(
            tau=np.array([0.5, 1.0]),
            theta=np.full((2, 3), 1 / 3),
            sigma2=np.ones(1),
            kappa=1.0,
        )
        pred = small_table.eval_batch(state.tau, state.theta)[:, :1]
        table1 = al.RadianceTable(small_table.tau_knots, small_table.values[:, :, :1])
        radiance = pred + np.array([[0.3], [0.4]])
        scene = al.Scene(2, 1, 1, radiance, np.ones(1, dtype=bool))
        out = al.update_sigma(state, scene, table1)
        assert out[0] == pytest.approx(0.0625, rel=1e-12)

    def test_masked_channels_pass_through(self, small_table):
        rng = np.random.default_rng(9)
        scene = random_scene(small_table, rng)
        scene.channel_mask[2] = False
        state = random_state(rng, 9, 3, 4)
        out = al.update_sigma(state, scene, small_table)
        assert out[2] == state.sigma2[2]

    def test_matches_golden_section_argmax(self, small_table):
        rng = np.random.default_rng(10)
        P = 9
        for _ in range(100):
            scene = random_scene(small_table, rng)
            state = random_state(rng, P, 3, 4)
            out = al.update_sigma(state, scene, small_table)
            pred = small_table.eval_batch(state.tau, state.theta)
            sse = np.sum((scene.radiance - pred) ** 2, axis=0)
            c = int(rng.integers(0, 4))

            def slice_value(log_s):
                s = math.exp(log_s)
                return -0.5 * (P + 2) * math.log(2 * math.pi * s) - sse[c] / (2 * s)

            best = math.exp(golden_max(slice_value, math.log(1e-14), math.log(1e4)))
            assert out[c] == pytest.approx(best, rel=1e-6)


class TestRunMap:
    def _problem(self, table, seed, width=6, height=6):
        rng = np.random.default_rng(seed)
        scene = random_scene(table, rng, width, height)
        lat = al.build_lattice(width, height)
        hyper = al.HyperParams.uniform(table.n_components)
        cfg = al.SolverConfig(hyper=hyper, seed=seed, max_sweeps=15, epsilon=1e-9)
        init = al.init_state(scene, table, "flat", hyper)
        return scene, lat, cfg, init

    def test_monotone_ascent_exact(self, small_table):
        for seed in range(4):
            scene, lat, cfg, init = self._problem(small_table, seed)
            state, trace = al.run_map(scene, small_table, lat, cfg, init)
            lp = np.array([trace.initial_log_posterior] + trace.log_posterior)
            assert np.all(np.diff(lp) >= 0.0)

    def test_deterministic(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 11)
        s1, t1 = al.run_map(scene, small_table, lat, cfg, init)
        s2, t2 = al.run_map(scene, small_table, lat, cfg, init)
        np.testing.assert_array_equal(s1.tau, s2.tau)
        np.testing.assert_array_equal(s1.theta, s2.theta)
        np.testing.assert_array_equal(s1.sigma2, s2.sigma2)
        assert s1.kappa == s2.kappa
        assert t1.log_posterior == t2.log_posterior

    def test_invariants_hold_every_sweep(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 12)
        cfg = replace(cfg, validate_each_sweep=True)
        seen = []

        def watch(sweep, state, f):
            al.validate_state(state, cfg.hyper)
            seen.append(sweep)

        al.run_map(scene, small_table, lat, cfg, init, on_sweep=watch)
        assert len(seen) >= 1

    def test_fixed_point_returns_after_one_sweep(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 13)
        full_cfg = replace(cfg, max_sweeps=60, epsilon=None, epsilon_rel=1e-3)
        state, trace = al.run_map(scene, small_table, lat, full_cfg, init)
        again_cfg = replace(full_cfg, epsilon=max(trace.epsilon, 1e-6))
        state2, trace2 = al.run_map(scene, small_table, lat, again_cfg, state)
        assert trace2.converged
        assert trace2.sweeps == 1

    def test_incremental_matches_full_recomputation(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 14)
        state, trace = al.run_map(scene, small_table, lat, cfg, init)
        assert trace.log_posterior[-1] == pytest.approx(trace.final_log_posterior, rel=1e-9)

    def test_per_region_cadence_monotone(self, small_table):
        rng = np.random.default_rng(15)
        scene = random_scene(small_table, rng, 6, 6)
        lat = al.build_lattice(6, 6)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(
            hyper=hyper, seed=15, max_sweeps=10, epsilon=1e-9,
            kappa_sigma_update_cadence="per_region",
        )
        # the literal per-region schedule needs a non-constant start: the
        # first in-sweep kappa update otherwise sees a degenerate field
        init = al.init_state(scene, small_table, "random", hyper, seed=15)
        state, trace = al.run_map(scene, small_table, lat, cfg, init)
        lp = np.array([trace.initial_log_posterior] + trace.log_posterior)
        assert np.all(np.diff(lp) >= 0.0)
        assert trace.final_log_posterior == pytest.approx(lp[-1], rel=1e-9)

    def test_nonfinite_init_raises_with_diagnostic(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 16)
        init.kappa = 0.0  # log(kappa) term is -inf
        with pytest.raises(al.InitializationError, match="kappa_term"):
            al.run_map(scene, small_table, lat, cfg, init)

    def test_masked_channels_end_to_end(self, table36):
        """A scene with unavailable channels retrieves normally; the masked
        noise entries pass through untouched."""
        sim = al.make_sim_scene(table36, 8, 8, seed=30)
        sim.scene.channel_mask[[3, 17, 30]] = False
        lat = al.build_lattice(8, 8)
        hyper = al.HyperParams.uniform(8)
        cfg = al.SolverConfig(hyper=hyper, seed=30, epsilon_rel=3e-3)
        init = al.init_state(sim.scene, table36, "flat", hyper)
        sigma_masked_at_init = init.sigma2[[3, 17, 30]].copy()
        state, trace = al.run_map(sim.scene, table36, lat, cfg, init)
        assert trace.converged
        al.validate_state(state, hyper)
        rmse = al.compute_metrics(state.tau, sim.truth_tau).rmse
        assert rmse < 0.1
        np.testing.assert_array_equal(state.sigma2[[3, 17, 30]], sigma_masked_at_init)


class TestInitState:
    def test_flat_satisfies_invariants(self, small_table):
        rng = np.random.default_rng(17)
        scene = random_scene(small_table, rng)
        hyper = al.HyperParams.uniform(3)
        state = al.init_state(scene, small_table, "flat", hyper)
        al.validate_state(state, hyper)
        assert np.all(state.tau == 0.2)
        np.testing.assert_array_equal(state.theta, np.full((9, 3), 1 / 3))
        assert state.kappa == 1.0

    def test_random_varies_with_seed(self, small_table):
        rng = np.random.default_rng(18)
        scene = random_scene(small_table, rng)
        hyper = al.HyperParams.uniform(3)
        a = al.init_state(scene, small_table, "random", hyper, seed=1)
        b = al.init_state(scene, small_table, "random", hyper, seed=2)
        al.validate_state(a, hyper)
        assert not np.array_equal(a.tau, b.tau)

    def test_unknown_strategy_rejected(self, small_table):
        rng = np.random.default_rng(19)
        scene = random_scene(small_table, rng)
        with pytest.raises(al.ConfigurationError):
            al.init_state(scene, small_table, "bogus", al.HyperParams.uniform(3))

    def test_coarse_grid_no_worse_than_flat(self, table36, library):
        sim = al.make_sim_scene(table36, 8, 8, seed=21)
        hyper = al.HyperParams.uniform(8)
        flat = al.init_state(sim.scene, table36, "flat", hyper)
        coarse = al.init_state(sim.scene, table36, "coarse_grid", hyper)
        al.validate_state(coarse, hyper)
        rmse_flat = al.compute_metrics(flat.tau, sim.truth_tau).rmse
        rmse_coarse = al.compute_metrics(coarse.tau, sim.truth_tau).rmse
        assert np.isfinite(rmse_coarse)
        assert rmse_coarse <= rmse_flat
