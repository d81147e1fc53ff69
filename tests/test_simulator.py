"""Scene simulator: truth fields, rendering, noise injection."""

import numpy as np
import pytest

import aodlattice as al
from aodlattice.map_solver import update_kappa, update_sigma
from aodlattice.simulate import _box_smooth, render_grid

from conftest import rebalance


class TestGenTruth:
    def test_deterministic_in_seed(self):
        a_tau, a_theta = al.gen_truth(8, 8, 5, seed=3)
        b_tau, b_theta = al.gen_truth(8, 8, 5, seed=3)
        np.testing.assert_array_equal(a_tau, b_tau)
        np.testing.assert_array_equal(a_theta, b_theta)
        c_tau, _ = al.gen_truth(8, 8, 5, seed=4)
        assert not np.array_equal(a_tau, c_tau)

    def test_infinite_smoothness_limit_is_constant(self):
        tau, _ = al.gen_truth(8, 8, 4, smoothness=100.0, seed=1, tau_range=(0.05, 0.6))
        np.testing.assert_array_equal(tau, np.full(64, 0.325))

    def test_smoothness_past_the_grid_is_capped(self):
        want, _ = al.gen_truth(8, 6, 4, smoothness=8.0, seed=1)
        for smoothness in (9.0, 1e6, 1e300):
            tau, _ = al.gen_truth(8, 6, 4, smoothness=smoothness, seed=1)
            np.testing.assert_array_equal(tau, want)
        assert np.unique(want).size == 1

    @pytest.mark.parametrize("smoothness", [np.inf, -np.inf, np.nan])
    def test_nonfinite_smoothness_is_rejected(self, smoothness):
        with pytest.raises(al.ConfigurationError, match="smoothness"):
            al.gen_truth(8, 8, 4, smoothness=smoothness)

    def test_range_respected(self):
        tau, _ = al.gen_truth(12, 10, 4, smoothness=1.5, seed=2, tau_range=(0.1, 0.5))
        assert tau.min() == pytest.approx(0.1)
        assert tau.max() == pytest.approx(0.5)

    def test_dense_rows_strictly_positive(self):
        _, theta = al.gen_truth(10, 10, 6, sparsity="dense", seed=5, blob_size=1)
        assert np.all(theta > 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    def test_sparse_rows_concentrated(self):
        _, sparse = al.gen_truth(10, 10, 6, sparsity="sparse", seed=6, blob_size=1)
        _, dense = al.gen_truth(10, 10, 6, sparsity="dense", seed=6, blob_size=1)
        np.testing.assert_allclose(sparse.sum(axis=1), 1.0, atol=1e-12)
        assert np.median(sparse.max(axis=1)) > np.median(dense.max(axis=1)) + 0.2

    def test_blobs_are_piecewise_constant(self):
        _, theta = al.gen_truth(8, 8, 4, seed=7, blob_size=4)
        grid = theta.reshape(8, 8, 4)
        np.testing.assert_array_equal(grid[0, 0], grid[3, 3])
        assert len(np.unique(theta, axis=0)) == 4  # one draw per 4x4 tile

    def test_autocorrelation_increases_with_smoothness(self):
        """Lag-1 spatial autocorrelation, averaged over 100 seeds."""

        def mean_lag1(smooth):
            acc = []
            for seed in range(100):
                tau, _ = al.gen_truth(16, 16, 3, smoothness=smooth, seed=seed)
                g = tau.reshape(16, 16)
                pairs_x = np.corrcoef(g[:, :-1].ravel(), g[:, 1:].ravel())[0, 1]
                pairs_y = np.corrcoef(g[:-1, :].ravel(), g[1:, :].ravel())[0, 1]
                acc.append(0.5 * (pairs_x + pairs_y))
            return np.mean(acc)

        r0 = mean_lag1(0.0)
        r1 = mean_lag1(1.0)
        r3 = mean_lag1(3.0)
        assert r0 < r1 < r3

    def test_box_smooth_window_normalization(self):
        field = np.arange(12.0).reshape(3, 4)
        out = _box_smooth(field, 1)
        # corner window covers a 2x2 block only
        assert out[0, 0] == pytest.approx(field[:2, :2].mean())
        assert out[1, 2] == pytest.approx(field[0:3, 1:4].mean())


class TestRender:
    def test_inverse_crime_zero_misfit(self, small_table):
        sim = al.make_sim_scene(small_table, 5, 5, seed=8)
        state = al.RetrievalState(
            tau=sim.truth_tau,
            theta=sim.truth_theta,
            sigma2=np.ones(small_table.n_channels),
            kappa=1.0,
        )
        np.testing.assert_array_equal(small_table.eval_batch(state.tau, state.theta),
                                      sim.scene.radiance)
        hyper = al.HyperParams.uniform(small_table.n_components)
        terms = al.log_posterior_terms(sim.scene, state, hyper, small_table)
        assert terms["misfit"] == 0.0

    def test_rendered_values_within_component_envelope(self, small_table):
        sim = al.make_sim_scene(small_table, 4, 4, seed=9)
        M = small_table.n_components
        for p in range(16):
            per_comp = small_table.eval_batch(np.full(M, sim.truth_tau[p]), np.eye(M))
            assert np.all(sim.scene.radiance[p] >= per_comp.min(axis=0) - 1e-12)
            assert np.all(sim.scene.radiance[p] <= per_comp.max(axis=0) + 1e-12)

    def test_truth_locally_optimal_noiseless(self, small_table):
        """With closed-form hypers, no single-coordinate nudge beats truth."""
        sim = al.make_sim_scene(small_table, 4, 4, seed=10)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        state = al.RetrievalState(
            tau=sim.truth_tau.copy(),
            theta=sim.truth_theta.copy(),
            sigma2=np.ones(small_table.n_channels),
            kappa=1.0,
        )
        state.sigma2 = update_sigma(state, sim.scene, small_table)
        state.kappa, _ = update_kappa(state, lat)
        f0 = al.log_posterior(sim.scene, state, hyper, small_table)
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = int(rng.integers(0, 16))
            d = al.delta_log_posterior_tau(
                state, sim.scene, lat, small_table, p,
                float(np.clip(state.tau[p] + rng.choice([-0.01, 0.01]), 0, 6)),
            )
            assert d <= 0.0
            m = int(rng.integers(0, 3))
            row = rebalance(state.theta[p], m, float(np.clip(state.theta[p][m] + 0.02, 0, 1)))
            dth = al.delta_log_posterior_theta(
                state, sim.scene, lat, small_table, p, row, hyper
            )
            assert dth <= 0.0
        assert np.isfinite(f0)

    def test_scene_passes_invariants(self, table36):
        sim = al.make_sim_scene(table36, 6, 5, seed=12, noise_level=0.3)
        sim.scene.validate()


class TestAddNoise:
    def test_level_zero_is_identity(self, small_table):
        sim = al.make_sim_scene(small_table, 4, 4, seed=13)
        out = al.add_noise(sim.scene, 0.0, seed=99)
        np.testing.assert_array_equal(out.radiance, sim.scene.radiance)

    def test_outputs_nonnegative(self, small_table):
        sim = al.make_sim_scene(small_table, 8, 8, seed=14)
        out = al.add_noise(sim.scene, 1.0, seed=14)
        assert np.all(out.radiance >= 0)

    def test_deterministic_in_seed(self, small_table):
        sim = al.make_sim_scene(small_table, 4, 4, seed=15)
        a = al.add_noise(sim.scene, 0.5, seed=7)
        b = al.add_noise(sim.scene, 0.5, seed=7)
        np.testing.assert_array_equal(a.radiance, b.radiance)

    def test_relative_std_matches_level(self, table36):
        """Per-channel rms of the relative perturbation tracks the level.

        The nonnegativity clamp trims the deep-left tail, which shrinks the
        rms of a 0.5-level perturbation to about 0.49; well within the 5%
        agreement window.
        """
        tau, theta = al.gen_truth(64, 64, 8, seed=16)
        clean = render_grid(tau, theta, table36, 64, 64)
        noisy = al.add_noise(clean, 0.5, seed=16)
        rel = (noisy.radiance - clean.radiance) / clean.radiance
        rms = np.sqrt(np.mean(rel**2, axis=0))
        assert np.all(np.abs(rms - 0.5) < 0.05 * 0.5 + 0.02)

    def test_invalid_level_rejected(self, small_table):
        sim = al.make_sim_scene(small_table, 4, 4, seed=17)
        with pytest.raises(al.ConfigurationError):
            al.add_noise(sim.scene, 1.5, seed=0)
        with pytest.raises(al.ConfigurationError):
            al.make_sim_scene(small_table, 4, 4, noise_level=-0.5, seed=17)
