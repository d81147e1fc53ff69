"""Posterior slices and dominance maps."""

import numpy as np
import pytest

import aodlattice as al
from aodlattice.probe import rebalance_row

from conftest import random_scene, random_state


class TestRebalanceRow:
    def test_preserves_ratios(self):
        row = np.array([0.2, 0.3, 0.5])
        out = rebalance_row(row, 0, 0.6)
        assert out[0] == pytest.approx(0.6)
        assert out[1] / out[2] == pytest.approx(0.3 / 0.5, rel=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_one_hot_base_spreads_uniformly(self):
        row = np.array([1.0, 0.0, 0.0])
        out = rebalance_row(row, 0, 0.4)
        np.testing.assert_allclose(out, [0.4, 0.3, 0.3], rtol=1e-12)

    def test_range_check(self):
        with pytest.raises(al.ConfigurationError):
            rebalance_row(np.array([0.5, 0.5]), 0, 1.5)


class TestPosteriorSlice:
    def test_cells_match_direct_log_posterior(self, small_table):
        rng = np.random.default_rng(0)
        scene = random_scene(small_table, rng, 3, 3)
        state = random_state(rng, 9, 3, 4)
        lat = al.build_lattice(3, 3)
        hyper = al.HyperParams(alpha=np.array([0.8, 1.2, 1.0]))
        p, m = 4, 1
        values, tau_axis, theta_axis = al.posterior_slice(
            scene, small_table, lat, state, hyper, p, m,
            tau_range=(0.2, 2.0), theta_range=(0.05, 0.9), resolution=(12, 10),
        )
        for _ in range(100):
            i = int(rng.integers(0, 12))
            j = int(rng.integers(0, 10))
            mod = state.copy()
            mod.theta[p] = rebalance_row(state.theta[p], m, float(theta_axis[j]))
            mod.tau[p] = float(tau_axis[i])
            want = -al.log_posterior(scene, mod, hyper, small_table)
            assert abs(values[i, j] - want) <= 1e-10 * max(1.0, abs(want))

    def test_cells_are_the_public_deltas_bitwise(self, small_table):
        """A column takes one eval_batch over the tau axis, yet each cell is
        -(f + delta_theta + delta_tau) of the one-row public deltas, bit for bit."""
        rng = np.random.default_rng(5)
        scene = random_scene(small_table, rng, 4, 3)
        state = random_state(rng, 12, 3, 4)
        lat = al.build_lattice(4, 3)
        hyper = al.HyperParams(alpha=np.array([0.8, 1.2, 1.0]))
        p, m = 5, 2
        values, tau_axis, theta_axis = al.posterior_slice(
            scene, small_table, lat, state, hyper, p, m,
            tau_range=(0.0, 3.0), theta_range=(0.0, 1.0), resolution=(9, 7),
        )
        f_base = al.log_posterior(scene, state, hyper, small_table)
        for j, tv in enumerate(theta_axis):
            row = rebalance_row(state.theta[p], m, float(tv))
            d_theta = al.delta_log_posterior_theta(state, scene, lat, small_table, p, row, hyper)
            mod = state.copy()
            mod.theta[p] = row
            for i, tau_v in enumerate(tau_axis):
                d_tau = al.delta_log_posterior_tau(mod, scene, lat, small_table, p, float(tau_v))
                assert values[i, j] == -(f_base + d_theta + d_tau)

    def test_optimum_cell_is_grid_minimum_along_axes(self, small_table):
        """Sliced at a coordinate-wise optimum (the inverse-crime truth with
        closed-form hypers), the optimum's cell is the minimum of its row
        and column.  A greedy run's endpoint only approximates this: the
        neighbor-mean proposal reaches some improving moves with vanishing
        probability, so the exact property is asserted at the truth."""
        from aodlattice.map_solver import update_kappa, update_sigma

        sim = al.make_sim_scene(small_table, 4, 4, seed=1)
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
        n = 9  # odd: center cell sits exactly on the optimum
        dt, dh = 0.12, 0.1
        found = None
        for p in range(16):
            for m in range(3):
                t0 = float(state.tau[p])
                h0 = float(state.theta[p, m])
                if dt < t0 < 6.0 - dt and dh < h0 < 1.0 - dh:
                    found = (p, m, t0, h0)
                    break
            if found:
                break
        assert found is not None, "no interior coordinate to slice around"
        p, m, t0, h0 = found
        values, tau_axis, theta_axis = al.posterior_slice(
            sim.scene, small_table, lat, state, hyper, p, m,
            tau_range=(t0 - dt, t0 + dt), theta_range=(h0 - dh, h0 + dh),
            resolution=(n, n),
        )
        ci, cj = n // 2, n // 2
        assert tau_axis[ci] == pytest.approx(t0, abs=1e-12)
        assert theta_axis[cj] == pytest.approx(h0, abs=1e-12)
        assert values[ci, cj] <= values[:, cj].min() + 1e-9
        assert values[ci, cj] <= values[ci, :].min() + 1e-9

    def test_map_endpoint_near_optimal_in_slice(self, small_table):
        """The greedy endpoint's cell sits near the bottom of its slice:
        within the plateau the stop rule leaves behind."""
        sim = al.make_sim_scene(small_table, 4, 4, seed=1)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=1, max_sweeps=300, epsilon=1e-13)
        init = al.init_state(sim.scene, small_table, "flat", hyper)
        state, trace = al.run_map(sim.scene, small_table, lat, cfg, init)
        p, m = 5, 0
        t0 = float(np.clip(state.tau[p], 0.13, 5.87))
        h0 = float(np.clip(state.theta[p, m], 0.11, 0.89))
        values, tau_axis, theta_axis = al.posterior_slice(
            sim.scene, small_table, lat, state, hyper, p, m,
            tau_range=(t0 - 0.12, t0 + 0.12), theta_range=(h0 - 0.1, h0 + 0.1),
            resolution=(9, 9),
        )
        center = values[4, 4]
        spread = values.max() - values.min()
        assert center <= values.min() + 0.25 * spread

    def test_coupling_profile_varies(self, table36):
        """The misfit couples AOD to the mixing weight: the per-column tau
        optimum moves as the component share changes."""
        sim = al.make_sim_scene(table36, 4, 4, seed=2)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(8)
        state = al.RetrievalState(
            tau=sim.truth_tau.copy(),
            theta=sim.truth_theta.copy(),
            sigma2=np.full(36, 1e-4),
            kappa=1.0,
        )
        values, tau_axis, _ = al.posterior_slice(
            sim.scene, table36, lat, state, hyper, 5, 1,
            tau_range=(0.01, 1.2), theta_range=(0.02, 0.95), resolution=(60, 12),
        )
        profile = tau_axis[np.argmin(values, axis=0)]  # per-column tau optimum
        assert np.unique(profile).size > 1


class TestDominanceMap:
    def test_one_hot_rows(self):
        theta = np.eye(4)[[2, 0, 3]]
        ids, share = al.dominance_map(theta)
        np.testing.assert_array_equal(ids, [3, 1, 4])
        np.testing.assert_array_equal(share, [1.0, 1.0, 1.0])

    def test_uniform_rows_tie_break_lowest_id(self):
        theta = np.full((3, 4), 0.25)
        ids, share = al.dominance_map(theta)
        np.testing.assert_array_equal(ids, [1, 1, 1])
        np.testing.assert_allclose(share, 0.25)

    def test_library_ids_and_unsorted_tie_break(self):
        theta = np.array([[0.5, 0.5, 0.0]])
        ids, share = al.dominance_map(theta, component_ids=[14, 2, 8])
        # tie between columns 0 (id 14) and 1 (id 2): lowest id wins
        np.testing.assert_array_equal(ids, [2])
        np.testing.assert_array_equal(share, [0.5])

    def test_id_length_check(self):
        with pytest.raises(al.ConfigurationError):
            al.dominance_map(np.full((2, 3), 1 / 3), component_ids=[1, 2])
