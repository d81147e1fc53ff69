"""Core model: lattice topology, misfit, log-posterior and delta evaluations."""

import math

import numpy as np
import pytest

import aodlattice as al
from aodlattice import map_solver
from aodlattice.map_solver import Workspace
from aodlattice.model import _assemble_terms, _misfit, aod_domain, log_posterior_terms

from conftest import random_scene, random_state, rebalance
from oracles import oracle_chi2_region, oracle_log_posterior


class TestBuildLattice:
    def test_smallest_grid(self):
        lat = al.build_lattice(2, 2)
        assert len(lat.edges) == 4
        assert np.all(lat.n_p == 2)

    def test_3x3_enumeration(self):
        lat = al.build_lattice(3, 3)
        assert len(lat.edges) == 12
        assert lat.n_p[4] == 4  # center
        assert all(lat.n_p[p] == 2 for p in (0, 2, 6, 8))  # corners
        assert all(lat.n_p[p] == 3 for p in (1, 3, 5, 7))  # edge midpoints

    def test_degenerate_strip_rejected(self):
        with pytest.raises(al.ConfigurationError):
            al.build_lattice(2, 1)

    def test_symmetry(self):
        lat = al.build_lattice(5, 4)
        for p in range(lat.n_regions):
            for q in lat.nbr_index[p][lat.nbr_mask[p]]:
                assert p in lat.nbr_index[q][lat.nbr_mask[q]]

    def test_edge_count_identity_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            w = int(rng.integers(2, 12))
            h = int(rng.integers(2, 12))
            lat = al.build_lattice(w, h)
            assert len(lat.edges) == w * (h - 1) + h * (w - 1)
            pairs = {tuple(e) for e in lat.edges}
            assert len(pairs) == len(lat.edges)  # each unordered pair once

    def test_colour_classes_random_shapes(self):
        """lat.classes is two ascending np.intp arrays that together cover
        every region once, region 0 in class 0, and no edge stays inside
        one class."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            w = int(rng.integers(2, 14))
            h = int(rng.integers(2, 14))
            lat = al.build_lattice(w, h)
            assert isinstance(lat.classes, tuple) and len(lat.classes) == 2
            even, odd = lat.classes
            for members in (even, odd):
                assert members.dtype == np.intp
                assert np.all(np.diff(members) > 0)
            np.testing.assert_array_equal(np.sort(np.concatenate([even, odd])),
                                          np.arange(w * h))
            colour = np.empty(w * h, dtype=int)
            colour[even] = 0
            colour[odd] = 1
            assert np.all(colour[lat.edges[:, 0]] != colour[lat.edges[:, 1]])
            assert colour[0] == 0


    def test_padded_index_matches_loop_construction(self):
        """Neighbor slots, edges, colour classes and class positions equal
        the region-by-region construction, in the same order."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = int(rng.integers(2, 12))
            h = int(rng.integers(2, 12))
            lat = al.build_lattice(w, h)
            nbrs, edges, classes = [], [], ([], [])
            for r in range(h):
                for c in range(w):
                    p = r * w + c
                    classes[(r + c) % 2].append(p)
                    lst = []
                    if r > 0:
                        lst.append(p - w)
                    if c > 0:
                        lst.append(p - 1)
                    if c < w - 1:
                        lst.append(p + 1)
                        edges.append((p, p + 1))
                    if r < h - 1:
                        lst.append(p + w)
                        edges.append((p, p + w))
                    nbrs.append(lst)
            assert [lat.nbr_index[p][lat.nbr_mask[p]].tolist() for p in range(w * h)] == nbrs
            assert lat.edges.tolist() == [list(e) for e in edges]
            assert [members.tolist() for members in lat.classes] == list(classes)
            assert lat.n_p.tolist() == [len(lst) for lst in nbrs]
            for k in (0, 1):
                assert lat.class_pos[classes[k]].tolist() == list(range(len(classes[k])))
            rows = np.arange(w * h)[:, None]
            assert np.all(lat.nbr_index[~lat.nbr_mask] == np.broadcast_to(rows, (w * h, 4))[
                ~lat.nbr_mask])


def _kernel_chi2(scene, state, table):
    """Each region's chi2 by the sweep kernel's misfit arithmetic."""
    w = scene.channel_mask / (2.0 * state.sigma2)
    return _misfit(scene.radiance, table.eval_batch(state.tau, state.theta), w)


class TestMisfit:
    def test_weight_forms_match_explicit_vector(self):
        """A (C,) vector, a strided view of one and a masked vector give
        the bits of the same weights as a fresh contiguous vector, and
        each row's value is its own."""
        rng = np.random.default_rng(6)
        k, C = 50, 36
        obs, pred = rng.normal(0.2, 0.05, (2, k, C))
        vec = rng.uniform(1.0, 50.0, C)
        mask = rng.random(C) < 0.7
        for weights in (vec, np.repeat(vec, 2)[::2], mask / (2.0 * vec)):
            explicit = np.array(weights, dtype=float)
            got = _misfit(obs, pred, weights)
            np.testing.assert_array_equal(got, _misfit(obs, pred, explicit))
            for p in (0, 17, k - 1):
                rows = slice(p, p + 1)
                np.testing.assert_array_equal(got[rows], _misfit(obs[rows], pred[rows], explicit))

    def test_closed_channels_do_not_count(self):
        rng = np.random.default_rng(7)
        obs, pred = rng.normal(0.2, 0.05, (2, 9, 12))
        mask = np.arange(12) % 3 != 0
        w = mask / (2.0 * rng.uniform(0.01, 0.05, 12))
        want = _misfit(obs, pred, w)
        pred[:, ~mask] += 1.0
        obs[:, ~mask] -= 2.0
        np.testing.assert_array_equal(_misfit(obs, pred, w), want)


class TestChiSquareRegion:
    def test_exact_fit_is_zero(self, small_table):
        rng = np.random.default_rng(1)
        state = random_state(rng, 9, 3, 4)
        radiance = small_table.eval_batch(state.tau, state.theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        for p in range(9):
            assert oracle_chi2_region(scene, state, small_table, p) == 0.0
        np.testing.assert_array_equal(_kernel_chi2(scene, state, small_table), np.zeros(9))
        hyper = al.HyperParams.uniform(3)
        assert log_posterior_terms(scene, state, hyper, small_table)["misfit"] == 0.0

    def test_single_term_arithmetic(self, small_table):
        # one channel open, residual 0.5, sigma2 0.25 -> 0.5^2/(2*0.25) = 0.5
        rng = np.random.default_rng(2)
        state = random_state(rng, 9, 3, 4)
        state.sigma2[:] = 0.25
        radiance = small_table.eval_batch(state.tau, state.theta)
        radiance[:, 0] += 0.5
        mask = np.array([True, False, False, False])
        scene = al.Scene(3, 3, 4, radiance, mask)
        assert oracle_chi2_region(scene, state, small_table, 0) == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(_kernel_chi2(scene, state, small_table), 0.5, rtol=1e-12)

    def test_full_36_channel_oracle(self, table36):
        rng = np.random.default_rng(3)
        scene = random_scene(table36, rng, 3, 3)
        state = random_state(rng, 9, table36.n_components, 36)
        got = _kernel_chi2(scene, state, table36)
        for p in range(9):
            want = oracle_chi2_region(scene, state, table36, p)
            assert got[p] == pytest.approx(want, rel=1e-12)


class TestLogPosterior:
    def test_term_by_term_oracle(self, small_table):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scene = random_scene(small_table, rng, 3, 3)
            state = random_state(rng, 9, 3, 4)
            hyper = al.HyperParams(alpha=rng.uniform(0.3, 3.0, 3))
            got = al.log_posterior(scene, state, hyper, small_table)
            want = oracle_log_posterior(scene, state, hyper, small_table)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_uniform_alpha_kills_dirichlet_summand(self, small_table):
        rng = np.random.default_rng(5)
        scene = random_scene(small_table, rng)
        state = random_state(rng, 9, 3, 4)
        terms = log_posterior_terms(scene, state, al.HyperParams.uniform(3), small_table)
        assert terms["dirichlet"] == 0.0

    def test_gmrf_term_quadratic_scaling(self, small_table):
        rng = np.random.default_rng(6)
        scene = random_scene(small_table, rng)
        state = random_state(rng, 9, 3, 4)
        state.tau = rng.uniform(1.0, 2.0, 9)  # doubled spread stays in range
        hyper = al.HyperParams.uniform(3)
        base = log_posterior_terms(scene, state, hyper, small_table)
        # doubling every pairwise difference about the mean scales the
        # penalty by exactly 4
        scaled = state.copy()
        center = state.tau.mean()
        scaled.tau = center + 2.0 * (state.tau - center)
        quad = log_posterior_terms(scene, scaled, hyper, small_table)
        assert quad["smoothness"] == pytest.approx(4.0 * base["smoothness"], rel=1e-12)

    def test_misfit_term_is_sum_of_region_chi_squares(self, small_table):
        rng = np.random.default_rng(60)
        scene = random_scene(small_table, rng)
        state = random_state(rng, 9, 3, 4)
        hyper = al.HyperParams.uniform(3)
        terms = log_posterior_terms(scene, state, hyper, small_table)
        total = sum(oracle_chi2_region(scene, state, small_table, p) for p in range(9))
        assert -terms["misfit"] == pytest.approx(total, rel=1e-12)

    def test_boundary_theta_never_nan(self, small_table):
        rng = np.random.default_rng(7)
        scene = random_scene(small_table, rng)
        state = random_state(rng, 9, 3, 4)
        state.theta[0] = np.array([1.0, 0.0, 0.0])  # exact simplex corner
        hyper = al.HyperParams(alpha=np.array([0.5, 0.5, 0.5]))
        f = al.log_posterior(scene, state, hyper, small_table)
        assert math.isfinite(f)

    def test_equals_resynced_workspace_bitwise(self, table36):
        """The whole-state evaluation and the solver's cached value (the
        run's initial objective, whose terms also name a non-finite start)
        share one misfit reduction."""
        rng = np.random.default_rng(61)
        scene = random_scene(table36, rng, 6, 6)
        lat = al.build_lattice(6, 6)
        for _ in range(40):
            state = random_state(rng, 36, table36.n_components, 36)
            hyper = al.HyperParams(alpha=rng.uniform(0.3, 3.0, table36.n_components))
            ws = Workspace(scene, table36, lat, hyper, state)
            ws.resync()
            terms = _assemble_terms(36, ws.sse, ws.S, ws, hyper, ws.mask)
            assert al.log_posterior(scene, state, hyper, table36) == float(sum(terms.values()))
            assert al.log_posterior_terms(scene, state, hyper, table36) == terms


class TestDeltas:
    def _setup(self, table, seed):
        rng = np.random.default_rng(seed)
        scene = random_scene(table, rng, 3, 3)
        state = random_state(rng, 9, table.n_components, table.n_channels)
        lat = al.build_lattice(3, 3)
        hyper = al.HyperParams(alpha=rng.uniform(0.4, 2.5, table.n_components))
        return rng, scene, state, lat, hyper

    def test_identity_moves_are_zero(self, small_table):
        _, scene, state, lat, hyper = self._setup(small_table, 8)
        assert al.delta_log_posterior_tau(state, scene, lat, small_table, 4, state.tau[4]) == 0.0
        d = al.delta_log_posterior_theta(state, scene, lat, small_table, 4, state.theta[4], hyper)
        assert d == 0.0

    def test_matches_full_reevaluation(self, small_table):
        rng, scene, state, lat, hyper = self._setup(small_table, 9)
        f0 = al.log_posterior(scene, state, hyper, small_table)
        for trial in range(40):
            p = int(rng.integers(0, 9))
            if trial % 2 == 0:
                tau_new = float(rng.uniform(0.0, 3.0))
                d = al.delta_log_posterior_tau(state, scene, lat, small_table, p, tau_new)
                mod = state.copy()
                mod.tau[p] = tau_new
            else:
                theta_new = rng.dirichlet(np.ones(3))
                d = al.delta_log_posterior_theta(state, scene, lat, small_table, p, theta_new, hyper)
                mod = state.copy()
                mod.theta[p] = theta_new
            f1 = al.log_posterior(scene, mod, hyper, small_table)
            assert abs(d - (f1 - f0)) <= 1e-9

    def test_theta_then_tau_deltas_sum_to_the_joint_move(self, small_table):
        """A theta delta, then a tau delta on the theta-moved state, add up
        to the change of a move that sets both of region p's coordinates."""
        rng, scene, state, lat, hyper = self._setup(small_table, 12)
        f0 = al.log_posterior(scene, state, hyper, small_table)
        for _ in range(30):
            p = int(rng.integers(0, 9))
            row = rng.dirichlet(np.ones(3))
            tau_new = float(rng.uniform(0.0, 3.0))
            d_theta = al.delta_log_posterior_theta(state, scene, lat, small_table, p, row, hyper)
            mod = state.copy()
            mod.theta[p] = row
            d_tau = al.delta_log_posterior_tau(mod, scene, lat, small_table, p, tau_new)
            mod.tau[p] = tau_new
            want = al.log_posterior(scene, mod, hyper, small_table) - f0
            assert abs(d_theta + d_tau - want) <= 1e-10 * max(1.0, abs(f0))

    def test_deltas_read_only_region_p_and_its_neighbours(self, small_table):
        """Moving every region that is neither p nor one of p's neighbours
        leaves both of p's deltas unchanged, bit for bit."""
        rng = np.random.default_rng(13)
        scene = random_scene(small_table, rng, 4, 4)
        state = random_state(rng, 16, 3, small_table.n_channels)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams(alpha=np.array([0.8, 1.2, 1.0]))
        p, tau_new, row = 5, 1.7, np.array([0.2, 0.5, 0.3])
        far = np.setdiff1d(np.arange(16), np.append(lat.nbr_index[p], p))
        moved = state.copy()
        moved.tau[far] = rng.uniform(0.0, 3.0, far.size)
        moved.theta[far] = rng.dirichlet(np.ones(3), size=far.size)
        deltas = [(al.delta_log_posterior_tau(s, scene, lat, small_table, p, tau_new),
                   al.delta_log_posterior_theta(s, scene, lat, small_table, p, row, hyper))
                  for s in (state, moved)]
        assert far.size == 11
        assert deltas[0] == deltas[1]

    def test_tau_optimum_moves_with_the_component_share(self, table36):
        """The misfit couples AOD to the mixing weight: region p's best tau
        on a fine axis changes as one component's share changes."""
        sim = al.make_sim_scene(table36, 4, 4, seed=2)
        lat = al.build_lattice(4, 4)
        state = al.RetrievalState(tau=sim.truth_tau.copy(), theta=sim.truth_theta.copy(),
                                  sigma2=np.full(36, 1e-4), kappa=1.0)
        p, m = 5, 1
        tau_axis = np.linspace(0.01, 1.2, 60)
        best = []
        for share in np.linspace(0.02, 0.95, 12):
            mod = state.copy()
            mod.theta[p] = rebalance(state.theta[p], m, share)
            d = [al.delta_log_posterior_tau(mod, sim.scene, lat, table36, p, float(t))
                 for t in tau_axis]
            best.append(tau_axis[int(np.argmax(d))])
        assert np.unique(best).size > 1

    def test_tau_delta_with_zero_kappa_is_pure_misfit(self, small_table):
        rng, scene, state, lat, _ = self._setup(small_table, 10)
        state.kappa = 0.0
        p, tau_new = 4, 1.3
        d = al.delta_log_posterior_tau(state, scene, lat, small_table, p, tau_new)
        old = oracle_chi2_region(scene, state, small_table, p)
        mod = state.copy()
        mod.tau[p] = tau_new
        new = oracle_chi2_region(scene, mod, small_table, p)
        assert d == pytest.approx(-(new - old), abs=1e-12)

    def test_theta_delta_with_uniform_alpha_is_pure_misfit(self, small_table):
        rng, scene, state, lat, _ = self._setup(small_table, 11)
        hyper = al.HyperParams.uniform(3)
        p = 2
        theta_new = rng.dirichlet(np.ones(3))
        d = al.delta_log_posterior_theta(state, scene, lat, small_table, p, theta_new, hyper)
        old = oracle_chi2_region(scene, state, small_table, p)
        mod = state.copy()
        mod.theta[p] = theta_new
        new = oracle_chi2_region(scene, mod, small_table, p)
        assert d == pytest.approx(-(new - old), abs=1e-12)


class TestMasking:
    def test_masked_channel_equals_deleted_column(self, small_table):
        """Masking channel c must reproduce a C-1 channel problem exactly."""
        rng = np.random.default_rng(12)
        scene = random_scene(small_table, rng, 3, 3)
        state = random_state(rng, 9, 3, 4)
        hyper = al.HyperParams.uniform(3)
        drop = 2
        mask = np.ones(4, dtype=bool)
        mask[drop] = False
        masked_scene = al.Scene(3, 3, 4, scene.radiance, mask)
        f_masked = al.log_posterior(masked_scene, state, hyper, small_table)

        keep = [c for c in range(4) if c != drop]
        # shrink the forward table to the kept channels
        small = al.RadianceTable(small_table.tau_knots, small_table.values[:, :, keep])
        reduced_scene = al.Scene(3, 3, 3, scene.radiance[:, keep], np.ones(3, dtype=bool))
        reduced_state = state.copy()
        reduced_state.sigma2 = state.sigma2[keep]
        f_reduced = al.log_posterior(reduced_scene, reduced_state, hyper, small)
        assert f_masked == pytest.approx(f_reduced, rel=1e-12)


class TestValidation:
    def test_scene_invariants(self, small_table):
        rng = np.random.default_rng(13)
        scene = random_scene(small_table, rng)
        scene.validate()
        bad = al.Scene(2, 1, 4, scene.radiance[:2], np.ones(4, dtype=bool))
        with pytest.raises(al.ConfigurationError):
            bad.validate()
        neg = al.Scene(3, 3, 4, scene.radiance * -1.0, np.ones(4, dtype=bool))
        with pytest.raises(al.ConfigurationError):
            neg.validate()
        nomask = al.Scene(3, 3, 4, scene.radiance, np.zeros(4, dtype=bool))
        with pytest.raises(al.ConfigurationError):
            nomask.validate()
        nosize = al.Scene(3, 3, 4, scene.radiance, np.ones(4, dtype=bool),
                          region_size_km=float("nan"))
        with pytest.raises(al.ConfigurationError, match="region_size_km"):
            nosize.validate()

    def test_aod_domain_floors_the_knot_range_at_zero(self, small_table):
        """The one AOD domain is the knot range floored at zero, and the
        workspace's tau clamp bounds are that domain."""
        for shift, want in ((0.0, (0.0, 6.0)), (0.5, (0.5, 6.5)), (-0.5, (0.0, 5.5))):
            table = al.RadianceTable(small_table.tau_knots + shift, small_table.values)
            assert aod_domain(table) == want
        scene = random_scene(small_table, np.random.default_rng(12))
        state = random_state(np.random.default_rng(12), 9, 3, 4)
        ws = Workspace(scene, small_table, al.build_lattice(3, 3), al.HyperParams.uniform(3),
                       state)
        assert (ws.tau_lo, ws.tau_hi) == aod_domain(small_table)

    def test_theta_width_must_match_the_prior(self):
        """A theta of M columns under a prior of another length is a state
        error, not a numpy broadcast failure in the log-posterior terms."""
        state = random_state(np.random.default_rng(16), 9, 3, 4)
        with pytest.raises(ValueError, match=r"theta shape \(9, 3\) != \(P, 4\)"):
            al.validate_state(state, al.HyperParams.uniform(4))

    def test_nonfinite_theta_rejected(self):
        rng = np.random.default_rng(15)
        state = random_state(rng, 9, 3, 4)
        state.theta[0] = np.array([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="theta"):
            al.validate_state(state, al.HyperParams.uniform(3))

    def test_state_invariants(self, small_table, monkeypatch):
        rng = np.random.default_rng(14)
        state = random_state(rng, 9, 3, 4)
        hyper = al.HyperParams.uniform(3)
        al.validate_state(state, hyper)
        bad = state.copy()
        bad.tau[0] = -0.1
        with pytest.raises(ValueError, match="tau"):
            al.validate_state(bad, hyper)
        # above the table's range: every solver's start-up rejects it
        bad = state.copy()
        bad.tau[0] = 7.0

        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(map_solver, "_hyper_step", no_sweep)  # every sweep ends in it
        scene = random_scene(small_table, rng)
        lat = al.build_lattice(3, 3)
        cfg = al.SolverConfig(hyper=hyper)
        mcfg = al.McmcConfig(hyper=hyper, iterations=2, burn_in=0, thin=1)
        for start in (lambda: al.run_map(scene, small_table, lat, cfg, bad),
                      lambda: al.run_map_parallel(scene, small_table, lat, cfg, 2, bad),
                      lambda: al.run_mcmc(scene, small_table, lat, mcfg, bad),
                      lambda: al.mh_sweep(bad, scene, small_table, lat, mcfg)):
            with pytest.raises(al.DomainError):
                start()
        bad = state.copy()
        bad.theta[0] = np.array([0.6, 0.6, -0.2])
        with pytest.raises(ValueError):
            al.validate_state(bad, hyper)
        bad = state.copy()
        bad.sigma2[1] = 0.0
        with pytest.raises(ValueError):
            al.validate_state(bad, hyper)


def test_every_exported_name_resolves_once():
    """`from aodlattice import *` needs every __all__ entry on the package."""
    assert len(set(al.__all__)) == len(al.__all__)
    assert [name for name in al.__all__ if not hasattr(al, name)] == []
