"""Grid-search baseline, metrics, dominance maps and multi-start stability bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

import aodlattice as al
from aodlattice import baselines
from aodlattice.baselines import GridSearchConfig, default_candidate_mixtures

from conftest import random_scene
from oracles import oracle_grid_search, oracle_tie_theta, pearson_textbook


class TestCandidateMixtures:
    def test_counts_for_eight_components(self):
        mixtures = default_candidate_mixtures(8)
        assert mixtures.shape == (8 + 28 + 56, 8)
        np.testing.assert_allclose(mixtures.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mixtures >= 0)
        # one-hot rows, then 50/50 pairs, then equal thirds, each in
        # lexicographic order of the components they mix
        np.testing.assert_array_equal(mixtures[:8], np.eye(8))
        np.testing.assert_array_equal(mixtures[8], [0.5, 0.5, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(mixtures[35], [0, 0, 0, 0, 0, 0, 0.5, 0.5])
        np.testing.assert_array_equal(mixtures[36], [1.0 / 3.0] * 3 + [0] * 5)
        np.testing.assert_array_equal(mixtures[-1], [0] * 5 + [1.0 / 3.0] * 3)


class TestGridSearch:
    def test_exact_recovery_when_truth_on_grid(self, small_table):
        cfg = GridSearchConfig(
            tau_levels=np.linspace(0.0, 6.0, 13),
            candidate_mixtures=default_candidate_mixtures(3),
            sigma2_fixed=np.full(4, 1e-4),
            success_threshold=1e-9,
        )
        rng = np.random.default_rng(0)
        P = 9
        # tau = 0 is surface-only signal where composition is unidentifiable
        # (every mixture ties at zero misfit), so draw strictly positive levels
        ti = rng.integers(1, 13, P)
        gi = rng.integers(0, cfg.candidate_mixtures.shape[0], P)
        truth_tau = cfg.tau_levels[ti]
        truth_theta = cfg.candidate_mixtures[gi]
        radiance = small_table.eval_batch(truth_tau, truth_theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        tau, theta, success = al.grid_search_retrieve(scene, small_table, cfg)
        assert success.all()
        np.testing.assert_allclose(tau, truth_tau, atol=1e-9)
        np.testing.assert_allclose(theta, truth_theta, atol=1e-9)

    def test_infinite_threshold_returns_grid_mean(self, small_table):
        rng = np.random.default_rng(1)
        scene = random_scene(small_table, rng, 3, 3)
        cfg = GridSearchConfig(
            tau_levels=np.linspace(0.0, 6.0, 13),
            candidate_mixtures=default_candidate_mixtures(3),
            sigma2_fixed=np.full(4, 1e-4),
            success_threshold=np.inf,
        )
        tau, theta, success = al.grid_search_retrieve(scene, small_table, cfg)
        assert success.all()
        G = cfg.candidate_mixtures.shape[0]
        np.testing.assert_allclose(tau, np.full(9, cfg.tau_levels.mean()), rtol=1e-12)
        want_theta = al.model.floor_simplex(
            np.tile(cfg.candidate_mixtures, (13, 1)).mean(axis=0)
        )
        for p in range(9):
            np.testing.assert_allclose(theta[p], want_theta, rtol=1e-9)

    def test_failure_returns_argmin_with_flag(self, small_table):
        rng = np.random.default_rng(2)
        scene = random_scene(small_table, rng, 3, 3)
        cfg = GridSearchConfig(
            tau_levels=np.linspace(0.0, 6.0, 13),
            candidate_mixtures=default_candidate_mixtures(3),
            sigma2_fixed=np.full(4, 1e-12),  # nothing clears the threshold
            success_threshold=1e-9,
        )
        tau, theta, success = al.grid_search_retrieve(scene, small_table, cfg)
        assert not success.any()
        assert np.isin(tau, cfg.tau_levels).all()

    def test_empty_grid_rejected(self, small_table):
        rng = np.random.default_rng(3)
        scene = random_scene(small_table, rng)
        cfg = GridSearchConfig(
            tau_levels=np.asarray([]),
            candidate_mixtures=default_candidate_mixtures(3),
            sigma2_fixed=np.ones(4),
            success_threshold=1.0,
        )
        with pytest.raises(al.ConfigurationError):
            al.grid_search_retrieve(scene, small_table, cfg)

    def test_levels_floored_at_zero_aod(self, small_table):
        """The grid searches the one AOD domain [max(0, tau_min), tau_max],
        as MAP and MCMC do, even for a table whose knots start below 0."""
        shifted = al.RadianceTable(small_table.tau_knots - 0.5, small_table.values)
        assert shifted.tau_min == -0.5
        rng = np.random.default_rng(5)
        theta = rng.dirichlet(np.ones(3), size=9)
        # rendered at the lowest knot: the unfloored grid's argmin is tau = -0.5
        radiance = shifted.eval_batch(np.full(9, -0.5), theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        cfg = GridSearchConfig.defaults(shifted, scene)
        assert cfg.tau_levels[0] == 0.0 and cfg.tau_levels[-1] == shifted.tau_max
        tau, _, _ = al.grid_search_retrieve(scene, shifted, cfg)
        assert np.all(tau >= 0.0)
        below = replace(cfg, tau_levels=np.linspace(-0.5, shifted.tau_max, 13))
        with pytest.raises(al.ConfigurationError):
            al.grid_search_retrieve(scene, shifted, below)

    def test_region_order_irrelevant(self, small_table):
        """Per-region independence: a permuted scene gives permuted output."""
        rng = np.random.default_rng(4)
        scene = random_scene(small_table, rng, 3, 3)
        cfg = GridSearchConfig.defaults(small_table, scene)
        tau, theta, success = al.grid_search_retrieve(scene, small_table, cfg)
        perm = rng.permutation(9)
        scene_p = al.Scene(3, 3, 4, scene.radiance[perm], scene.channel_mask)
        tau_p, theta_p, success_p = al.grid_search_retrieve(scene_p, small_table, cfg)
        np.testing.assert_array_equal(tau_p, tau[perm])
        np.testing.assert_array_equal(theta_p, theta[perm])


def _assert_matches_oracle(got, want):
    """tau and success bitwise; theta bitwise on argmin rows, within 1e-12
    on clearing rows (the means add the mixtures in another order)."""
    tau, theta, success = got
    np.testing.assert_array_equal(tau, want[0])
    np.testing.assert_array_equal(success, want[2])
    np.testing.assert_array_equal(theta[~success], want[1][~success])
    np.testing.assert_allclose(theta, want[1], rtol=0, atol=1e-12)


def _grid_cells(table, levels, mixtures):
    """Radiance of every (level, mixture) cell, level-major: (T*G, C)."""
    return table.eval_batch(np.repeat(levels, len(mixtures)),
                            np.tile(mixtures, (len(levels), 1)))


def _direct_chi2_rows(scene, table, cfg):
    """Every region's misfit to every grid cell, (P, T*G), computed as the
    oracle computes it."""
    pred = _grid_cells(table, cfg.tau_levels, cfg.candidate_mixtures)
    resid = scene.radiance[:, None, :] - pred[None, :, :]
    w = scene.channel_mask / (2.0 * cfg.sigma2_fixed)
    return np.einsum("btc,c->bt", resid * resid, w)


def _spy_rescored_rows(monkeypatch):
    """Record the bytes of every observation row that reaches
    baselines._direct_chi2; returns the set, filled as the search runs."""
    rescored = set()
    direct = baselines._direct_chi2

    def spy(obs, pred, w):
        rescored.update(row.tobytes() for row in obs)
        return direct(obs, pred, w)

    monkeypatch.setattr(baselines, "_direct_chi2", spy)
    return rescored


class TestGridSearchOracle:
    """The blocked matrix-product search against the region-by-region loop."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.2])
    def test_matches_oracle_at_noise_levels(self, table36, noise):
        sim = al.make_sim_scene(table36, 32, 32, noise_level=noise, seed=7)
        cfg = GridSearchConfig.defaults(table36, sim.scene)
        got = al.grid_search_retrieve(sim.scene, table36, cfg)
        want = oracle_grid_search(sim.scene, table36, cfg)
        _assert_matches_oracle(got, want)
        if noise < 0.2:
            assert 0.0 < got[2].mean() < 1.0  # both branches exercised

    def test_masked_channel_matches_oracle(self, table36):
        sim = al.make_sim_scene(table36, 16, 16, noise_level=0.05, seed=3)
        mask = np.ones(36, dtype=bool)
        mask[5] = False
        radiance = sim.scene.radiance.copy()
        radiance[:, 5] = 10.0  # far off every candidate; must not count
        scene = al.Scene(16, 16, 36, radiance, mask)
        cfg = GridSearchConfig.defaults(table36, scene)
        got = al.grid_search_retrieve(scene, table36, cfg)
        _assert_matches_oracle(got, oracle_grid_search(scene, table36, cfg))
        clean = al.Scene(16, 16, 36, sim.scene.radiance, mask)
        for a, b in zip(got, al.grid_search_retrieve(clean, table36, cfg)):
            np.testing.assert_array_equal(a, b)

    def test_partial_last_block(self, table36, monkeypatch):
        """A 7-row block over 100 regions leaves a 2-row last block; the
        output equals the oracle's and the one-block run's, at the default
        threshold and at the median of the regions' best misfits, which
        clears about half of them, so blocks mix clearing and failing rows."""
        sim = al.make_sim_scene(table36, 10, 10, noise_level=0.05, seed=11)
        cfg = GridSearchConfig.defaults(table36, sim.scene)
        best = _direct_chi2_rows(sim.scene, table36, cfg).min(axis=1)
        cells = cfg.tau_levels.size * cfg.candidate_mixtures.shape[0]
        for c in (cfg, replace(cfg, success_threshold=float(np.median(best)))):
            whole = al.grid_search_retrieve(sim.scene, table36, c)
            with monkeypatch.context() as m:
                m.setattr(baselines, "_GRID_CELLS", 7 * cells + cells // 2)
                got = al.grid_search_retrieve(sim.scene, table36, c)
            _assert_matches_oracle(got, oracle_grid_search(sim.scene, table36, c))
            for x, y in zip(got, whole):
                np.testing.assert_array_equal(x, y)
        blocks = [got[2][s:s + 7] for s in range(0, 100, 7)]
        assert any(0 < b.sum() < b.size for b in blocks)

    @pytest.mark.parametrize("threshold", [None, np.inf], ids=["none-clear", "all-clear"])
    def test_no_exact_rescoring_of_empty_selections(self, table36, monkeypatch, threshold):
        """With no clearing row, or no failing one, a block has nothing to
        rescore on one of its two exact paths, and that path is skipped."""
        sim = al.make_sim_scene(table36, 10, 10, noise_level=0.2, seed=11)
        cfg = GridSearchConfig.defaults(table36, sim.scene, success_threshold=threshold)
        sizes = []
        exact = baselines._direct_chi2

        def counted(obs, pred, w):
            sizes.append(obs.shape[0])
            return exact(obs, pred, w)

        cells = cfg.tau_levels.size * cfg.candidate_mixtures.shape[0]
        monkeypatch.setattr(baselines, "_direct_chi2", counted)
        monkeypatch.setattr(baselines, "_GRID_CELLS", 7 * cells)
        got = al.grid_search_retrieve(sim.scene, table36, cfg)
        _assert_matches_oracle(got, oracle_grid_search(sim.scene, table36, cfg))
        assert np.unique(got[2]).tolist() == [threshold == np.inf]  # every row, one branch
        assert 0 not in sizes

    def test_duplicated_mixture_shares_the_minimum(self, table36, monkeypatch):
        """With one candidate listed twice, each failing region's minimum is
        attained by two cells.  The two form one tie group, so they give one
        output and no row is rescored in residual form; the output is the
        oracle's (its argmin is the first of the two)."""
        mixtures = default_candidate_mixtures(8)[[0, 13, 60, 13]]
        levels = np.linspace(0.0, 6.0, 13)
        pred = _grid_cells(table36, levels, mixtures).reshape(13, 4, 36)
        rng = np.random.default_rng(12)
        P = 20
        t = rng.integers(1, 13, P)
        radiance = pred[t, 1] * (1.0 + 1e-3 * rng.standard_normal((P, 36)))
        scene = al.Scene(5, 4, 36, radiance, np.ones(36, dtype=bool))
        cfg = replace(GridSearchConfig.defaults(table36, scene), tau_levels=levels,
                      candidate_mixtures=mixtures, success_threshold=1e-300)
        chi2 = _direct_chi2_rows(scene, table36, cfg)
        assert np.all((chi2 == chi2.min(axis=1, keepdims=True)).sum(axis=1) == 2)
        rescored = _spy_rescored_rows(monkeypatch)
        got = al.grid_search_retrieve(scene, table36, cfg)
        assert not {row.tobytes() for row in radiance} & rescored
        assert not got[2].any()
        _assert_matches_oracle(got, oracle_grid_search(scene, table36, cfg))

    def test_single_cell_grid(self, table36):
        """One level and one mixture: there is no runner-up (its minimum is
        inf), every failing region returns the one cell, and a threshold
        between the regions' misfits clears some of them."""
        sim = al.make_sim_scene(table36, 6, 6, noise_level=0.05, seed=13)
        cfg = replace(GridSearchConfig.defaults(table36, sim.scene),
                      tau_levels=np.array([0.5]),
                      candidate_mixtures=default_candidate_mixtures(8)[[13]])
        chi2 = _direct_chi2_rows(sim.scene, table36, cfg)[:, 0]
        for thr in (1e-300, float(np.median(chi2))):
            c = replace(cfg, success_threshold=thr)
            got = al.grid_search_retrieve(sim.scene, table36, c)
            _assert_matches_oracle(got, oracle_grid_search(sim.scene, table36, c))
            np.testing.assert_array_equal(got[2], chi2 < thr)
            np.testing.assert_array_equal(got[0], np.full(36, 0.5))

    def test_tau_zero_tie_returns_group_mean(self, table36):
        """At tau = 0 every mixture gives the surface radiance, so the 92
        candidates tie; an argmin there returns their mean mixture, which
        for the default mixtures is uniform."""
        rng = np.random.default_rng(8)
        P = 12
        surface = table36.eval_batch(np.zeros(P), rng.dirichlet(np.ones(8), size=P))
        radiance = surface * (1.0 + 1e-3 * rng.standard_normal(surface.shape))
        scene = al.Scene(4, 3, 36, radiance, np.ones(36, dtype=bool))
        cfg = replace(GridSearchConfig.defaults(table36, scene), success_threshold=1e-9)
        tau, theta, success = al.grid_search_retrieve(scene, table36, cfg)
        assert not success.any()
        np.testing.assert_array_equal(tau, np.zeros(P))
        np.testing.assert_allclose(theta, 0.125, rtol=0, atol=1e-15)
        assert len({row.tobytes() for row in theta}) == 1
        _assert_matches_oracle((tau, theta, success),
                               oracle_grid_search(scene, table36, cfg))

    def test_benchmark_regime_skips_tie_group_rescoring(self, table36, monkeypatch):
        """A noise-0.2 scene at the default grid, as the pipeline benchmark
        runs it: no region clears, and the regions that fail at AOD 0 take
        the runner-up branch (all 92 candidates tie there).  Their
        near-minimal cells form one tie group, so none is rescored; with
        every cell its own group they all are, and the output is the same
        and the oracle's."""
        sim = al.make_sim_scene(table36, 24, 24, noise_level=0.2, seed=7)
        cfg = GridSearchConfig.defaults(table36, sim.scene)
        rescored = _spy_rescored_rows(monkeypatch)
        got = al.grid_search_retrieve(sim.scene, table36, cfg)
        _assert_matches_oracle(got, oracle_grid_search(sim.scene, table36, cfg))
        assert not got[2].any()
        tie_rows = {row.tobytes() for row in sim.scene.radiance[got[0] == 0.0]}
        assert tie_rows and not tie_rows & rescored
        tie_groups = baselines._tie_groups

        def one_cell_groups(pred, mixtures):
            theta, group = tie_groups(pred, mixtures)
            return theta, np.arange(group.size)

        monkeypatch.setattr(baselines, "_tie_groups", one_cell_groups)
        for x, y in zip(al.grid_search_retrieve(sim.scene, table36, cfg), got):
            np.testing.assert_array_equal(x, y)
        assert tie_rows <= rescored

    def test_argmin_between_two_levels_matches_oracle(self, table36, monkeypatch):
        """Observations midway between two adjacent levels' radiances fit
        both cells almost equally well.  The near-minimal cells lie on two
        levels, so every row is rescored in residual form, and the argmin
        is the oracle's cell."""
        mixtures = default_candidate_mixtures(8)[[0, 13, 60]]
        levels = np.linspace(0.0, 6.0, 25)
        pred = _grid_cells(table36, levels, mixtures).reshape(25, 3, 36)  # (T, G, C)
        rng = np.random.default_rng(10)
        P = 64
        t = rng.integers(0, 24, P)
        g = rng.integers(0, 3, P)
        radiance = 0.5 * (pred[t, g] + pred[t + 1, g])
        scene = al.Scene(8, 8, 36, radiance, np.ones(36, dtype=bool))
        cfg = replace(GridSearchConfig.defaults(table36, scene), tau_levels=levels,
                      candidate_mixtures=mixtures, success_threshold=1e-300)
        rescored = _spy_rescored_rows(monkeypatch)
        got = al.grid_search_retrieve(scene, table36, cfg)
        assert {row.tobytes() for row in radiance} <= rescored
        assert not got[2].any()
        _assert_matches_oracle(got, oracle_grid_search(scene, table36, cfg))

    @pytest.mark.parametrize("fit", ["near_exact", "noisy"])
    def test_threshold_crossings_match_oracle(self, table36, fit):
        """A threshold equal to a cell's residual-form misfit, or one float
        above or below it, decides success and the means as the oracle
        does, also where the expanded form has lost most of its digits."""
        rng = np.random.default_rng(9)
        # the default grid's cells
        pred = _grid_cells(table36, np.linspace(0.0, 6.0, 13), default_candidate_mixtures(8))
        P = 6
        cell = rng.integers(0, pred.shape[0], P)
        rel = 1e-8 if fit == "near_exact" else 0.05
        radiance = pred[cell] * (1.0 + rel * rng.standard_normal((P, 36)))
        scene = al.Scene(3, 2, 36, radiance, np.ones(36, dtype=bool))
        cfg = GridSearchConfig.defaults(table36, scene)
        chi2 = _direct_chi2_rows(scene, table36, cfg)
        for p in range(P):
            for rank in (0, 1, 5):
                d = np.sort(chi2[p])[rank]
                for thr in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
                    c = replace(cfg, success_threshold=float(thr))
                    got = al.grid_search_retrieve(scene, table36, c)
                    _assert_matches_oracle(got, oracle_grid_search(scene, table36, c))
                    assert got[2][p] == (rank > 0 or thr > d)


def _assert_tie_map_matches_oracle(pred, mixtures):
    """Every cell's fallback theta has oracle_tie_theta's bytes, and its
    group id is t * G + the oracle's first-tie label."""
    theta, group = baselines._tie_groups(pred, mixtures)
    T, G = pred.shape[:2]
    assert theta.shape == (T * G, mixtures.shape[1]) and group.shape == (T * G,)
    labels = {}
    for j in range(T * G):
        want = oracle_tie_theta(pred, mixtures, j, labels)
        assert theta[j].tobytes() == np.asarray(want, dtype=float).tobytes(), j
        t, g = divmod(j, G)
        assert group[j] == t * G + labels[t][g], j
    return group


class TestTieMap:
    """baselines._tie_groups against the candidate-by-candidate oracle."""

    def test_default_grid(self, table36):
        levels = np.linspace(*al.model.aod_domain(table36), 13)
        mixtures = default_candidate_mixtures(8)
        group = _assert_tie_map_matches_oracle(
            _grid_cells(table36, levels, mixtures).reshape(13, 92, 36), mixtures)
        assert np.all(group[:92] == 0)  # AOD 0: every candidate ties with the first

    def test_duplicated_candidates(self, table36):
        mixtures = default_candidate_mixtures(8)[[0, 13, 60, 13, 0, 36, 13]]
        levels = np.linspace(0.0, 6.0, 13)
        group = _assert_tie_map_matches_oracle(
            _grid_cells(table36, levels, mixtures).reshape(13, 7, 36), mixtures)
        np.testing.assert_array_equal(group[7:14], [7, 8, 9, 8, 7, 12, 8])

    def test_non_transitive_chain(self):
        """Level 0: candidates 0 and 1 tie, 1 and 2 tie, 0 and 2 do not
        (10, 10 and 20 eps apart on channel 0 against a tolerance of 16
        eps), so 2 joins 1's group, not 0's; 3 passes channel 0 against 0
        and 1 but not channel 2; 4 duplicates 2; 5 is far from all.  At
        level 1 every candidate gives the same radiance."""
        eps = np.finfo(float).eps
        level0 = np.full((6, 3), 0.5)
        level0[[1, 2, 4], 0] += np.array([10, 20, 20]) * eps
        level0[3, 2] += 30 * eps
        level0[5] = [0.9, 1.0, 0.2]  # the level's largest radiance: tol 16 eps
        pred = np.stack([level0, np.full((6, 3), 0.3)])
        mixtures = np.random.default_rng(14).dirichlet(np.ones(3), size=6)
        group = _assert_tie_map_matches_oracle(pred, mixtures)
        np.testing.assert_array_equal(group, [0, 0, 1, 3, 1, 5] + [6] * 6)


class TestComputeMetrics:
    def test_identical_fields(self):
        x = np.array([0.1, 0.4, 0.3, 0.2])
        rep = al.compute_metrics(x, x)
        assert rep.rmse == 0.0
        assert rep.mean_bias == 0.0
        assert rep.correlation_defined
        assert rep.correlation == pytest.approx(1.0)

    @pytest.mark.parametrize("fields", [
        (np.full(5, 0.3), np.full(5, 0.3)),
        (np.full(64, 0.1), np.linspace(0, 1, 64)),
        (np.linspace(0, 1, 64), np.full(64, 0.1)),
        (np.full(16384, 0.1), np.linspace(0, 1, 16384)),
        (np.linspace(0, 1, 16384), np.full(16384, 0.1)),
    ], ids=["identical", "constant-retrieved", "constant-reference",
            "16384-constant-retrieved", "16384-constant-reference"])
    def test_identical_constant_fields_flag_correlation(self, fields):
        """A constant field leaves the correlation undefined, also where
        its mean is not the constant exactly (64 or 16384 copies of 0.1)."""
        rep = al.compute_metrics(*fields)
        if np.array_equal(*fields):
            assert rep.rmse == 0.0
        assert not rep.correlation_defined
        assert np.isnan(rep.correlation)

    def test_affine_shift(self):
        rng = np.random.default_rng(5)
        ref = rng.uniform(0, 1, 50)
        rep = al.compute_metrics(ref + 0.05, ref)
        assert rep.mean_bias == pytest.approx(0.05, rel=1e-12)
        assert rep.rmse == pytest.approx(0.05, rel=1e-12)
        assert rep.correlation == pytest.approx(1.0, rel=1e-12)

    def test_textbook_oracle_random_fields(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, 100)
        b = rng.uniform(0, 1, 100)
        rep = al.compute_metrics(a, b)
        assert rep.correlation == pytest.approx(pearson_textbook(a, b), abs=1e-12)
        err = a - b
        rmse = np.sqrt(np.mean(err**2))
        assert rep.rmse == pytest.approx(rmse, abs=1e-12)
        assert rep.mean_bias == pytest.approx(err.mean(), abs=1e-12)

    def test_bias_variance_decomposition(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, 64)
        b = rng.uniform(0, 1, 64)
        rep = al.compute_metrics(a, b)
        err = a - b
        var = np.mean((err - err.mean()) ** 2)  # population convention
        assert rep.rmse**2 == pytest.approx(rep.mean_bias**2 + var, abs=1e-12)

    @pytest.mark.parametrize("huge", [1e160, -1.5e308])
    def test_huge_finite_entry_gives_finite_metrics(self, huge):
        """One huge entry among 64 overflows err**2 and the deviations'
        squares if they are not scaled first; the metrics stay finite and
        match overflow-free references (math.hypot and math.fsum, and the
        textbook correlation of the field scaled by an exact power of two)."""
        rng = np.random.default_rng(15)
        a = rng.uniform(0.1, 1.0, 64)
        b = rng.uniform(0.1, 1.0, 64)
        a[17] = huge
        rep = al.compute_metrics(a, b)
        err = a - b
        assert rep.rmse == pytest.approx(math.hypot(*err) / 8.0, rel=1e-14)
        assert rep.mean_bias == pytest.approx(math.fsum(err) / 64.0, rel=1e-14)
        assert rep.correlation_defined
        want = pearson_textbook(np.ldexp(a, -1024), b)
        assert rep.correlation == pytest.approx(want, rel=1e-12)
        np.testing.assert_array_equal(rep.per_region_error, err)

    @pytest.mark.parametrize("seed", [16, 17])
    def test_ordinary_fields_keep_the_unscaled_bits(self, seed):
        """On AOD-sized fields the power-of-two scaling is exact: every
        metric has the bits of the unscaled formulas."""
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 3.0, 100)
        a = b + 0.1 * rng.standard_normal(100)
        rep = al.compute_metrics(a, b)
        err = a - b
        sr, st = a - a.mean(), b - b.mean()
        assert rep.rmse == float(np.sqrt(np.mean(err**2)))
        assert rep.mean_bias == float(np.mean(err))
        denom = math.sqrt(float(np.sum(sr**2)) * float(np.sum(st**2)))
        assert rep.correlation == float(np.sum(sr * st) / denom)

    def test_mask_and_length_checks(self):
        """Fields of different lengths, fields of fewer than 2 entries, and
        fields with a non-finite entry."""
        with pytest.raises(al.ConfigurationError, match="lengths differ"):
            al.compute_metrics(np.zeros(3), np.zeros(4))
        with pytest.raises(al.ConfigurationError, match="at least 2"):
            al.compute_metrics(np.zeros(1), np.zeros(1))
        field = np.array([0.1, 0.2, 0.3])
        for bad in (np.nan, np.inf, -np.inf):
            broken = np.array([0.1, bad, 0.3])
            for retrieved, reference in ((broken, field), (field, broken)):
                with pytest.raises(al.ConfigurationError, match="finite"):
                    al.compute_metrics(retrieved, reference)


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


class TestStabilityBounds:
    def _problem(self, table, seed=20):
        sim = al.make_sim_scene(table, 6, 6, seed=seed)
        lat = al.build_lattice(6, 6)
        cfg = al.SolverConfig(
            hyper=al.HyperParams.uniform(table.n_components),
            seed=seed, epsilon_rel=3e-3, max_sweeps=80,
        )
        return sim, lat, cfg

    def test_identical_seeds_zero_std(self, small_table):
        sim, lat, cfg = self._problem(small_table)
        res = al.stability_bounds(sim.scene, small_table, lat, cfg, 2, seeds=[5, 5])
        np.testing.assert_array_equal(res.std, np.zeros(36))
        assert res.n_used == 2

    def test_std_nonnegative_finite(self, small_table):
        sim, lat, cfg = self._problem(small_table)
        res = al.stability_bounds(sim.scene, small_table, lat, cfg, 3, seeds=[1, 2, 3])
        assert np.all(res.std >= 0)
        assert np.all(np.isfinite(res.std))
        assert np.all(np.isfinite(res.mean))

    def test_nonconverged_runs_excluded(self, small_table):
        sim, lat, cfg = self._problem(small_table)
        starved = replace(cfg, max_sweeps=1, epsilon=1e-15)
        with pytest.raises(RuntimeError):
            al.stability_bounds(sim.scene, small_table, lat, starved, 2, seeds=[1, 2])

    def test_needs_two_inits(self, small_table):
        sim, lat, cfg = self._problem(small_table)
        with pytest.raises(al.ConfigurationError):
            al.stability_bounds(sim.scene, small_table, lat, cfg, 1, seeds=[1])
