"""Forward table: interpolation/mixing contracts and synthetic construction."""

import dataclasses

import numpy as np
import pytest

import aodlattice as al
from aodlattice.baselines import default_candidate_mixtures
from aodlattice.forward import _MIX_BLOCK

from conftest import tiny_library
from oracles import oracle_eval_radiance


def one_row(table, tau, theta):
    """Radiance of one region: eval_batch on a single row."""
    return table.eval_batch(np.array([tau], dtype=float),
                            np.asarray(theta, dtype=float)[None])[0]


class TestEvalRadiance:
    def test_one_hot_at_knot_returns_stored_row(self, small_table):
        for m in range(small_table.n_components):
            theta = np.zeros(small_table.n_components)
            theta[m] = 1.0
            for k in (0, 3, small_table.tau_knots.size - 1):
                got = one_row(small_table, small_table.tau_knots[k], theta)
                np.testing.assert_array_equal(got, small_table.values[m, k, :])

    def test_midpoint_is_arithmetic_mean(self, small_table):
        theta = np.array([0.0, 1.0, 0.0])
        k = 2
        mid = 0.5 * (small_table.tau_knots[k] + small_table.tau_knots[k + 1])
        got = one_row(small_table, mid, theta)
        want = 0.5 * (small_table.values[1, k, :] + small_table.values[1, k + 1, :])
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_mix_stays_in_component_envelope(self, small_table):
        rng = np.random.default_rng(0)
        M = small_table.n_components
        for _ in range(20):
            tau = float(rng.uniform(0, small_table.tau_max))
            theta = rng.dirichlet(np.ones(M))
            mixed = one_row(small_table, tau, theta)
            per_comp = np.stack([one_row(small_table, tau, np.eye(M)[m]) for m in range(M)])
            assert np.all(mixed >= per_comp.min(axis=0) - 1e-12)
            assert np.all(mixed <= per_comp.max(axis=0) + 1e-12)

    def test_linear_in_theta(self, small_table):
        rng = np.random.default_rng(1)
        M = small_table.n_components
        t1 = rng.dirichlet(np.ones(M))
        t2 = rng.dirichlet(np.ones(M))
        for a in (0.0, 0.25, 0.7, 1.0):
            mix = a * t1 + (1 - a) * t2
            got = one_row(small_table, 1.7, mix)
            want = a * one_row(small_table, 1.7, t1) + (1 - a) * one_row(small_table, 1.7, t2)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_continuous_at_knots(self, small_table):
        theta = np.full(3, 1.0 / 3.0)
        for k in range(1, small_table.tau_knots.size - 1):
            knot = float(small_table.tau_knots[k])
            at = one_row(small_table, knot, theta)
            left = one_row(small_table, knot - 1e-9, theta)
            right = one_row(small_table, knot + 1e-9, theta)
            np.testing.assert_allclose(left, at, atol=1e-8)
            np.testing.assert_allclose(right, at, atol=1e-8)

    def test_domain_error_outside_range(self, small_table):
        theta = np.full(3, 1.0 / 3.0)
        with pytest.raises(al.DomainError):
            one_row(small_table, -0.01, theta)
        with pytest.raises(al.DomainError):
            one_row(small_table, small_table.tau_max + 0.01, theta)
        with pytest.raises(al.DomainError):
            small_table.eval_batch(np.array([1.0, small_table.tau_max + 0.01]),
                                   np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(al.DomainError):  # NaN lies in no range
            small_table.eval_batch(np.array([np.nan, 0.5]), np.full((2, 3), 1.0 / 3.0))

    def test_batch_matches_scalar_bitwise(self, small_table):
        rng = np.random.default_rng(2)
        tau = rng.uniform(0, small_table.tau_max, 11)
        theta = rng.dirichlet(np.ones(3), size=11)
        batch = small_table.eval_batch(tau, theta)
        for p in range(11):
            np.testing.assert_array_equal(batch[p], one_row(small_table, tau[p], theta[p]))

    def test_rows_independent_across_blocks(self, small_table):
        """Rows spanning three interpolation blocks: the whole batch, each
        row alone and two interleaved halves (as the sweep kernel's
        colour-class shares are evaluated) agree bit for bit."""
        n = 2 * _MIX_BLOCK + 37
        rng = np.random.default_rng(4)
        tau = rng.uniform(0, small_table.tau_max, n)
        tau[:3] = small_table.tau_min, small_table.tau_max, small_table.tau_knots[4]
        theta = rng.dirichlet(np.ones(3), size=n)
        batch = small_table.eval_batch(tau, theta)
        assert batch.shape == (n, small_table.n_channels)
        alone = np.stack([one_row(small_table, tau[p], theta[p]) for p in range(n)])
        np.testing.assert_array_equal(batch, alone)
        halves = np.empty_like(batch)
        for part in (slice(0, None, 2), slice(1, None, 2)):
            halves[part] = small_table.eval_batch(tau[part], theta[part])
        np.testing.assert_array_equal(batch, halves)

    def test_rows_independent_at_production_shape(self, table36):
        """The same three-way check on the 8-component, 36-channel table,
        whose shape sets the contraction's inner loops; then one theta row
        broadcast with stride 0 over every tau gives each row's one-row
        value."""
        n = 2 * _MIX_BLOCK + 37
        M = table36.n_components
        rng = np.random.default_rng(5)
        tau = rng.uniform(0, table36.tau_max, n)
        tau[:3] = table36.tau_min, table36.tau_max, table36.tau_knots[4]
        theta = rng.dirichlet(np.ones(M), size=n)
        batch = table36.eval_batch(tau, theta)
        assert batch.shape == (n, table36.n_channels)
        alone = np.stack([one_row(table36, tau[p], theta[p]) for p in range(n)])
        np.testing.assert_array_equal(batch, alone)
        halves = np.empty_like(batch)
        for part in (slice(0, None, 2), slice(1, None, 2)):
            halves[part] = table36.eval_batch(tau[part], theta[part])
        np.testing.assert_array_equal(batch, halves)
        shared = np.broadcast_to(theta[0], (n, M))
        assert shared.strides[0] == 0
        np.testing.assert_array_equal(
            table36.eval_batch(tau, shared),
            np.stack([one_row(table36, tau[p], theta[0]) for p in range(n)]))

    @pytest.mark.parametrize("block", [1, 7, 256, 1024])
    def test_block_size_does_not_move_bits(self, table36, monkeypatch, block):
        """The rows per interpolation block only set speed: any block size
        gives the bytes of the default one."""
        n = 2 * 1024 + 37
        rng = np.random.default_rng(6)
        tau = rng.uniform(0, table36.tau_max, n)
        theta = rng.dirichlet(np.ones(table36.n_components), size=n)
        want = table36.eval_batch(tau, theta)
        monkeypatch.setattr(al.forward, "_MIX_BLOCK", block)
        assert table36.eval_batch(tau, theta).tobytes() == want.tobytes()

    def test_grid_matches_scalar_bitwise(self, table36):
        """Every (level, mixture) cell of the level-major rows the grid
        baseline scores in one eval_batch call is the radiance of that level
        and mixture alone."""
        levels = np.linspace(table36.tau_min, table36.tau_max, 13)
        mixtures = default_candidate_mixtures(table36.n_components)
        G = mixtures.shape[0]
        cells = table36.eval_batch(np.repeat(levels, G), np.tile(mixtures, (13, 1)))
        assert cells.shape == (13 * G, table36.n_channels)
        for t, tau in enumerate(levels):
            for g, row in enumerate(mixtures):
                np.testing.assert_array_equal(cells[t * G + g], one_row(table36, tau, row))

    def test_matches_loop_oracle(self, table36):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tau = float(rng.uniform(0, table36.tau_max))
            theta = rng.dirichlet(np.ones(table36.n_components))
            got = one_row(table36, tau, theta)
            want = oracle_eval_radiance(table36, tau, theta)
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestSyntheticTable:
    def test_deterministic_in_seed(self, library):
        a = al.build_synthetic_table(library, channels=36, knots=25, tau_max=6.0, seed=9)
        b = al.build_synthetic_table(library, channels=36, knots=25, tau_max=6.0, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        c = al.build_synthetic_table(library, channels=36, knots=25, tau_max=6.0, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_strictly_monotone_in_tau(self, table36):
        diffs = np.diff(table36.values, axis=1)
        assert np.all(diffs > 0)

    def test_zero_tau_row_is_pure_surface(self, table36):
        first = table36.values[0, 0, :]
        for m in range(1, table36.n_components):
            np.testing.assert_array_equal(table36.values[m, 0, :], first)

    def test_lower_ssa_means_lower_radiance(self):
        records = [
            {"id": 1, "category": "bright", "r_min": 0.001, "r_max": 0.75,
             "r_c": 0.06, "width": 1.7, "ssa_558": 1.0},
            {"id": 2, "category": "absorbing twin", "r_min": 0.001, "r_max": 0.75,
             "r_c": 0.06, "width": 1.7, "ssa_558": 0.8},
        ]
        lib = al.ComponentLibrary.from_records(records)
        table = al.build_synthetic_table(lib, channels=12, knots=13, tau_max=6.0, seed=4)
        bright = table.values[0, 1:, :]
        absorbing = table.values[1, 1:, :]
        assert np.all(absorbing < bright)

    def test_table_owns_frozen_arrays(self, small_table):
        """The table copies its inputs and freezes them, so nothing can
        change the knot values behind eval_batch's cached layout."""
        knots = small_table.tau_knots.copy()
        values = small_table.values.copy()
        table = al.RadianceTable(knots, values)
        knots[1] += 0.1
        values[:, 2, :] += 1.0
        np.testing.assert_array_equal(table.tau_knots, small_table.tau_knots)
        np.testing.assert_array_equal(table.values, small_table.values)
        with pytest.raises(ValueError):
            table.values[0, 2, 0] = 1.0
        with pytest.raises(ValueError):
            table.values += 1.0
        with pytest.raises(ValueError):
            table.tau_knots[1] = 0.1
        theta = np.full(3, 1.0 / 3.0)
        np.testing.assert_array_equal(one_row(table, 0.5, theta), one_row(small_table, 0.5, theta))

    def test_input_validation(self):
        lib = tiny_library()
        with pytest.raises(al.ConfigurationError):
            al.build_synthetic_table(lib, channels=0)
        with pytest.raises(al.ConfigurationError):
            al.build_synthetic_table(lib, knots=1)


class TestDefaultLibrary:
    def test_contents(self, library):
        assert library.n_components == 8
        assert library.ids == [1, 2, 3, 6, 8, 14, 19, 21]
        by_id = {c.id: c for c in library.components}
        assert by_id[8].ssa_558 == 0.9
        assert by_id[14].ssa_558 == 0.8
        assert by_id[19].ssa_558 == 0.98
        assert by_id[1].r_c == 0.03
        library.validate()

    def test_component_validation(self):
        with pytest.raises(al.ConfigurationError):
            al.AerosolComponent(1, "bad", r_min=0.5, r_max=0.4, r_c=0.45,
                                width=1.7, ssa_558=1.0).validate()
        with pytest.raises(al.ConfigurationError):
            al.ComponentLibrary.from_records(
                [{"id": 1, "category": "a", "r_min": 0.01, "r_max": 1.0,
                  "r_c": 0.1, "width": 1.7, "ssa_558": 1.0}]
            )



class EvalBatchOnly:
    """A forward object with nothing but the forward interface: eval_batch
    and the four attributes, no delegation to the table behind it."""

    def __init__(self, table):
        self._table = table
        self.n_components = table.n_components
        self.n_channels = table.n_channels
        self.tau_min = table.tau_min
        self.tau_max = table.tau_max

    def eval_batch(self, tau, theta):
        return self._table.eval_batch(tau, theta)


def _assert_same(got, want):
    """Bitwise equality through dataclasses, sequences and arrays; wall
    times are left out."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            if f.name != "elapsed_ms":
                _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    else:
        np.testing.assert_array_equal(got, want)


def _forward_calls():
    """Every library entry point that takes a forward object, as a function
    of that object, on one small noisy scene."""
    lat = al.build_lattice(6, 6)
    hyper = al.HyperParams.uniform(3)
    cfg = al.SolverConfig(hyper=hyper, seed=3, max_sweeps=4, epsilon=1e-300)
    mcfg = al.McmcConfig(hyper=hyper, iterations=6, burn_in=2, thin=2, seed=4)

    def scene(fwd):
        return al.make_sim_scene(fwd, 6, 6, noise_level=0.05, seed=3).scene

    def init(fwd, strategy="flat"):
        return al.init_state(scene(fwd), fwd, strategy, hyper, seed=5)

    def grid(fwd):
        s = scene(fwd)
        return al.grid_search_retrieve(s, fwd, al.GridSearchConfig.defaults(fwd, s))

    return {
        "make_sim_scene": lambda fwd: al.make_sim_scene(fwd, 6, 6, noise_level=0.05, seed=3),
        "init_state-flat": lambda fwd: init(fwd, "flat"),
        "init_state-random": lambda fwd: init(fwd, "random"),
        "init_state-coarse_grid": lambda fwd: init(fwd, "coarse_grid"),
        "run_map": lambda fwd: al.run_map(scene(fwd), fwd, lat, cfg, init(fwd)),
        "run_map_parallel": lambda fwd: al.run_map_parallel(scene(fwd), fwd, lat, cfg, 2,
                                                            init(fwd))[:2],
        "run_mcmc": lambda fwd: al.run_mcmc(scene(fwd), fwd, lat, mcfg, init(fwd)),
        "mh_sweep": lambda fwd: al.mh_sweep(init(fwd), scene(fwd), fwd, lat, mcfg, 1),
        "grid_search_retrieve": grid,
        "log_posterior": lambda fwd: al.log_posterior(scene(fwd), init(fwd), hyper, fwd),
        "delta_log_posterior_tau": lambda fwd: al.delta_log_posterior_tau(
            init(fwd, "random"), scene(fwd), lat, fwd, 7, 0.4),
        "delta_log_posterior_theta": lambda fwd: al.delta_log_posterior_theta(
            init(fwd, "random"), scene(fwd), lat, fwd, 7, np.array([0.2, 0.5, 0.3]), hyper),
        "update_sigma": lambda fwd: al.update_sigma(init(fwd, "random"), scene(fwd), fwd),
    }


class TestForwardInterface:
    """The library needs nothing of a forward object but eval_batch and
    n_components, n_channels, tau_min and tau_max."""

    @pytest.mark.parametrize("name", list(_forward_calls()))
    def test_one_method_object_matches_table_bitwise(self, small_table, name):
        fwd = EvalBatchOnly(small_table)
        assert {n for n in dir(fwd) if not n.startswith("_")} == {
            "eval_batch", "n_components", "n_channels", "tau_min", "tau_max"}
        call = _forward_calls()[name]
        _assert_same(call(fwd), call(small_table))
