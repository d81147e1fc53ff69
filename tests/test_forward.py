"""Forward table: interpolation/mixing contracts and synthetic construction."""

import numpy as np
import pytest

import aodlattice as al
from aodlattice.baselines import default_candidate_mixtures
from aodlattice.forward import export_table, import_table

from conftest import tiny_library
from oracles import oracle_eval_radiance


class TestEvalRadiance:
    def test_one_hot_at_knot_returns_stored_row(self, small_table):
        for m in range(small_table.n_components):
            theta = np.zeros(small_table.n_components)
            theta[m] = 1.0
            for k in (0, 3, small_table.tau_knots.size - 1):
                got = small_table.eval(float(small_table.tau_knots[k]), theta)
                np.testing.assert_array_equal(got, small_table.values[m, k, :])

    def test_midpoint_is_arithmetic_mean(self, small_table):
        theta = np.array([0.0, 1.0, 0.0])
        k = 2
        mid = 0.5 * (small_table.tau_knots[k] + small_table.tau_knots[k + 1])
        got = small_table.eval(float(mid), theta)
        want = 0.5 * (small_table.values[1, k, :] + small_table.values[1, k + 1, :])
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_mix_stays_in_component_envelope(self, small_table):
        rng = np.random.default_rng(0)
        M = small_table.n_components
        for _ in range(20):
            tau = float(rng.uniform(0, small_table.tau_max))
            theta = rng.dirichlet(np.ones(M))
            mixed = small_table.eval(tau, theta)
            per_comp = np.stack(
                [small_table.eval(tau, np.eye(M)[m]) for m in range(M)]
            )
            assert np.all(mixed >= per_comp.min(axis=0) - 1e-12)
            assert np.all(mixed <= per_comp.max(axis=0) + 1e-12)

    def test_linear_in_theta(self, small_table):
        rng = np.random.default_rng(1)
        M = small_table.n_components
        t1 = rng.dirichlet(np.ones(M))
        t2 = rng.dirichlet(np.ones(M))
        for a in (0.0, 0.25, 0.7, 1.0):
            mix = a * t1 + (1 - a) * t2
            got = small_table.eval(1.7, mix)
            want = a * small_table.eval(1.7, t1) + (1 - a) * small_table.eval(1.7, t2)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_continuous_at_knots(self, small_table):
        theta = np.full(3, 1.0 / 3.0)
        for k in range(1, small_table.tau_knots.size - 1):
            knot = float(small_table.tau_knots[k])
            at = small_table.eval(knot, theta)
            left = small_table.eval(knot - 1e-9, theta)
            right = small_table.eval(knot + 1e-9, theta)
            np.testing.assert_allclose(left, at, atol=1e-8)
            np.testing.assert_allclose(right, at, atol=1e-8)

    def test_domain_error_outside_range(self, small_table):
        theta = np.full(3, 1.0 / 3.0)
        with pytest.raises(al.DomainError):
            small_table.eval(-0.01, theta)
        with pytest.raises(al.DomainError):
            small_table.eval(small_table.tau_max + 0.01, theta)

    def test_batch_matches_scalar_bitwise(self, small_table):
        rng = np.random.default_rng(2)
        tau = rng.uniform(0, small_table.tau_max, 11)
        theta = rng.dirichlet(np.ones(3), size=11)
        batch = small_table.eval_batch(tau, theta)
        for p in range(11):
            np.testing.assert_array_equal(batch[p], small_table.eval(float(tau[p]), theta[p]))

    def test_grid_matches_scalar_bitwise(self, table36):
        """Every (level, mixture) cell of the grid the baseline scores is
        the radiance eval gives at that level and mixture."""
        levels = np.linspace(table36.tau_min, table36.tau_max, 13)
        mixtures = default_candidate_mixtures(table36.n_components)
        grid = table36.eval_grid(levels, mixtures)
        assert grid.shape == (13, mixtures.shape[0], table36.n_channels)
        for t, tau in enumerate(levels):
            for g, row in enumerate(mixtures):
                np.testing.assert_array_equal(grid[t, g], table36.eval(float(tau), row))

    def test_matches_loop_oracle(self, table36):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tau = float(rng.uniform(0, table36.tau_max))
            theta = rng.dirichlet(np.ones(table36.n_components))
            got = table36.eval(tau, theta)
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


class TestTableExport:
    def test_roundtrip(self, small_table, tmp_path):
        export_table(small_table, tmp_path / "table.json", tmp_path / "table.csv")
        loaded = import_table(tmp_path / "table.json", tmp_path / "table.csv")
        np.testing.assert_array_equal(loaded.tau_knots, small_table.tau_knots)
        np.testing.assert_array_equal(loaded.values, small_table.values)
