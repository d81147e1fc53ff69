"""Patch partitioning and parallel sweep semantics."""

import os
from dataclasses import replace

import numpy as np
import pytest

import aodlattice as al
from aodlattice.parallel import partition

from conftest import random_scene


class TestPartition:
    def test_single_patch(self):
        lat = al.build_lattice(5, 4)
        part = partition(lat, 1)
        assert part.n_patches == 1
        assert len(part.patches[0]) == 20

    def test_16x16_quadrants(self):
        lat = al.build_lattice(16, 16)
        part = partition(lat, 4)
        sizes = sorted(len(p) for p in part.patches)
        assert sizes == [64, 64, 64, 64]
        rect_shapes = {(r1 - r0, c1 - c0) for r0, r1, c0, c1 in part.rects}
        assert rect_shapes == {(8, 8)}

    def test_one_region_per_patch_limit(self):
        lat = al.build_lattice(3, 3)
        part = partition(lat, 9)
        assert all(len(p) == 1 for p in part.patches)

    def test_too_many_patches_rejected(self):
        lat = al.build_lattice(3, 3)
        with pytest.raises(al.ConfigurationError):
            partition(lat, 10)
        with pytest.raises(al.ConfigurationError):
            partition(lat, 0)

    def test_coverage_disjointness_balance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            w = int(rng.integers(2, 14))
            h = int(rng.integers(2, 14))
            lat = al.build_lattice(w, h)
            n = int(rng.integers(1, w * h + 1))
            part = partition(lat, n)
            part.validate(lat)  # coverage + disjointness
            sizes = np.array([len(p) for p in part.patches])
            assert sizes.max() / sizes.min() <= 2.0


class TestParallelSweep:
    def _problem(self, table, seed, side=6):
        rng = np.random.default_rng(seed)
        scene = random_scene(table, rng, side, side)
        lat = al.build_lattice(side, side)
        hyper = al.HyperParams.uniform(table.n_components)
        cfg = al.SolverConfig(hyper=hyper, seed=seed, max_sweeps=12, epsilon=1e-9)
        init = al.init_state(scene, table, "flat", hyper)
        return scene, lat, cfg, init

    def test_single_patch_sweep_matches_snapshotless_semantics(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 1)
        part = partition(lat, 1)
        out = al.parallel_sweep(init, init.copy(), scene, small_table, lat, part, cfg, sweep=1)
        al.validate_state(out, cfg.hyper)

    def test_only_cross_patch_rows_of_snapshot_are_read(self, small_table):
        """Perturbing snapshot entries that are not cross-patch neighbors
        of any patch must not change the sweep result."""
        scene, lat, cfg, init = self._problem(small_table, 2)
        part = partition(lat, 4)
        base = al.parallel_sweep(init, init.copy(), scene, small_table, lat, part, cfg, sweep=1)

        # regions whose neighbors all live in their own patch
        interior = [
            p for p in range(lat.n_regions)
            if all(part.assignment[q] == part.assignment[p] for q in lat.neighbors(p))
        ]
        assert interior  # the test needs some fully-interior regions
        doctored = init.copy()
        doctored.tau[interior] = 5.5  # garbage snapshot rows, never read
        doctored.theta[interior] = np.eye(small_table.n_components)[0]
        out = al.parallel_sweep(init, doctored, scene, small_table, lat, part, cfg, sweep=1)
        np.testing.assert_array_equal(out.tau, base.tau)
        np.testing.assert_array_equal(out.theta, base.theta)


class TestRunMapParallel:
    def _problem(self, table, seed, side=6):
        rng = np.random.default_rng(seed)
        scene = random_scene(table, rng, side, side)
        lat = al.build_lattice(side, side)
        hyper = al.HyperParams.uniform(table.n_components)
        cfg = al.SolverConfig(hyper=hyper, seed=seed, max_sweeps=15, epsilon=1e-9)
        init = al.init_state(scene, table, "flat", hyper)
        return scene, lat, cfg, init

    def test_single_patch_is_bitwise_sequential(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 3)
        st_seq, tr_seq = al.run_map(scene, small_table, lat, cfg, init)
        st_par, tr_par, _ = al.run_map_parallel(
            scene, small_table, lat, cfg, 1, init, executor="serial"
        )
        np.testing.assert_array_equal(st_seq.tau, st_par.tau)
        np.testing.assert_array_equal(st_seq.theta, st_par.theta)
        np.testing.assert_array_equal(st_seq.sigma2, st_par.sigma2)
        assert st_seq.kappa == st_par.kappa
        assert tr_seq.log_posterior == tr_par.log_posterior

    def test_executors_agree_bitwise(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 4)
        st_serial, _, _ = al.run_map_parallel(
            scene, small_table, lat, cfg, 4, init, executor="serial"
        )
        st_thread, _, _ = al.run_map_parallel(
            scene, small_table, lat, cfg, 4, init, executor="thread"
        )
        np.testing.assert_array_equal(st_serial.tau, st_thread.tau)
        np.testing.assert_array_equal(st_serial.theta, st_thread.theta)

    def test_process_executor_agrees(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 5)
        cfg = replace(cfg, max_sweeps=5)
        st_serial, _, _ = al.run_map_parallel(
            scene, small_table, lat, cfg, 2, init, executor="serial"
        )
        st_proc, _, _ = al.run_map_parallel(
            scene, small_table, lat, cfg, 2, init, executor="process"
        )
        np.testing.assert_array_equal(st_serial.tau, st_proc.tau)
        np.testing.assert_array_equal(st_serial.theta, st_proc.theta)

    def test_deterministic_reruns(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 6)
        a, _, _ = al.run_map_parallel(scene, small_table, lat, cfg, 4, init, executor="thread")
        b, _, _ = al.run_map_parallel(scene, small_table, lat, cfg, 4, init, executor="thread")
        np.testing.assert_array_equal(a.tau, b.tau)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_speedup_record_rows(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 8)
        _, trace, speedup = al.run_map_parallel(
            scene, small_table, lat, cfg, 2, init, executor="serial"
        )
        assert len(speedup.rows) == trace.sweeps
        assert all(n == 2 and ms >= 0 for n, _, ms in speedup.rows)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 8,
                        reason="throughput check needs >= 8 hardware threads")
    def test_speedup_over_serial_on_wide_machines(self, table36):
        sim = al.make_sim_scene(table36, 32, 32, seed=9)
        lat = al.build_lattice(32, 32)
        hyper = al.HyperParams.uniform(8)
        cfg = al.SolverConfig(hyper=hyper, seed=9, max_sweeps=6, epsilon=1e-12)
        init = al.init_state(sim.scene, table36, "flat", hyper)
        _, _, sp1 = al.run_map_parallel(sim.scene, table36, lat, cfg, 1, init, executor="process")
        _, _, sp8 = al.run_map_parallel(sim.scene, table36, lat, cfg, 8, init, executor="process")
        assert sp1.total_ms() / sp8.total_ms() > 1.0
