"""Patch partitioning and patch-parallel MAP runs."""

import os
import sys

import numpy as np
import pytest

import aodlattice as al
from aodlattice import io
from aodlattice.parallel import EXECUTORS, partition

from conftest import random_scene


class TestPartition:
    def test_single_patch(self):
        lat = al.build_lattice(5, 4)
        part = partition(lat, 1)
        assert part.n_patches == 1
        assert len(part.patches[0]) == 20

    def test_16x16_four_runs(self):
        lat = al.build_lattice(16, 16)
        part = partition(lat, 4)
        for k, regions in enumerate(part.patches):
            np.testing.assert_array_equal(regions, np.arange(64 * k, 64 * k + 64))

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
            assert len(part.patches) == n
            assert sum(len(p) for p in part.patches) == w * h
            sizes = np.array([len(p) for p in part.patches])
            assert sizes.max() - sizes.min() <= 1
            for k, regions in enumerate(part.patches):
                np.testing.assert_array_equal(np.diff(regions), 1)
                assert np.all(part.assignment[regions] == k)
            np.testing.assert_array_equal(np.concatenate(part.patches), np.arange(w * h))


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

    def test_single_patch_starts_no_thread(self, small_table, monkeypatch):
        """One patch sweeps in the calling thread: its pool never gets a
        submit, so it starts no thread; two patches do submit."""
        from concurrent.futures import ThreadPoolExecutor

        def no_submit(*args, **kwargs):
            raise AssertionError("a share was submitted to the thread pool")

        scene, lat, cfg, init = self._problem(small_table, 5)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", no_submit)
        _, trace, _ = al.run_map_parallel(scene, small_table, lat, cfg, 1, init)
        assert trace.sweeps >= 1
        with pytest.raises(AssertionError, match="submitted"):
            al.run_map_parallel(scene, small_table, lat, cfg, 2, init)

    @pytest.mark.parametrize("width, height", [(6, 6), (5, 7)])
    def test_every_patch_count_and_executor_equals_run_map(self, small_table, width, height):
        """State, sweeps, convergence and trace equal run_map's bitwise for
        every patch count, and for every executor name at 4 patches (the
        name has no effect).  On 6x6, 36 one-region patches queue more
        shares than the pool has threads."""
        rng = np.random.default_rng(width * height)
        scene = random_scene(small_table, rng, width, height)
        lat = al.build_lattice(width, height)
        hyper = al.HyperParams.uniform(small_table.n_components)
        cfg = al.SolverConfig(hyper=hyper, seed=21, max_sweeps=40, epsilon_rel=1e-5)
        init = al.init_state(scene, small_table, "flat", hyper)
        ref, ref_trace = al.run_map(scene, small_table, lat, cfg, init)
        assert np.all(np.diff([ref_trace.initial_log_posterior] + ref_trace.log_posterior) >= 0)
        runs = [(n, "serial") for n in (1, 2, 9, 36) if n <= lat.n_regions]
        runs += [(4, executor) for executor in EXECUTORS]
        for n, executor in runs:
            state, trace, _ = al.run_map_parallel(scene, small_table, lat, cfg, n, init,
                                                  executor=executor)
            np.testing.assert_array_equal(state.tau, ref.tau)
            np.testing.assert_array_equal(state.theta, ref.theta)
            np.testing.assert_array_equal(state.sigma2, ref.sigma2)
            assert state.kappa == ref.kappa
            assert (trace.sweeps, trace.converged) == (ref_trace.sweeps, ref_trace.converged)
            assert trace.log_posterior == ref_trace.log_posterior

    def test_shared_workspace_under_fast_thread_switching(self, small_table):
        """36 patches on 8 threads with a 1 us switch interval: an update lost
        or crossed between patch threads would break bitwise equality."""
        scene, lat, cfg, init = self._problem(small_table, 7)
        ref, ref_trace = al.run_map(scene, small_table, lat, cfg, init)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            state, trace, _ = al.run_map_parallel(scene, small_table, lat, cfg, 36, init)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(state.tau, ref.tau)
        np.testing.assert_array_equal(state.theta, ref.theta)
        assert trace.log_posterior == ref_trace.log_posterior

    def test_deterministic_reruns(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 6)
        a, _, _ = al.run_map_parallel(scene, small_table, lat, cfg, 4, init, executor="thread")
        b, _, _ = al.run_map_parallel(scene, small_table, lat, cfg, 4, init, executor="thread")
        np.testing.assert_array_equal(a.tau, b.tau)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_speedup_record_rows(self, small_table, tmp_path):
        """The third return value is the partition swept; with the trace it
        gives speedup.csv one row per sweep."""
        scene, lat, cfg, init = self._problem(small_table, 8)
        _, trace, part = al.run_map_parallel(
            scene, small_table, lat, cfg, 2, init, executor="serial"
        )
        assert isinstance(part, al.PatchPartition)
        assert part.n_patches == 2
        np.testing.assert_array_equal(part.assignment, partition(lat, 2).assignment)
        assert len(trace.elapsed_ms) == trace.sweeps
        path = tmp_path / "speedup.csv"
        io.save_speedup(path, [(part.n_patches, trace)])
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(int(n), int(sweep)) for n, sweep, _ in rows] == [
            (2, s) for s in range(1, trace.sweeps + 1)]
        assert [float(ms) for _, _, ms in rows] == trace.elapsed_ms
        assert all(ms >= 0 for ms in trace.elapsed_ms)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 8,
                        reason="throughput check needs >= 8 hardware threads")
    def test_speedup_over_serial_on_wide_machines(self, table36):
        sim = al.make_sim_scene(table36, 32, 32, seed=9)
        lat = al.build_lattice(32, 32)
        hyper = al.HyperParams.uniform(8)
        cfg = al.SolverConfig(hyper=hyper, seed=9, max_sweeps=6, epsilon=1e-12)
        init = al.init_state(sim.scene, table36, "flat", hyper)
        _, t1, _ = al.run_map_parallel(sim.scene, table36, lat, cfg, 1, init, executor="process")
        _, t8, _ = al.run_map_parallel(sim.scene, table36, lat, cfg, 8, init, executor="process")
        assert sum(t1.elapsed_ms) / sum(t8.elapsed_ms) > 1.0
