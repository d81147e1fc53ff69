"""Interchange formats: scene directories, sidecars, traces, manifests."""

import json

import numpy as np
import pytest

import aodlattice as al
from aodlattice import io


class TestSceneRoundtrip:
    def test_save_load_exact(self, library, table36, tmp_path):
        sim = al.make_sim_scene(table36, 5, 4, seed=3, noise_level=0.2)
        io.save_scene(tmp_path, sim.scene, library,
                      {"knots": 25, "tau_max": 6.0, "seed": 0}, noise_level=0.2)
        scene, lib2, table2 = io.load_scene(tmp_path)
        np.testing.assert_array_equal(scene.radiance, sim.scene.radiance)
        assert scene.width == 5 and scene.height == 4
        assert lib2.ids == library.ids
        np.testing.assert_array_equal(table2.values, table36.values)

    def test_missing_scene_json(self, tmp_path):
        with pytest.raises(al.ConfigurationError):
            io.load_scene(tmp_path / "nowhere")

    def test_channel_mask_preserved(self, library, table36, tmp_path):
        sim = al.make_sim_scene(table36, 4, 4, seed=4)
        sim.scene.channel_mask[5] = False
        io.save_scene(tmp_path, sim.scene, library, {"knots": 25, "tau_max": 6.0, "seed": 0})
        scene, _, _ = io.load_scene(tmp_path)
        assert not scene.channel_mask[5]
        assert scene.channel_mask.sum() == 35


class TestTruthSidecar:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        tau = rng.uniform(0, 1, 12)
        theta = rng.dirichlet(np.ones(4), size=12)
        io.save_truth(tmp_path, tau, theta)
        got_tau, got_theta = io.load_truth(tmp_path)
        np.testing.assert_array_equal(got_tau, tau)
        np.testing.assert_array_equal(got_theta, theta)

    def test_absent_sidecar_is_none(self, tmp_path):
        assert io.load_truth(tmp_path) is None


class TestTraceAndRecords:
    def test_trace_csv_columns(self, small_table, tmp_path):
        rng = np.random.default_rng(6)
        from conftest import random_scene

        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=6, max_sweeps=5, epsilon=1e-12)
        init = al.init_state(scene, small_table, "flat", hyper)
        _, trace = al.run_map(scene, small_table, lat, cfg, init)
        path = tmp_path / "trace.csv"
        io.save_trace(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,log_posterior,tau_accept_rate,theta_accept_rate,kappa,elapsed_ms"
        assert len(lines) == trace.sweeps + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == trace.log_posterior[0]

    def test_speedup_csv(self, tmp_path):
        one = al.SweepTrace(n_regions=4, elapsed_ms=[5.0, 4.5])
        two = al.SweepTrace(n_regions=4, elapsed_ms=[2.25])
        path = tmp_path / "speedup.csv"
        io.save_speedup(path, [(1, one), (2, two)])
        assert path.read_text().splitlines() == [
            "n_patches,sweep,elapsed_ms", "1,1,5.0", "1,2,4.5", "2,1,2.25"]

    def test_metrics_json(self, tmp_path):
        rep = al.compute_metrics(np.array([0.1, 0.2, 0.4]), np.array([0.1, 0.25, 0.35]))
        path = tmp_path / "metrics.json"
        io.save_metrics(path, rep)
        data = json.loads(path.read_text())
        assert data["rmse"] == rep.rmse
        assert data["n"] == 3

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        io.write_manifest(path, {"run": {"seed": "3"}}, 3, {"stage": 12.5})
        data = json.loads(path.read_text())
        assert data["seed"] == 3
        assert len(data["config_hash"]) == 64
        assert data["versions"]["aodlattice"] == al.__version__


class TestMatrixCsv:
    def test_float_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((6, 3)) * 1e-7
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, arr)
        back = io.read_matrix_csv(path)
        np.testing.assert_array_equal(back, arr)
