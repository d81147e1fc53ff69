"""CLI pipelines: subcommands, exit codes, determinism."""

import json

import pytest

import aodlattice as al
from aodlattice import cli
from aodlattice import io


SMALL = [
    "--set", "scene.width=8",
    "--set", "scene.height=8",
    "--set", "scene.channels=12",
    "--set", "table.knots=13",
    "--set", "solver.epsilon_rel=3e-3",
]


def run_cli(*argv):
    return cli.main(list(argv))


class TestSimulate:
    def test_minimal_defaults(self, tmp_path):
        out = tmp_path / "scene"
        assert run_cli("simulate", "--out", str(out)) == 0
        meta = json.loads((out / "scene.json").read_text())
        assert meta["width"] == 16 and meta["height"] == 16
        assert (out / "radiance.csv").exists()
        assert (out / "truth.csv").exists()
        assert (out / "manifest.json").exists()
        scene, lib, table = io.load_scene(out)
        scene.validate()
        assert lib.n_components == 8

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("simulate", *SMALL, "--out", str(a)) == 0
        assert run_cli("simulate", *SMALL, "--out", str(b)) == 0
        for name in ("scene.json", "radiance.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_noise_only_touches_observations(self, tmp_path):
        clean = tmp_path / "clean"
        noisy = tmp_path / "noisy"
        assert run_cli("simulate", *SMALL, "--out", str(clean)) == 0
        assert run_cli("simulate", *SMALL, "--set", "noise.level=0.5", "--out", str(noisy)) == 0
        assert (clean / "truth.csv").read_bytes() == (noisy / "truth.csv").read_bytes()
        assert (clean / "radiance.csv").read_bytes() != (noisy / "radiance.csv").read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[solver\ndelta = 0.05\n")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err.lower() or "malformed" in err.lower()

    def test_unknown_key_exits_2(self, tmp_path):
        assert run_cli("simulate", "--set", "solver.bogus=1", "--out", str(tmp_path / "x")) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path / "x")) == 2

    def test_truth_outside_table_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("simulate", *SMALL, "--set", "truth.tau_hi=9", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_invalid_scene_is_not_written(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("simulate", *SMALL, "--set", "scene.channels=40", "--out", str(out)) == 2
        assert "36 channels" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[run]\nseed = 11\n\n[scene]\nwidth = 6\nheight = 6\nchannels = 8\n"
            "\n[table]\nknots = 9\n"
        )
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        meta = json.loads((out / "scene.json").read_text())
        assert meta["width"] == 6 and meta["channels"] == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "small"
    assert run_cli("simulate", *SMALL, "--out", str(out)) == 0
    return out


class TestRetrieve:
    def test_map_writes_retrieval_and_metrics(self, scene_dir, tmp_path):
        out = tmp_path / "map"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "map",
                       *SMALL, "--out", str(out)) == 0
        tau = io.read_matrix_csv(out / "tau.csv")
        assert tau.shape == (64, 1)
        assert (out / "theta.csv").exists()
        assert (out / "trace.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] < 0.2
        assert (out / "error.csv").exists()

    def test_map_parallel_single_patch_matches_map(self, scene_dir, tmp_path):
        a = tmp_path / "map"
        b = tmp_path / "par"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "map",
                       *SMALL, "--out", str(a)) == 0
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "map-parallel",
                       *SMALL, "--set", "parallel.patches=1", "--out", str(b)) == 0
        for name in ("tau.csv", "theta.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # trace matches except the wall-time column
        ta = [l.rsplit(",", 1)[0] for l in (a / "trace.csv").read_text().splitlines()]
        tb = [l.rsplit(",", 1)[0] for l in (b / "trace.csv").read_text().splitlines()]
        assert ta == tb

    def test_grid_method(self, scene_dir, tmp_path):
        out = tmp_path / "grid"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "grid",
                       *SMALL, "--out", str(out)) == 0
        assert (out / "success.csv").exists()
        assert (out / "tau.csv").exists()

    def test_mcmc_method(self, scene_dir, tmp_path):
        out = tmp_path / "mcmc"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "mcmc",
                       *SMALL, "--set", "mcmc.iterations=30", "--set", "mcmc.burn_in=10",
                       "--set", "mcmc.thin=2", "--set", "mcmc.dump_samples=true",
                       "--out", str(out)) == 0
        assert (out / "tau_std.csv").exists()
        samples = io.read_matrix_csv(out / "tau_samples.csv")
        assert samples.shape == (10, 64)

    def test_map_beats_grid_on_noisy_scene(self, tmp_path):
        noisy = tmp_path / "noisy"
        args = SMALL + ["--set", "noise.level=0.5"]
        assert run_cli("simulate", *args, "--out", str(noisy)) == 0
        assert run_cli("retrieve", "--scene", str(noisy), "--method", "grid",
                       *args, "--out", str(tmp_path / "grid")) == 0
        assert run_cli("retrieve", "--scene", str(noisy), "--method", "map",
                       *args, "--out", str(tmp_path / "map")) == 0
        grid = json.loads((tmp_path / "grid" / "metrics.json").read_text())
        mapm = json.loads((tmp_path / "map" / "metrics.json").read_text())
        assert mapm["rmse"] < grid["rmse"]

    def test_missing_scene_exits_2(self, tmp_path):
        assert run_cli("retrieve", "--scene", str(tmp_path / "none"), "--method", "map",
                       "--out", str(tmp_path / "o")) == 2

    def test_solver_failure_exits_3(self, scene_dir, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise al.InitializationError("log-posterior non-finite at the initial state")

        monkeypatch.setattr(cli, "run_map", boom)
        code = run_cli("retrieve", "--scene", str(scene_dir), "--method", "map",
                       *SMALL, "--out", str(tmp_path / "o"))
        assert code == 3


class TestBenchmark:
    def test_single_patch_rows(self, scene_dir, tmp_path):
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--scene", str(scene_dir), "--patches", "1",
                       *SMALL, "--out", str(out)) == 0
        lines = (out / "speedup.csv").read_text().splitlines()
        assert lines[0] == "n_patches,sweep,elapsed_ms"
        assert all(l.startswith("1,") for l in lines[1:])

    def test_multiple_patch_counts(self, scene_dir, tmp_path):
        out = tmp_path / "bench2"
        assert run_cli("benchmark", "--scene", str(scene_dir), "--patches", "1,2,4",
                       *SMALL, "--set", "solver.max_sweeps=6",
                       "--set", "solver.epsilon=1e-12", "--out", str(out)) == 0
        rows = (out / "speedup.csv").read_text().splitlines()[1:]
        counts = {int(r.split(",")[0]) for r in rows}
        assert counts == {1, 2, 4}
        assert all(float(r.split(",")[2]) >= 0 for r in rows)

    def test_empty_patch_list_exits_2(self, scene_dir, tmp_path):
        assert run_cli("benchmark", "--scene", str(scene_dir), "--patches", ",",
                       "--out", str(tmp_path / "o")) == 2
