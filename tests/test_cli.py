"""CLI pipelines: subcommands, exit codes, determinism."""

import dataclasses
import inspect
import json
import shutil
import warnings

import numpy as np
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


# every command range-checks every solver, chain, patch, grid, scene, table,
# truth and noise key, read or not, before any output
BAD_SETTINGS = [
    "solver.delta=nan", "solver.epsilon=nan", "solver.epsilon_rel=-1", "solver.tau_max=nan",
    "solver.init=bogus", "solver.alpha=nan", "solver.max_sweeps=0",
    "grid.success_threshold=nan", "grid.success_threshold=-1", "grid.tau_levels=1",
    "parallel.patches=0", "parallel.executor=bogus",
    "mcmc.burn_in=-1", "mcmc.thin=0", "mcmc.dump_samples=maybe",
    "solver.epsilon=abc", "grid.success_threshold=abc",
    "noise.level=-1", "truth.tau_lo=5", "truth.tau_hi=-1", "truth.tau_hi=9", "table.knots=1",
    "table.tau_max=-2", "scene.width=1", "scene.channels=0", "scene.channels=40",
    "truth.blob_size=0", "scene.region_size_km=-1", "truth.smoothness=nan",
    "truth.smoothness=inf", "run.seed=-1", "table.knots=1000000000000",
]


def assert_bad_setting_exit(code, capsys, setting, out):
    """Exit 2, an error line naming the setting's [section] and key, and
    no output."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    section, key = setting[:setting.index("=")].split(".")
    assert f"[{section}]" in err and key in err, err
    assert not out.exists()


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
        for name in ("radiance.csv.bin", "truth.csv.bin"):
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
        assert run_cli("simulate", "--set", "solver.cadence=per_sweep",
                       "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("content, named", [
        ("[DEFAULT]\nseed = 1\n", "[DEFAULT]"),
        ("[solver]\ncadence = 1\n", "[solver] cadence"),
        ("[components]\nlibrary = a%b\n", "'%'"),
    ], ids=["default-section", "unknown-key", "bare-percent"])
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, content, named):
        """Exit 2 naming the section, the key or the bad character."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(content)
        out = tmp_path / "x"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "noise.level=-0.5", "scene.region_size_km=nan", "scene.region_size_km=-3",
        "truth.blob_size=0", "truth.blob_size=-2",
    ])
    def test_negative_noise_level_exits_2(self, tmp_path, capsys, setting):
        out = tmp_path / "x"
        assert run_cli("simulate", *SMALL, "--set", setting, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("setting", BAD_SETTINGS)
    def test_bad_setting_exits_2(self, tmp_path, capsys, setting):
        out = tmp_path / "x"
        code = run_cli("simulate", *SMALL, "--set", setting, "--out", str(out))
        assert_bad_setting_exit(code, capsys, setting, out)

    def test_huge_smoothness_gives_the_constant_field(self, tmp_path):
        """Any half-width past the grid gives the same constant field."""
        for value in ("1e300", "100"):
            assert run_cli("simulate", *SMALL, "--set", f"truth.smoothness={value}",
                           "--out", str(tmp_path / value)) == 0
        truth = (tmp_path / "1e300" / "truth.csv").read_bytes()
        assert truth == (tmp_path / "100" / "truth.csv").read_bytes()
        assert len({line.split(b",")[0] for line in truth.splitlines()[1:]}) == 1

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path / "x")) == 2

    def test_truth_at_the_table_range_top_is_rendered(self, tmp_path):
        """truth.tau_hi = table.tau_max is allowed; the rescaled truth field
        stays at or below it (this seed's rescale rounds one ulp above)."""
        out = tmp_path / "x"
        assert run_cli("simulate", *SMALL, "--set", "run.seed=5", "--set", "truth.tau_hi=3.3",
                       "--set", "table.tau_max=3.3", "--set", "truth.smoothness=0",
                       "--out", str(out)) == 0
        assert io.load_truth(out)[0].max() <= 3.3

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
        tau = np.loadtxt(out / "tau.csv", delimiter=",", ndmin=2)
        assert tau.shape == (64, 1)
        assert (out / "theta.csv").exists()
        assert (out / "trace.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] < 0.2
        assert (out / "error.csv").exists()

    # 2-process is the pipeline128 benchmark's setting
    @pytest.mark.parametrize("patches, executor", [(1, "serial"), (2, "process")],
                             ids=["1-serial", "2-process"])
    def test_map_parallel_single_patch_matches_map(self, scene_dir, tmp_path, patches,
                                                   executor):
        a = tmp_path / "map"
        b = tmp_path / "par"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "map",
                       *SMALL, "--out", str(a)) == 0
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "map-parallel",
                       *SMALL, "--set", f"parallel.patches={patches}",
                       "--set", f"parallel.executor={executor}", "--out", str(b)) == 0
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
        samples = np.loadtxt(out / "tau_samples.csv", delimiter=",", ndmin=2)
        assert samples.shape == (10, 64)

    def test_mcmc_dump_samples_takes_boolean_words(self, scene_dir, tmp_path):
        out = tmp_path / "mcmc"
        assert run_cli("retrieve", "--scene", str(scene_dir), "--method", "mcmc",
                       *SMALL, "--set", "mcmc.iterations=6", "--set", "mcmc.burn_in=2",
                       "--set", "mcmc.thin=1", "--set", "mcmc.dump_samples=YES",
                       "--out", str(out)) == 0
        assert np.loadtxt(out / "tau_samples.csv", delimiter=",", ndmin=2).shape == (4, 64)

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

    @pytest.mark.parametrize("method, extra", [
        ("grid", ()), ("map", ("--set", "solver.max_sweeps=3")),
    ])
    def test_outputs_do_not_depend_on_the_mirrors(self, scene_dir, tmp_path, method, extra):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        for name in ("radiance.csv.bin", "truth.csv.bin"):
            (bare / name).unlink()
        outs = []
        for scene in (scene_dir, bare):
            outs.append(tmp_path / f"{scene.name}-{method}")
            assert run_cli("retrieve", "--scene", str(scene), "--method", method, *SMALL,
                           *extra, "--out", str(outs[-1])) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in set(names) - {"manifest.json", "trace.csv"}:  # wall times
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_short_truth_sidecar_exits_2_before_the_solve(self, scene_dir, tmp_path, capsys,
                                                          monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_map ran although the truth sidecar is short")

        monkeypatch.setattr(cli, "run_map", no_solve)
        short = tmp_path / "short"
        shutil.copytree(scene_dir, short)
        (short / "truth.csv.bin").unlink()
        rows = (short / "truth.csv").read_text().splitlines(keepends=True)
        (short / "truth.csv").write_text("".join(rows[:-1]))
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(short), "--method", "map", *SMALL,
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and "63 rows" in err and "64 regions" in err
        assert not out.exists()

    def test_long_truth_sidecar_with_stale_mirror_exits_2_before_the_grid(
            self, scene_dir, tmp_path, capsys, monkeypatch):
        """An extra truth row is caught from the CSV: the mirror, left in
        place, no longer matches its bytes and is not read."""
        def no_search(*args, **kwargs):
            raise AssertionError("grid search ran although the truth sidecar is long")

        monkeypatch.setattr(cli, "grid_search_retrieve", no_search)
        long = tmp_path / "long"
        shutil.copytree(scene_dir, long)
        rows = (long / "truth.csv").read_text().splitlines(keepends=True)
        (long / "truth.csv").write_text("".join(rows + rows[-1:]))
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(long), "--method", "grid", *SMALL,
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and "65 rows" in err and "64 regions" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_truth_sidecar_exits_2_before_the_grid(self, scene_dir, tmp_path, capsys,
                                                              monkeypatch, value):
        def no_search(*args, **kwargs):
            raise AssertionError("grid search ran although a truth AOD is not finite")

        monkeypatch.setattr(cli, "grid_search_retrieve", no_search)
        bad = tmp_path / "bad"
        shutil.copytree(scene_dir, bad)
        (bad / "truth.csv.bin").unlink()
        rows = (bad / "truth.csv").read_text().splitlines(keepends=True)
        rows[5] = value + rows[5][rows[5].index(","):]
        (bad / "truth.csv").write_text("".join(rows))
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(bad), "--method", "grid", *SMALL,
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["radiance.csv", "truth.csv"])
    def test_empty_csv_exits_2_with_one_error_line(self, scene_dir, tmp_path, capsys, name):
        """An emptied CSV without its mirror is an input error whose only
        stderr line names the file; numpy's no-data warning, made an error
        here, does not escape."""
        empty = tmp_path / "empty"
        shutil.copytree(scene_dir, empty)
        (empty / f"{name}.bin").unlink()
        (empty / name).write_text("")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("retrieve", "--scene", str(empty), "--method", "grid", *SMALL,
                           "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_huge_truth_aod_gives_finite_metrics(self, scene_dir, tmp_path):
        """A finite but huge truth AOD passes the sidecar check and gives
        finite metrics: the RMSE of one 1e200 error among 64 is 1e200 / 8
        to the last bits, not an overflow."""
        huge = tmp_path / "huge"
        shutil.copytree(scene_dir, huge)
        (huge / "truth.csv.bin").unlink()
        rows = (huge / "truth.csv").read_text().splitlines(keepends=True)
        rows[5] = "1e200" + rows[5][rows[5].index(","):]
        (huge / "truth.csv").write_text("".join(rows))
        out = tmp_path / "o"
        assert run_cli("retrieve", "--scene", str(huge), "--method", "grid", *SMALL,
                       "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] == pytest.approx(1e200 / 8, rel=1e-15)
        assert metrics["mean_bias"] == pytest.approx(-1e200 / 64, rel=1e-15)
        assert metrics["correlation_defined"] and abs(metrics["correlation"]) <= 1.0

    def test_negative_seed_exits_2_before_any_work(self, scene_dir, tmp_path, capsys,
                                                   monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the seed is negative")

        monkeypatch.setattr(io, "load_scene", no_work)
        monkeypatch.setattr(cli, "init_state", no_work)
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(scene_dir), "--method", "map", *SMALL,
                       "--set", "run.seed=-1", "--out", str(out))
        assert code == 2
        assert "[run] seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scene_exits_2(self, tmp_path):
        assert run_cli("retrieve", "--scene", str(tmp_path / "none"), "--method", "map",
                       "--out", str(tmp_path / "o")) == 2

    def test_scene_missing_key_exits_2(self, scene_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        meta = json.loads((scene_dir / "scene.json").read_text())
        del meta["table"]
        (broken / "scene.json").write_text(json.dumps(meta))
        (broken / "radiance.csv").write_bytes((scene_dir / "radiance.csv").read_bytes())
        code = run_cli("retrieve", "--scene", str(broken), "--method", "grid",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "'table'" in capsys.readouterr().err

    RETRIEVE_CASES = [(m, s) for m in ("map", "grid", "map-parallel", "mcmc")
                      for s in BAD_SETTINGS]

    # map cases keep the bare setting as their id
    @pytest.mark.parametrize("method, setting", RETRIEVE_CASES,
                             ids=[s if m == "map" else f"{m}-{s}" for m, s in RETRIEVE_CASES])
    def test_nonfinite_or_negative_solver_setting_exits_2(self, scene_dir, tmp_path, capsys,
                                                           method, setting):
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(scene_dir), "--method", method,
                       *SMALL, "--set", setting, "--out", str(out))
        assert_bad_setting_exit(code, capsys, setting, out)

    @pytest.mark.parametrize("setting", ["parallel.patches=0", "parallel.executor=bogus"])
    def test_parallel_settings_checked_before_init(self, scene_dir, tmp_path, capsys,
                                                   monkeypatch, setting):
        def no_init(*args, **kwargs):
            raise AssertionError("init_state ran before the parallel settings were checked")

        monkeypatch.setattr(cli, "init_state", no_init)
        out = tmp_path / "o"
        code = run_cli("retrieve", "--scene", str(scene_dir), "--method", "map-parallel",
                       *SMALL, "--set", "solver.init=coarse_grid", "--set", setting,
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_solver_failure_exits_3(self, scene_dir, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise al.InitializationError("log-posterior non-finite at the initial state")

        monkeypatch.setattr(cli, "run_map", boom)
        code = run_cli("retrieve", "--scene", str(scene_dir), "--method", "map",
                       *SMALL, "--out", str(tmp_path / "o"))
        assert code == 3


_GOOD_RECORD = al.default_library().to_records()[0]
ABSENT = object()  # a scene.json key left out
MALFORMED_METADATA = {
    "library-records-lack-keys": ("library", [{"id": 1}]),
    "library-is-object": ("library", {"components": [_GOOD_RECORD]}),
    "library-non-numeric-field": ("library", [_GOOD_RECORD, {**_GOOD_RECORD, "id": 2,
                                                             "r_min": "0.001"}]),
    "scene-library-lacks-keys": ("component_library", [{"id": 1}]),
    "scene-library-is-number": ("component_library", 5),
    "scene-table-is-string": ("table", "knots=25"),
    "scene-width-is-null": ("width", None),
    "scene-is-list": (None, []),
    # integers too large to represent: JSON 1e400 and Infinity both read as inf
    "scene-width-overflows": ("width", float("inf")),
    "scene-knots-overflow": ("table", {"knots": float("inf"), "tau_max": 6.0, "seed": 0,
                                       "channels": 12}),
    # integer literals too large for a float, and a table too large to build
    "scene-region-size-integer-overflows": ("region_size_km", 10**400),
    "scene-tau-max-integer-overflows": ("table", {"knots": 13, "tau_max": 10**400, "seed": 0}),
    "scene-trillion-knots": ("table", {"knots": 10**12, "tau_max": 6.0, "seed": 0}),
    # every key is read in the one JSON type save_scene writes it in
    "scene-width-is-fractional": ("width", 4.7),
    "scene-width-is-string": ("width", "16"),
    "scene-mask-of-strings": ("channel_mask", ["no"] * 12),
    "scene-mask-of-integers": ("channel_mask", [1, 0] * 6),
    "scene-library-is-default": ("component_library", "default"),
    "scene-region-size-is-bool": ("region_size_km", True),
    "scene-lacks-region-size": ("region_size_km", ABSENT),
}


@pytest.mark.parametrize("field, value", list(MALFORMED_METADATA.values()),
                         ids=list(MALFORMED_METADATA))
def test_malformed_metadata_exits_2(scene_dir, tmp_path, capsys, field, value):
    """A component-library file (simulate) or a scene.json (retrieve) of the
    wrong shape is an input error, not a traceback."""
    out = tmp_path / "o"
    if field == "library":
        path = tmp_path / "library.json"
        path.write_text(json.dumps(value))
        argv = ["simulate", *SMALL, "--set", f"components.library={path}", "--out", str(out)]
    else:
        broken = tmp_path / "broken"
        broken.mkdir()
        meta = json.loads((scene_dir / "scene.json").read_text())
        if field is not None:
            meta.pop(field)
            value = meta if value is ABSENT else {**meta, field: value}
        (broken / "scene.json").write_text(json.dumps(value))
        (broken / "radiance.csv").write_bytes((scene_dir / "radiance.csv").read_bytes())
        argv = ["retrieve", "--scene", str(broken), "--method", "grid", "--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field == "library" or "scene.json" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["map", "grid"])
def test_stale_table_channel_count_is_inert(scene_dir, tmp_path, method):
    """The table.channels and radiance_csv keys that earlier versions
    wrote are not read: the table gets the scene's channel count and the
    radiance comes from radiance.csv, so a stale 8 on a 12-channel scene
    (and a radiance_csv of 5) retrieves what the unedited directory does."""
    stale = tmp_path / "stale"
    shutil.copytree(scene_dir, stale)
    meta = json.loads((stale / "scene.json").read_text())
    assert meta["channels"] == 12
    meta["table"]["channels"] = 8
    meta["radiance_csv"] = 5
    (stale / "scene.json").write_text(json.dumps(meta))
    outs = [tmp_path / "unedited", tmp_path / "edited"]
    for scene, out in zip([scene_dir, stale], outs):
        assert run_cli("retrieve", "--scene", str(scene), "--method", method, *SMALL,
                       "--out", str(out)) == 0
    for name in ("tau.csv", "theta.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("case", ["library-is-directory", "retrieve-out-is-file",
                                  "simulate-out-under-file"])
def test_unusable_path_exits_2(scene_dir, tmp_path, capsys, case):
    """A path that cannot be read or written is an input error, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = tmp_path / "o"
    if case == "library-is-directory":
        argv = ["simulate", *SMALL, "--set", f"components.library={tmp_path}", "--out", str(out)]
    elif case == "retrieve-out-is-file":
        argv = ["retrieve", "--scene", str(scene_dir), "--method", "grid", *SMALL,
                "--out", str(taken)]
    else:
        argv = ["simulate", *SMALL, "--out", str(taken / "sub")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert taken.read_text() == "not a directory\n"


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


# (section, key of cli.SCHEMA, owner, the owner's default the key stands for)
LIBRARY_DEFAULTS = [
    ("solver", "delta", "SolverConfig", _field_default(al.SolverConfig, "delta")),
    ("solver", "epsilon_rel", "SolverConfig", _field_default(al.SolverConfig, "epsilon_rel")),
    ("solver", "max_sweeps", "SolverConfig", _field_default(al.SolverConfig, "max_sweeps")),
    ("mcmc", "iterations", "McmcConfig", _field_default(al.McmcConfig, "iterations")),
    ("mcmc", "burn_in", "McmcConfig", _field_default(al.McmcConfig, "burn_in")),
    ("mcmc", "thin", "McmcConfig", _field_default(al.McmcConfig, "thin")),
    ("solver", "delta", "McmcConfig", _field_default(al.McmcConfig, "delta")),
    ("grid", "tau_levels", "GridSearchConfig.defaults",
     _default(al.GridSearchConfig.defaults, "n_tau_levels")),
    ("scene", "channels", "build_synthetic_table", _default(al.build_synthetic_table, "channels")),
    ("table", "knots", "build_synthetic_table", _default(al.build_synthetic_table, "knots")),
    ("table", "tau_max", "build_synthetic_table", _default(al.build_synthetic_table, "tau_max")),
    ("truth", "smoothness", "gen_truth", _default(al.gen_truth, "smoothness")),
    ("truth", "sparsity", "gen_truth", _default(al.gen_truth, "sparsity")),
    ("truth", "tau_lo", "gen_truth", _default(al.gen_truth, "tau_range")[0]),
    ("truth", "tau_hi", "gen_truth", _default(al.gen_truth, "tau_range")[1]),
    ("truth", "blob_size", "gen_truth", _default(al.gen_truth, "blob_size")),
    ("scene", "region_size_km", "Scene", _field_default(al.Scene, "region_size_km")),
]


@pytest.mark.parametrize("section, key, owner, library", LIBRARY_DEFAULTS,
                         ids=[f"{s}.{k}-{o}" for s, k, o, _ in LIBRARY_DEFAULTS])
def test_schema_default_is_the_library_default(section, key, owner, library):
    """A CLI default and the library default it stands for agree, so a
    run from the CLI's defaults is a run from the library's."""
    (_, parse), text, _ = cli.SCHEMA[section][key]
    assert parse(text) == library


def test_help_lists_every_key_with_default(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for section, keys in cli.DEFAULTS.items():
        for key, default in keys.items():
            assert text.count(f"  {section}.{key} = ") == 1
            assert f"  {section}.{key} = {default}  " in text


# keys whose values are paths, checked by the code that reads them
TEXT_KEYS = {"components.library"}
TYPED_KEYS = [f"{section}.{key}" for section, keys in cli.DEFAULTS.items() for key in keys
              if f"{section}.{key}" not in TEXT_KEYS]


@pytest.mark.parametrize("command", ["simulate", "grid"])
@pytest.mark.parametrize("key", TYPED_KEYS)
def test_malformed_typed_value_exits_2(scene_dir, tmp_path, capsys, command, key):
    """Every integer, number, boolean and choice key is parsed before any
    work, so a malformed value exits 2 naming it even where the command does
    not read it."""
    out = tmp_path / "o"
    argv = ["--set", f"{key}=abc", "--out", str(out)]
    if command == "simulate":
        argv = ["simulate", *argv]
    else:
        argv = ["retrieve", "--scene", str(scene_dir), "--method", "grid", *argv]
    assert run_cli(*argv) == 2
    section, name = key.split(".")
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {name}: expected ")
    assert "'abc'" in err
    assert not out.exists()


class TestBenchmark:
    @pytest.mark.parametrize("setting", BAD_SETTINGS)
    def test_bad_setting_exits_2(self, scene_dir, tmp_path, capsys, setting):
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--scene", str(scene_dir), "--patches", "1",
                       *SMALL, "--set", setting, "--out", str(out))
        assert_bad_setting_exit(code, capsys, setting, out)

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

    def test_empty_patch_list_exits_2(self, scene_dir, tmp_path, capsys):
        # the scene has 64 regions
        for patches in (",", "0", "1,1", "2,1,2", "1,x", "2,0", "2,65"):
            out = tmp_path / "o"
            assert run_cli("benchmark", "--scene", str(scene_dir), "--patches", patches,
                           "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert "patches=" not in captured.out
            assert not out.exists()
