"""Interchange formats: scene directories, sidecars, traces, manifests."""

import hashlib
import json

import numpy as np
import orjson
import pytest

import aodlattice as al
from aodlattice import io

from conftest import tiny_library
from oracles import oracle_float_spelling, oracle_matrix_csv


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


    def test_earlier_layout_loads_with_the_same_bits(self, library, table36, tmp_path,
                                                     forbid_parse):
        """A scene.json as earlier versions wrote it, with radiance_csv and
        table.channels, loads as the current layout does: the same
        radiance (from its mirror), mask, library and table bits."""
        sim = al.make_sim_scene(table36, 5, 4, seed=3, noise_level=0.2)
        sim.scene.channel_mask[7] = False
        io.save_scene(tmp_path, sim.scene, library, {"knots": 25, "tau_max": 6.0, "seed": 0})
        want, want_lib, want_table = io.load_scene(tmp_path)
        meta = json.loads((tmp_path / "scene.json").read_text())
        assert "radiance_csv" not in meta and "channels" not in meta["table"]
        meta["radiance_csv"] = "radiance.csv"
        meta["table"]["channels"] = 36
        (tmp_path / "scene.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        forbid_parse()
        got, got_lib, got_table = io.load_scene(tmp_path)
        assert_same_bits(got.radiance, want.radiance)
        assert got.channel_mask.tobytes() == want.channel_mask.tobytes()
        assert (got.width, got.height, got.channels) == (5, 4, 36)
        assert got.region_size_km == want.region_size_km
        assert got_lib.to_records() == want_lib.to_records() == library.to_records()
        assert_same_bits(got_table.tau_knots, want_table.tau_knots)
        assert_same_bits(got_table.values, want_table.values)
        assert_same_bits(got_table.values, table36.values)


# one out-of-range scene.json value per case: (dotted key, value, words the error names)
SCENE_RANGE_FAULTS = {
    "negative-seed": ("table.seed", -1, "table.seed must be >= 0"),
    "mask-one-short": ("channel_mask", [True] * 3, "channel_mask has 3 entries"),
    "one-knot": ("table.knots", 1, "table.knots must be >= 2"),
    "forty-channels": ("channels", 40, "at most 36 channels supported, got channels = 40"),
    "knots-is-string": ("table.knots", "13", "table.knots must be a JSON integer"),
    "missing-seed": ("table.seed", None, "missing required key 'table.seed'"),
    "zero-tau-max": ("table.tau_max", 0.0, "table.tau_max must be finite and > 0"),
    "one-wide-strip": ("width", 1, "width and height must both be >= 2"),
    "zero-region-size": ("region_size_km", 0.0, "region_size_km must be finite and > 0"),
    # integer literals too large for a float, and a table too large to build
    "huge-region-size": ("region_size_km", 10**400,
                         "region_size_km must be finite, got an integer too large"),
    "huge-tau-max": ("table.tau_max", 10**400,
                     "table.tau_max must be finite, got an integer too large"),
    "trillion-knots": ("table.knots", 10**12, "table.knots must be <= 10000"),
}


@pytest.mark.parametrize("key, value, words", list(SCENE_RANGE_FAULTS.values()),
                         ids=list(SCENE_RANGE_FAULTS))
def test_out_of_range_scene_value_names_scene_json_and_key(small_table, tmp_path,
                                                             key, value, words):
    """load_scene range-checks every value it reads before reading the
    radiance, and its error names scene.json and the value's dotted key
    (None removes the key)."""
    sim = al.make_sim_scene(small_table, 4, 4, seed=1)
    io.save_scene(tmp_path, sim.scene, tiny_library(), {"knots": 9, "tau_max": 6.0, "seed": 5})
    path = tmp_path / "scene.json"
    meta = json.loads(path.read_text())
    *outer, last = key.split(".")
    obj = meta
    for part in outer:
        obj = obj[part]
    if value is None:
        del obj[last]
    else:
        obj[last] = value
    path.write_text(json.dumps(meta))
    (tmp_path / "radiance.csv").unlink()
    with pytest.raises(al.ConfigurationError) as err:
        io.load_scene(tmp_path)
    assert str(err.value).startswith(f"{path}: {words}")


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

    def test_non_finite_metrics_are_not_written_as_json(self, tmp_path):
        """The one JSON writer refuses NaN and infinity, which are not JSON."""
        rep = al.MetricsReport(rmse=float("nan"), correlation=0.5, correlation_defined=True,
                               mean_bias=0.0, n=2)
        with pytest.raises(ValueError):
            io.save_metrics(tmp_path / "metrics.json", rep)

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


# values whose shortest repr is unusual: negative zero, the smallest
# subnormal, a large exponent and a small one
ODD_VALUES = [-0.0, 5e-324, 1e16, 1e-5]
# 1e16, the upper edge of the decimal window, and 1e-4, where repr's
# decimal notation starts, each with its two float64 neighbours
EDGE_VALUES = [v for edge in (1e-4, -1e-4, 1e16, -1e16)
               for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))]
# 1e-5, the lower edge of the decimal window, and 1e-9, below which the
# exponent has two digits, each with its two float64 neighbours
BAND_EDGES = [v for edge in (1e-9, -1e-9, 1e-5, -1e-5)
              for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))]
# plus the non-finite spellings, two reprs that are not the digits typed,
# zero, subnormals, the smallest normal, integers past 2**53 (where float64
# stops holding every integer), the window's and the bands' edges,
# one-digit negative exponents with 1 and 17 significant digits, and
# values just below 1e-9, whose exponent has two digits
WRITER_VALUES = ODD_VALUES + [
    np.nan, -np.nan, np.inf, -np.inf, 1e22, 0.1, 0.125, 3.0, 0.0, -5e-324,
    np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
    2.0**53, 2.0**53 + 2, -(2.0**53 + 4), 2.0**63, 1e15 + 0.5] + EDGE_VALUES + BAND_EDGES + [
    1e-06, -3e-09, -7.123456789012345e-08, 1.2345678901234567e-07, -1.2345678901234567e-06,
    9.999999999999999e-10, -9.87654321e-10, 5e-10]


def writer_matrix(rows, cols):
    """rows x cols of WRITER_VALUES, cycled."""
    return np.resize(np.array(WRITER_VALUES), (rows, cols))


def random_doubles(n, seed):
    """n float64 values: the first half uniform random bit patterns (NaN
    payloads, subnormals and huge exponents included), the rest random
    signs and mantissas with binary exponents in [-20, 60), about 9.5e-7
    to 1.2e18, across both edges of the decimal window [1e-5, 1e16)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 20, 1023 + 60, size=n - n // 2, dtype=np.uint64)
    bits[n // 2:] = (bits[n // 2:] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    return bits.view(np.float64)


def band_doubles(n, seed):
    """n float64 values with random signs and mantissas and binary
    exponents in [-34, -13), about 5.8e-11 to 1.2e-4: one- and two-digit
    negative exponents, and the lower edge of the decimal window."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 34, 1023 - 13, size=n, dtype=np.uint64)
    return ((bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))).view(np.float64)


@pytest.fixture(params=[None, 7], ids=["default-block", "block-7"])
def block(request, monkeypatch):
    """The CSV writer's block size at its default, or 7 values."""
    if request.param is not None:
        monkeypatch.setattr(io, "_BLOCK_VALUES", request.param)


class TestOrjsonSpellings:
    def test_orjson_spells_every_finite_value_as_the_oracle(self):
        """The writer's spelling is orjson's, null for a non-finite value
        aside; if an orjson release changes a spelling, this names the
        values."""
        rng = np.random.default_rng(31)
        values = np.concatenate([
            random_doubles(100_000, seed=30), band_doubles(50_000, seed=31),
            rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-330, 308, 50_000),
            np.array(WRITER_VALUES)])
        dumped = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
        want = [oracle_float_spelling(v).encode() if np.isfinite(v) else b"null"
                for v in values.tolist()]
        wrong = [(repr(v), text, spelt) for v, text, spelt in zip(values.tolist(), dumped, want)
                 if text != spelt]
        assert not wrong, wrong[:10]


class TestMatrixWriterBytes:
    """write_matrix_csv and save_truth give the per-value oracle writer's
    bytes, with the block size at its default and small enough (7 values)
    that block boundaries fall inside rows and inside the file."""

    @pytest.mark.parametrize("cols", [1, 3, 36])
    @pytest.mark.parametrize("rows", [1, 5, 40])
    def test_matrix(self, tmp_path, block, rows, cols):
        array = writer_matrix(rows, cols)
        io.write_matrix_csv(tmp_path / "m.csv", array)
        assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(array).encode()

    @pytest.mark.parametrize("array", [
        np.array([[True, False, True], [False, False, True]]),
        np.array(WRITER_VALUES),
        np.zeros((0, 3)),
        np.zeros((1, 0)),
        np.zeros((9, 0)),
        np.arange(12, dtype=np.int64).reshape(4, 3),
        np.float32(0.1),
    ], ids=["bool", "1-D", "0x3", "1x0", "9x0", "int", "float32-scalar"])
    def test_edge_inputs(self, tmp_path, block, array):
        io.write_matrix_csv(tmp_path / "m.csv", array)
        assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(array).encode()

    @pytest.mark.parametrize("M", [1, 3, 35])
    def test_truth_rows(self, tmp_path, block, M):
        matrix = writer_matrix(23, M + 1)
        io.save_truth(tmp_path, matrix[:, 0], matrix[:, 1:])
        header, body = (tmp_path / "truth.csv").read_bytes().split(b"\n", 1)
        assert header.decode() == "tau," + ",".join(f"theta_{m + 1}" for m in range(M))
        assert body == oracle_matrix_csv(matrix).encode()

    @pytest.mark.parametrize("values", [writer_matrix(23, 5),
                                        random_doubles(5 * 301, seed=29).reshape(-1, 5)],
                             ids=["writer-values", "random"])
    def test_trace_rows(self, tmp_path, block, values):
        """save_trace writes the sweep as an integer and every other column
        spelled by the oracle, block boundaries inside rows included."""
        trace = al.SweepTrace(n_regions=1, log_posterior=list(values[:, 0]),
                              tau_accepts=list(values[:, 1]), theta_accepts=list(values[:, 2]),
                              kappa=list(values[:, 3]), elapsed_ms=list(values[:, 4]))
        io.save_trace(tmp_path / "trace.csv", trace)
        body = (tmp_path / "trace.csv").read_bytes().split(b"\n", 1)[1]
        assert body == "".join(f"{i + 1},{line}" for i, line in enumerate(
            oracle_matrix_csv(values).splitlines(keepends=True))).encode()

    def test_random_bit_patterns(self, tmp_path, block):
        array = random_doubles(200_016, seed=28).reshape(-1, 36)
        io.write_matrix_csv(tmp_path / "m.csv", array)
        assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(array).encode()

    def test_small_magnitude_band(self, tmp_path, block):
        array = band_doubles(20_007, seed=32).reshape(-1, 3)
        io.write_matrix_csv(tmp_path / "m.csv", array)
        assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(array).encode()

    def test_speedup_rows(self, tmp_path, block):
        """save_speedup's n_patches and sweep columns keep %d's bytes."""
        runs = [(n, al.SweepTrace(n_regions=4, elapsed_ms=list(random_doubles(37 * n, seed=n))))
                for n in (1, 2, 16)]
        io.save_speedup(tmp_path / "speedup.csv", runs)
        want = "n_patches,sweep,elapsed_ms\n" + "".join(
            f"{n},{sweep},{oracle_float_spelling(ms)}\n" for n, trace in runs
            for sweep, ms in enumerate(trace.elapsed_ms, start=1))
        assert (tmp_path / "speedup.csv").read_bytes() == want.encode()

    def test_only_mirrored_csvs_are_hashed(self, tmp_path, monkeypatch):
        calls = []
        sha256 = io.hashlib.sha256
        monkeypatch.setattr(io.hashlib, "sha256", lambda *a: calls.append(a) or sha256(*a))
        trace = al.SweepTrace(n_regions=4, log_posterior=[-1.0, -0.5], tau_accepts=[1, 2],
                              theta_accepts=[3, 4], kappa=[0.5, 0.25], elapsed_ms=[5.0, 4.5])
        io.write_matrix_csv(tmp_path / "m.csv", writer_matrix(40, 36))
        io.save_trace(tmp_path / "trace.csv", trace)
        io.save_speedup(tmp_path / "speedup.csv", [(1, trace), (2, trace)])
        assert calls == []

    def test_three_dims_rejected_before_open(self, tmp_path):
        with pytest.raises(ValueError, match="matrix"):
            io.write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))
        assert not (tmp_path / "m.csv").exists()

    def test_truth_length_mismatch_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            io.save_truth(tmp_path, np.array([0.1, 0.2, 0.3]), np.full((2, 2), 0.5))
        assert list(tmp_path.iterdir()) == []


def parse_csv(path, skiprows=0):
    return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)


def as_columns(values, cols):
    """values, cycled to fill whole rows of `cols` columns."""
    return np.resize(values, (-(-len(values) // cols), cols))


def assert_read_back(got, want):
    """The same bits, except that any NaN may come back as any NaN."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


READ_BACK_VALUES = {
    "random": lambda: random_doubles(200_016, seed=28),
    "band": lambda: band_doubles(20_007, seed=32),
    "writer-values": lambda: np.array(WRITER_VALUES),
}


class TestReadBack:
    """Every value a writer spells parses back to its float64."""

    @pytest.fixture(params=list(READ_BACK_VALUES))
    def values(self, request):
        return READ_BACK_VALUES[request.param]()

    def test_matrix(self, tmp_path, block, values):
        matrix = as_columns(values, 36)
        io.write_matrix_csv(tmp_path / "m.csv", matrix)
        assert_read_back(io.read_matrix_csv(tmp_path / "m.csv"), matrix)

    def test_truth(self, tmp_path, block, values):
        matrix = as_columns(values, 9)
        io.save_truth(tmp_path, matrix[:, 0], matrix[:, 1:])
        assert_read_back(parse_csv(tmp_path / "truth.csv", skiprows=1), matrix)

    def test_trace(self, tmp_path, block, values):
        columns = as_columns(values, 5)
        trace = al.SweepTrace(n_regions=1, log_posterior=columns[:, 0].tolist(),
                              tau_accepts=columns[:, 1].tolist(),
                              theta_accepts=columns[:, 2].tolist(),
                              kappa=columns[:, 3].tolist(), elapsed_ms=columns[:, 4].tolist())
        io.save_trace(tmp_path / "trace.csv", trace)
        back = parse_csv(tmp_path / "trace.csv", skiprows=1)
        assert back[:, 0].tolist() == list(range(1, len(columns) + 1))
        assert_read_back(back[:, 1:], columns)


def odd_scene(channels):
    """A 2 x 2 scene whose radiance holds every ODD_VALUES entry."""
    radiance = np.resize(np.array(ODD_VALUES + [0.125, 3.0]), (4, channels))
    return al.Scene(width=2, height=2, channels=channels, radiance=radiance,
                    channel_mask=np.ones(channels, dtype=bool))


def save_odd(directory, channels=3):
    """An odd scene and its truth sidecar; returns the truth matrix."""
    io.save_scene(directory, odd_scene(channels), al.default_library(),
                  {"knots": 5, "tau_max": 6.0, "seed": 0})
    truth = np.resize(np.array(ODD_VALUES[::-1] + [0.25]), (4, 4))
    io.save_truth(directory, truth[:, 0], truth[:, 1:])
    return truth


@pytest.fixture
def forbid_parse(monkeypatch):
    """Call it to make any later CSV parse fail, so that a load must come
    from the mirrors."""
    def refuse(*args, **kwargs):
        raise AssertionError("a CSV was parsed")

    return lambda: monkeypatch.setattr(np, "loadtxt", refuse)


def assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMirror:
    def test_layout(self, tmp_path):
        truth = save_odd(tmp_path)
        for name, matrix in (("radiance.csv", odd_scene(3).radiance), ("truth.csv", truth)):
            data = (tmp_path / f"{name}.bin").read_bytes()
            header, body = data.split(b"\n", 1)
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            rows, cols = matrix.shape
            assert header.decode("ascii").split() == [
                "aodlattice-mirror/1", digest, str(rows), str(cols)]
            assert body == matrix.astype("<f8").tobytes()

    def test_saving_does_not_read_the_csv_back(self, tmp_path, monkeypatch):
        """The mirror's digest comes from the bytes the writer emitted."""
        def refuse(path):
            raise AssertionError(f"{path} was read back to hash it")

        monkeypatch.setattr(io, "_csv_digest", refuse)
        truth = save_odd(tmp_path)
        monkeypatch.undo()
        for name, matrix in (("radiance.csv", odd_scene(3).radiance), ("truth.csv", truth)):
            header = (tmp_path / f"{name}.bin").read_bytes().split(b"\n", 1)[0]
            assert header.split()[1].decode() == hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_mirror_load_equals_csv_parse(self, tmp_path, forbid_parse, channels):
        save_odd(tmp_path, channels)
        radiance = parse_csv(tmp_path / "radiance.csv")
        truth = parse_csv(tmp_path / "truth.csv", skiprows=1)
        forbid_parse()
        scene, _, _ = io.load_scene(tmp_path)
        tau, theta = io.load_truth(tmp_path)
        assert_same_bits(scene.radiance, radiance)
        assert_same_bits(tau, truth[:, 0])
        assert_same_bits(theta, truth[:, 1:])
        assert scene.radiance.flags.writeable and tau.flags.writeable
        assert np.signbit(scene.radiance).any()  # the -0.0 entries kept their sign

    def test_nan_reads_as_the_csv_parse_does(self, tmp_path, forbid_parse):
        io.save_truth(tmp_path, np.array([-np.nan, 0.5]), np.array([[0.5], [np.nan]]))
        want = parse_csv(tmp_path / "truth.csv", skiprows=1)
        forbid_parse()
        tau, theta = io.load_truth(tmp_path)
        assert_same_bits(np.column_stack([tau, theta]), want)

    @pytest.mark.parametrize("name", ["radiance.csv", "truth.csv"])
    def test_edited_csv_is_read_from_the_csv(self, tmp_path, name):
        save_odd(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text().replace("1e16", "2e16"))
        scene, _, _ = io.load_scene(tmp_path)
        tau, theta = io.load_truth(tmp_path)
        if name == "radiance.csv":
            assert_same_bits(scene.radiance, parse_csv(path))
            assert 2e16 in scene.radiance
        else:
            assert_same_bits(np.column_stack([tau, theta]), parse_csv(path, skiprows=1))
            assert 2e16 in theta

    @pytest.mark.parametrize("damage", ["truncated", "empty", "foreign", "other-digest",
                                        "header-only", "longer"])
    def test_damaged_mirror_falls_back_to_the_csv(self, tmp_path, damage):
        save_odd(tmp_path)
        for name in ("radiance.csv", "truth.csv"):
            mirror = tmp_path / f"{name}.bin"
            data = mirror.read_bytes()
            header, body = data.split(b"\n", 1)
            mirror.write_bytes({
                "truncated": data[:-8],
                "empty": b"",
                "foreign": b"\x93NUMPY" + data,
                "other-digest": header.replace(header.split()[1], b"0" * 64) + b"\n" + body,
                "header-only": header + b"\n",
                "longer": data + bytes(8),
            }[damage])
        scene, _, _ = io.load_scene(tmp_path)
        tau, theta = io.load_truth(tmp_path)
        assert_same_bits(scene.radiance, parse_csv(tmp_path / "radiance.csv"))
        assert_same_bits(np.column_stack([tau, theta]),
                         parse_csv(tmp_path / "truth.csv", skiprows=1))

    def test_damaged_mirror_is_not_read(self, tmp_path, forbid_parse):
        save_odd(tmp_path)
        (tmp_path / "truth.csv.bin").write_bytes(b"")
        forbid_parse()
        io.load_scene(tmp_path)  # the radiance mirror is intact
        with pytest.raises(AssertionError, match="a CSV was parsed"):
            io.load_truth(tmp_path)

    def test_repr_spelled_scene_loads_from_its_mirrors(self, tmp_path, forbid_parse):
        """radiance.csv and truth.csv spelled the way earlier versions of
        the writer spelled them, repr(float(v)) per value, with mirrors
        whose digests are of those bytes, load from the mirrors with the
        bits the CSVs parse to."""
        finite = np.array(WRITER_VALUES)[np.isfinite(WRITER_VALUES)]
        radiance = np.resize(np.abs(finite), (4, 36))
        truth = writer_matrix(4, 9)
        io.save_scene(tmp_path, al.Scene(width=2, height=2, channels=36, radiance=radiance,
                                         channel_mask=np.ones(36, dtype=bool)),
                      al.default_library(), {"knots": 5, "tau_max": 6.0, "seed": 0})
        io.save_truth(tmp_path, truth[:, 0], truth[:, 1:])
        for name, matrix in (("radiance.csv", radiance), ("truth.csv", truth)):
            written = (tmp_path / name).read_bytes()
            header = written[:written.index(b"\n") + 1] if name == "truth.csv" else b""
            text = header + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                    for row in matrix).encode()
            assert text != written
            (tmp_path / name).write_bytes(text)
            (tmp_path / f"{name}.bin").write_bytes(b"aodlattice-mirror/1 %s %d %d\n" % (
                hashlib.sha256(text).hexdigest().encode(), *matrix.shape)
                + np.where(np.isnan(matrix), np.nan, matrix).astype("<f8").tobytes())
        want_radiance = parse_csv(tmp_path / "radiance.csv")
        want_truth = parse_csv(tmp_path / "truth.csv", skiprows=1)
        assert_same_bits(want_radiance, radiance)
        assert_read_back(want_truth, truth)
        forbid_parse()
        scene, _, _ = io.load_scene(tmp_path)
        tau, theta = io.load_truth(tmp_path)
        assert_same_bits(scene.radiance, want_radiance)
        assert_same_bits(np.column_stack([tau, theta]), want_truth)

    def test_scene_without_mirrors_loads(self, tmp_path):
        truth = save_odd(tmp_path)
        for mirror in tmp_path.glob("*.bin"):
            mirror.unlink()
        scene, _, _ = io.load_scene(tmp_path)
        tau, theta = io.load_truth(tmp_path)
        assert_same_bits(scene.radiance, odd_scene(3).radiance)
        assert_same_bits(np.column_stack([tau, theta]), truth)
