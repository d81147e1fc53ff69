"""File formats: scene interchange, truth sidecars, traces, metrics, manifests.

A scene directory holds scene.json (the keys save_scene writes) plus
radiance.csv, a headerless P x C matrix, row-major in region index with
channel columns ascending.  The truth sidecar truth.csv carries tau and
the theta row per region.
Every CSV goes through one writer, _write_csv, a block of at most
_BLOCK_VALUES values at a time, so memory stays bounded by the block, not
the file.  orjson dumps each block's values as one flat JSON list and one
vectorised pass turns every cols-th comma and the closing "]" into
newlines.  So a float is spelled the way orjson spells it:

    the shortest round-trip digits, the same as repr's;
    decimal notation for 0 and for 1e-5 <= |x| < 1e16 ("0.00001",
    "9999999999999998.0");
    otherwise an exponent with no "+" and no leading zero ("1e-7",
    "1e16", "5e-324");

and nan, inf and -inf, which orjson writes "null", as repr spells them.
Identical runs produce byte-identical files.  CSVs from earlier versions
of this writer use repr's spelling ("1e-07", "1e-05", "1e+16"); they
parse to the same float64 and their mirrors still match their bytes.
The integer columns of traces and speedup tables are dumped as int64,
which gives %d's bytes.
Every JSON file goes through _write_json, which refuses NaN and infinity.

save_scene and save_truth also write a binary mirror next to each CSV
(radiance.csv.bin, truth.csv.bin): one ASCII header line

    aodlattice-mirror/1 <sha256 of the CSV's bytes> <rows> <cols>

then rows x cols little-endian float64 values, row-major.  The digest is
taken from the bytes _write_csv emits, as it writes them, so saving never
reads a CSV back; no other CSV is hashed.  The CSV stays authoritative.
load_scene and load_truth hash the CSV and read the mirror only when its
tag, digest and size all match; otherwise (no mirror, an edited CSV, a
truncated or foreign mirror) they parse the CSV.  So deleting a mirror
is always safe, an edit to a CSV is always picked up, and both paths
return the same bits, because every spelling round-trips.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .forward import ComponentLibrary, build_synthetic_table, check_table_args
from .model import ConfigurationError, Scene, check_channel_mask, check_scene_shape

SCENE_JSON = "scene.json"
RADIANCE_CSV = "radiance.csv"
TRUTH_CSV = "truth.csv"
MIRROR_TAG = b"aodlattice-mirror/1"
_CHUNK = 1 << 20  # bytes per read while hashing a CSV
_BLOCK_VALUES = 4096  # values formatted per orjson call while writing a CSV
# the JSON types of scene.json's values, as json.load gives them (a bool is no integer)
_JSON_TYPES = {"integer": (int,), "number": (int, float), "array": (list,), "object": (dict,)}


def _as_matrix(array) -> np.ndarray:
    """`array` as a 2-D float matrix (a 1-D input is one row); ValueError
    for any other number of dimensions."""
    matrix = np.atleast_2d(np.asarray(array, dtype=float))
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {matrix.shape}")
    return matrix


def _dump_lines(block: np.ndarray) -> bytearray:
    """The rows of a C-contiguous 2-D array as CSV lines, from one orjson
    dump of its values as a flat list: "[a,b,c,d]" with two columns
    becomes "a,b\nc,d\n", every cols-th comma and the "]" a newline."""
    rows, cols = block.shape
    if not block.size:
        return bytearray(b"\n" * rows)
    text = bytearray(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    view = np.frombuffer(text, dtype=np.uint8)
    view[np.flatnonzero(view == ord(","))[cols - 1::cols]] = ord("\n")
    view[-1] = ord("\n")
    del view  # release the buffer so the "[" can go
    del text[0]
    return text


def _float_lines(block: np.ndarray) -> bytes:
    """CSV lines of a C-contiguous 2-D float64 block: orjson's spelling of
    every finite value, and nan, inf or -inf put back at each "null"
    orjson writes for a non-finite one, in order."""
    lines = _dump_lines(block)
    odd = ~np.isfinite(block)
    if not odd.any():
        return lines
    pieces = lines.split(b"null")
    joined = [None] * (2 * len(pieces) - 1)
    joined[0::2] = pieces
    joined[1::2] = [repr(v).encode() for v in block[odd].tolist()]
    return b"".join(joined)


def _write_csv(path, matrix: np.ndarray, header: str = "", ints: int = 0,
               digest=None) -> None:
    """The one CSV writer: `header` (a line without its newline, or
    nothing), then the rows of a 2-D float matrix, the first `ints`
    columns as integers.  `digest`, a hashlib object, if given, takes
    every byte written."""
    rows, cols = matrix.shape
    step = max(1, _BLOCK_VALUES // max(cols, 1))
    with open(path, "wb") as fh:
        def write(chunk):
            fh.write(chunk)
            if digest is not None:
                digest.update(chunk)

        if header:
            write(header.encode("ascii") + b"\n")
        for start in range(0, rows, step):
            block = matrix[start:start + step]
            chunk = _float_lines(np.ascontiguousarray(block[:, ints:]))
            if ints:  # int64 dumps with %d's bytes; each line is "ints,floats\n"
                joined = [b","] * (3 * len(block))
                joined[0::3] = _dump_lines(block[:, :ints].astype(np.int64)).split(b"\n")[:-1]
                joined[2::3] = chunk.splitlines(keepends=True)
                chunk = b"".join(joined)
            write(chunk)


def _write_mirrored_csv(path, matrix: np.ndarray, header: str = "") -> None:
    """_write_csv, then the binary mirror from the digest of the bytes
    written, so the CSV is never read back."""
    digest = hashlib.sha256()
    _write_csv(path, matrix, header, digest=digest)
    _write_mirror(path, matrix, digest.hexdigest().encode("ascii"))


def write_matrix_csv(path, array: np.ndarray) -> None:
    """Headerless CSV of a matrix (a 1-D array is one row); anything with
    more dimensions raises ValueError before the file is opened."""
    _write_csv(path, _as_matrix(array))


def _mirror_path(csv_path) -> Path:
    return Path(f"{csv_path}.bin")


def _csv_digest(csv_path) -> bytes:
    """Hex sha256 of the file's bytes, read in chunks."""
    h = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            h.update(chunk)
    return h.hexdigest().encode("ascii")


def _write_mirror(csv_path, matrix, digest: bytes) -> None:
    """Write the binary mirror of the CSV just written at csv_path from
    `matrix`, the values it holds, and `digest`, the hex sha256 of the
    bytes the writer emitted."""
    values = np.atleast_2d(np.ascontiguousarray(matrix, dtype="<f8"))
    nan = np.isnan(values)
    if nan.any():  # the CSV spells every NaN "nan", which parses to one bit pattern
        values = np.where(nan, np.nan, values)
    rows, cols = values.shape
    with open(_mirror_path(csv_path), "wb") as fh:
        fh.write(b"%s %s %d %d\n" % (MIRROR_TAG, digest, rows, cols))
        values.tofile(fh)


def _read_mirror(csv_path):
    """The CSV's matrix from its mirror, or None unless the mirror's tag,
    its digest of the CSV's bytes and its size all match."""
    try:
        fh = open(_mirror_path(csv_path), "rb")
    except OSError:
        return None
    with fh:
        fields = fh.readline(256).split()
        if len(fields) != 4 or fields[0] != MIRROR_TAG or not (
                fields[2].isdigit() and fields[3].isdigit()):
            return None
        rows, cols = int(fields[2]), int(fields[3])
        n = rows * cols
        if n == 0 or os.fstat(fh.fileno()).st_size != fh.tell() + 8 * n:
            return None
        if fields[1] != _csv_digest(csv_path):
            return None
        return np.fromfile(fh, dtype="<f8", count=n).reshape(rows, cols)


def _read_mirrored(csv_path, skiprows: int = 0) -> np.ndarray:
    """The matrix the CSV holds below its first `skiprows` lines: from its
    mirror when that is current, else parsed; ConfigurationError naming
    the CSV if it holds no data rows or a cell or row that does not parse."""
    matrix = _read_mirror(csv_path)
    if matrix is not None:
        return matrix
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data")
        try:
            return np.loadtxt(csv_path, delimiter=",", skiprows=skiprows, ndmin=2)
        except UserWarning:
            raise ConfigurationError(f"{csv_path}: no data rows") from None
        except ValueError as exc:
            raise ConfigurationError(f"{csv_path}: {exc}") from None


def save_scene(
    directory,
    scene: Scene,
    library: ComponentLibrary,
    table_params: dict,
    noise_level: float = 0.0,
) -> None:
    """Write scene.json, radiance.csv and its mirror into `directory`;
    `table_params` holds the knots, tau_max and seed the forward table was
    built with."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": "aodlattice-scene/1",
        "width": scene.width,
        "height": scene.height,
        "channels": scene.channels,
        "region_size_km": scene.region_size_km,
        "channel_mask": [bool(b) for b in scene.channel_mask],
        "component_library": library.to_records(),
        "table": {
            "knots": int(table_params["knots"]),
            "tau_max": float(table_params["tau_max"]),
            "seed": int(table_params["seed"]),
        },
        "noise_level": float(noise_level),
    }
    _write_json(directory / SCENE_JSON, meta)
    _write_mirrored_csv(directory / RADIANCE_CSV, _as_matrix(scene.radiance))


def _get(obj: dict, key: str, kind: str, path: str | None = None):
    """obj[key] if it holds the JSON type `kind`, else ConfigurationError
    naming the key by its dotted path in scene.json (key by default)."""
    path = path or key
    if key not in obj:
        raise ConfigurationError(f"missing required key {path!r}")
    if type(obj[key]) not in _JSON_TYPES[kind]:
        raise ConfigurationError(f"{path} must be a JSON {kind}, got {json.dumps(obj[key])}")
    return obj[key]


def _get_float(obj: dict, key: str, path: str | None = None) -> float:
    """_get(obj, key, "number") as a float; an integer too large for a
    float raises ConfigurationError naming the key, not OverflowError."""
    value = _get(obj, key, "number", path)
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{path or key} must be finite, got an integer too large for a float") from None


def load_scene(directory):
    """Read a scene directory; returns (Scene, ComponentLibrary, table).

    Each scene.json key is read in the JSON type save_scene writes it in
    (integers are never booleans, channel_mask holds booleans); any other
    value or a missing key raises ConfigurationError naming scene.json
    and the key's dotted path (table.knots), and unused keys (the
    table.channels and radiance_csv of earlier versions too) are ignored.
    A value out of its range raises the same way, before any CSV is read:
    the range rules are check_scene_shape (the lattice's sides and region
    cap among them), check_table_args, table.seed >= 0 and
    check_channel_mask.  A radiance.csv that breaks Scene.validate's
    radiance rules (its shape, values in [0, RADIANCE_MAX]) raises
    ConfigurationError naming that file.  The forward table is rebuilt from
    the table key and the scene's channel count: the model it was rendered
    with.
    """
    directory = Path(directory)
    meta_path = directory / SCENE_JSON
    if not meta_path.exists():
        raise ConfigurationError(f"missing {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict) or meta.get("format") != "aodlattice-scene/1":
            raise ConfigurationError("unrecognized scene format")
        library = ComponentLibrary.from_records(_get(meta, "component_library", "array"))
        mask = _get(meta, "channel_mask", "array")
        if not all(type(b) is bool for b in mask):
            raise ConfigurationError(f"channel_mask must hold booleans, got {json.dumps(mask)}")
        shape = {key: _get(meta, key, "integer") for key in ("width", "height", "channels")}
        region_size_km = _get_float(meta, "region_size_km")
        t = _get(meta, "table", "object")
        knots = _get(t, "knots", "integer", "table.knots")
        seed = _get(t, "seed", "integer", "table.seed")
        tau_max = _get_float(t, "tau_max", "table.tau_max")
        check_scene_shape(**shape, region_size_km=region_size_km)
        check_table_args(shape["channels"], knots, tau_max,
                         names=("channels", "table.knots", "table.tau_max"))
        if seed < 0:
            raise ConfigurationError(f"table.seed must be >= 0, got {seed}")
        check_channel_mask(mask, shape["channels"])
    except ValueError as exc:  # ConfigurationError and JSONDecodeError included
        raise ConfigurationError(f"{meta_path}: {exc}") from None
    radiance_path = directory / RADIANCE_CSV
    scene = Scene(**shape, radiance=_read_mirrored(radiance_path),
                  channel_mask=np.array(mask, dtype=bool), region_size_km=region_size_km)
    try:  # scene.json's rules hold, so only the radiance's can fail
        scene.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{radiance_path}: {exc}") from None
    table = build_synthetic_table(library, channels=scene.channels, knots=knots,
                                  tau_max=tau_max, seed=seed)
    return scene, library, table


def save_truth(directory, truth_tau: np.ndarray, truth_theta: np.ndarray) -> None:
    """Truth sidecar: header tau,theta_1..theta_M; one row per region;
    plus its mirror."""
    path = Path(directory) / TRUTH_CSV
    M = truth_theta.shape[1]
    matrix = _as_matrix(np.column_stack([truth_tau, truth_theta]))  # raises before any write
    header = "tau," + ",".join(f"theta_{m + 1}" for m in range(M))
    _write_mirrored_csv(path, matrix, header)


def load_truth(directory):
    """(tau, theta) from the truth sidecar, or None without one."""
    path = Path(directory) / TRUTH_CSV
    if not path.exists():
        return None
    data = _read_mirrored(path, skiprows=1)
    return data[:, 0], data[:, 1:]


def save_trace(path, trace) -> None:
    """SweepTrace CSV: sweep, log_posterior, accept rates, kappa, elapsed_ms."""
    _write_csv(path, np.array(list(trace.rows()), dtype=float).reshape(-1, 6),
               "sweep,log_posterior,tau_accept_rate,theta_accept_rate,kappa,elapsed_ms",
               ints=1)


def save_speedup(path, runs) -> None:
    """Per-sweep wall times of patch runs, from (n_patches, SweepTrace) pairs:
    one n_patches,sweep,elapsed_ms row per sweep, runs in the given order."""
    rows = [(n, sweep, ms) for n, trace in runs
            for sweep, ms in enumerate(trace.elapsed_ms, start=1)]
    _write_csv(path, np.array(rows, dtype=float).reshape(-1, 3), "n_patches,sweep,elapsed_ms",
               ints=2)


def _write_json(path, obj) -> None:
    """The one JSON writer: sorted keys, indent 1, a final newline, and
    no NaN or infinity token (ValueError), which JSON does not have."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_metrics(path, report) -> None:
    _write_json(path, report.to_dict())


def config_hash(config_dict: dict) -> str:
    canon = json.dumps(config_dict, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, config_dict: dict, seed: int, timings_ms: dict) -> None:
    """Run provenance: resolved config, its hash, versions, timings."""
    manifest = {
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "seed": seed,
        "versions": {
            "aodlattice": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timings_ms": timings_ms,
    }
    _write_json(path, manifest)
