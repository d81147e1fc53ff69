"""Bad input through the CLI: every case ends in exit 0, 2 or 3, never a
traceback or a warning, and an input error is one `error:` line that names
the key or the file at fault.

Each case runs in-process through cli.main on a 6x5 scene under a
warnings-as-errors filter.  The named holes below each crashed, warned or
named nothing before their fix; the valid cases pin the edge of each
accepted range, so a cap that refuses too much fails too.
"""

import warnings

import pytest

from aodlattice import cli, io

SCENE = [
    "--set", "scene.width=6",
    "--set", "scene.height=5",
    "--set", "scene.channels=6",
    "--set", "table.knots=9",
]
# a short run of every solver
RUN = ["--set", "solver.max_sweeps=2", "--set", "mcmc.iterations=4",
       "--set", "mcmc.burn_in=1", "--set", "mcmc.thin=1"]


def run_case(argv, capsys):
    """cli.main(argv) under a warnings-as-errors filter; returns (exit code,
    stderr) after checking the three properties every case must have."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except Exception as exc:  # a warning raised as an error lands here too
            pytest.fail(f"traceback instead of an exit code: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    return code, err


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bad_input") / "scene"
    assert cli.main(["simulate", *SCENE, "--out", str(out)]) == 0
    return out


def retrieve(scene, method, out, *settings):
    argv = ["retrieve", "--scene", str(scene), "--method", method, *RUN]
    for setting in settings:
        argv += ["--set", setting]
    return argv + ["--out", str(out)]


# (id, method, setting, exit code, text the error line must hold)
SETTING_CASES = [
    # math.lgamma overflowed in the Dirichlet normaliser
    ("alpha-overflows-lgamma-map", "map", "solver.alpha=1e308", 2, "alpha"),
    ("alpha-overflows-lgamma-mcmc", "mcmc", "solver.alpha=1e308", 2, "alpha"),
    ("alpha-large-map", "map", "solver.alpha=1e200", 0, None),
    ("alpha-large-mcmc", "mcmc", "solver.alpha=1e200", 0, None),
    ("alpha-at-cap", "mcmc", "solver.alpha=1e250", 0, None),
    # 2 delta^2 underflowed to 0 in the tau proposal's Hastings term
    ("delta-underflows", "mcmc", "solver.delta=1e-308", 2, "delta"),
    # delta * z overflowed in the tau draw
    ("delta-overflows", "mcmc", "solver.delta=1e308", 2, "delta"),
    ("delta-small", "mcmc", "solver.delta=1e-150", 0, None),
    ("delta-large", "mcmc", "solver.delta=1e150", 0, None),
    # the tau proposal's square overflowed for raw values outside the support
    ("delta-near-cap", "mcmc", "solver.delta=9e153", 0, None),
    # np.linspace and the T x G cell grid were allocated before any check
    ("grid-levels-huge", "grid", "grid.tau_levels=10000000", 2, "tau_levels"),
    ("grid-levels-at-cap", "grid", "grid.tau_levels=1000", 0, None),
]


@pytest.mark.parametrize("method, setting, want, named",
                         [case[1:] for case in SETTING_CASES],
                         ids=[case[0] for case in SETTING_CASES])
def test_setting(scene_dir, tmp_path, capsys, method, setting, want, named):
    out = tmp_path / "out"
    code, err = run_case(retrieve(scene_dir, method, out, setting), capsys)
    assert code == want, err
    if named is not None:
        assert named in err
    assert out.exists() == (code == 0)


# (id, setting, exit code, text the error line must hold) of a simulate
SIMULATE_CASES = [
    # gen_truth allocated gigabytes before anything bounded the lattice
    ("width-past-region-cap", "scene.width=10000000", 2, "[scene] width"),
    ("height-past-region-cap", "scene.height=10000000", 2, "[scene] width"),
]


@pytest.mark.parametrize("setting, want, named", [case[1:] for case in SIMULATE_CASES],
                         ids=[case[0] for case in SIMULATE_CASES])
def test_simulate_setting(tmp_path, capsys, setting, want, named):
    out = tmp_path / "scene"
    code, err = run_case(["simulate", *SCENE, "--set", setting, "--out", str(out)], capsys)
    assert code == want, err
    assert named in err
    assert not out.exists()


def spoiled_copy(scene_dir, tmp_path, name, line, cell):
    """A copy of the scene whose CSV `name` has no mirror and its line
    `line` spoiled: its first cell set to `cell`, or one cell added when
    cell is None."""
    scene = tmp_path / "scene"
    scene.mkdir()
    for path in scene_dir.iterdir():
        if path.name != name + ".bin":
            (scene / path.name).write_bytes(path.read_bytes())
    lines = (scene / name).read_text().splitlines()
    cells = lines[line].split(",")
    if cell is None:
        cells.append(cells[0])
    else:
        cells[0] = cell
    lines[line] = ",".join(cells)
    (scene / name).write_text("\n".join(lines) + "\n")
    return scene


# (id, CSV, the line to spoil, its new first cell or None to add a cell)
CSV_CASES = [
    # numpy's parse error named no file
    ("radiance-non-numeric-cell", io.RADIANCE_CSV, 0, "abc"),
    ("truth-non-numeric-cell", io.TRUTH_CSV, 1, "abc"),
    ("radiance-extra-cell", io.RADIANCE_CSV, 2, None),
    # the grid's assumed variance, level**2, overflowed for every method
    ("radiance-past-cap", io.RADIANCE_CSV, 0, "1e300"),
]


@pytest.mark.parametrize("name, line, cell", [case[1:] for case in CSV_CASES],
                         ids=[case[0] for case in CSV_CASES])
@pytest.mark.parametrize("method", ["map", "grid", "mcmc"])
def test_spoiled_csv(scene_dir, tmp_path, capsys, name, line, cell, method):
    """A CSV with a cell that does not parse or is out of range, or a row
    one cell too long, and no mirror, exits 2 naming the CSV."""
    scene = spoiled_copy(scene_dir, tmp_path, name, line, cell)
    out = tmp_path / "out"
    code, err = run_case(retrieve(scene, method, out), capsys)
    assert code == 2
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["map", "grid", "mcmc"])
def test_radiance_at_cap(scene_dir, tmp_path, capsys, method):
    """A radiance cell at model.RADIANCE_MAX runs clean."""
    scene = spoiled_copy(scene_dir, tmp_path, io.RADIANCE_CSV, 0, "1e100")
    code, err = run_case(retrieve(scene, method, tmp_path / "out"), capsys)
    assert code == 0, err


@pytest.mark.parametrize("method", ["map", "mcmc", "grid"])
def test_valid_run(scene_dir, tmp_path, capsys, method):
    """The unspoiled scene and defaults run clean under the same filter."""
    out = tmp_path / "out"
    code, err = run_case(retrieve(scene_dir, method, out), capsys)
    assert code == 0, err
