"""Raster IO, synthetic fields, config parsing, and the msflow CLI."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msflow
from msflow import bench_cli, coarse_space, mesh, mixed_fem
from msflow.bench_cli import (
    BENCH_BOXES_2D,
    BENCH_BOXES_3D,
    ExperimentConfig,
    FieldSpec,
    bench_field,
    build_config,
    corner_source,
    main,
    parse_config_file,
    read_raster,
    run_comparison,
    run_robustness_sweep,
    synth_field,
    write_raster,
    write_vtk,
    _parse_dims,
)
from msflow.preconditioner import SolverSettings, TwoGridPreconditioner
from msflow.sparse_linalg import PcgReport

from conftest import band_values


# ---------------------------------------------------------------------------
# rasters


@pytest.mark.parametrize("layout", ["text", "binary"])
def test_raster_round_trip(tmp_path, layout, rng):
    values = np.exp(5.0 * rng.standard_normal(24))
    path = tmp_path / f"field.{layout}"
    write_raster(path, values, layout=layout)
    field = read_raster(path, (4, 3, 2), layout=layout)
    # full repr in text mode, raw float64 in binary: both exact
    assert np.array_equal(field.values, values)


def test_raster_file_order_is_x_fastest(tmp_path):
    # left half of a 2x2 grid marked; flat order must be x-fastest
    field = synth_field(0, (2, 2), FieldSpec(exponent=2.0,
                                             boxes=[((0.0, 0.0), (0.5, 1.0))]))
    assert field.values.tolist() == [100.0, 1.0, 100.0, 1.0]
    path = tmp_path / "half.txt"
    write_raster(path, field.values)
    lines = path.read_text().splitlines()
    assert [float(t) for t in lines] == [100.0, 1.0, 100.0, 1.0]


def test_spe10_layer_slicing(tmp_path):
    # 4 stored layers of a (3, 2) plane; values encode layer and cell
    dims = (3, 2, 2)
    plane = 6
    stored = np.array([100.0 * layer + i + 1.0
                       for layer in range(4) for i in range(plane)])
    path = tmp_path / "stack.dat"
    path.write_text(" ".join(str(v) for v in stored))

    mid = read_raster(path, dims, layout="spe10", layers=(1, 3))
    assert np.array_equal(mid.values, stored[plane:3 * plane])
    assert mid.values[0] == 101.0 and mid.values[-1] == 206.0

    # default takes the first dims[-1] layers
    top = read_raster(path, dims, layout="spe10")
    assert np.array_equal(top.values, stored[:2 * plane])


def test_spe10_rejects_ragged_and_bad_ranges(tmp_path):
    path = tmp_path / "stack.dat"
    path.write_text(" ".join(str(float(v + 1)) for v in range(13)))
    with pytest.raises(ValueError,
                       match=r"13 values is not a whole number of 6-cell"):
        read_raster(path, (3, 2, 2), layout="spe10")

    path.write_text(" ".join(str(float(v + 1)) for v in range(24)))
    with pytest.raises(ValueError,
                       match=r"layer range 3:5 does not cut 2 layers out of 4"):
        read_raster(path, (3, 2, 2), layout="spe10", layers=(3, 5))
    with pytest.raises(ValueError, match=r"layer range -1:1"):
        read_raster(path, (3, 2, 2), layout="spe10", layers=(-1, 1))


def test_raster_errors_name_the_file(tmp_path):
    with pytest.raises(ValueError, match="unknown raster layout 'csv'"):
        read_raster(tmp_path / "x", (2, 2), layout="csv")
    with pytest.raises(ValueError, match="unknown raster layout 'csv'"):
        write_raster(tmp_path / "x", [1.0], layout="csv")

    missing = tmp_path / "missing.txt"
    with pytest.raises(ValueError, match=f"cannot read raster {re.escape(str(missing))}"):
        read_raster(missing, (2, 2))

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1.0\nbogus\n3.0\n4.0\n")
    with pytest.raises(ValueError) as err:
        read_raster(garbled, (2, 2))
    assert str(garbled) in str(err.value) and "bogus" in str(err.value)

    short = tmp_path / "short.txt"
    write_raster(short, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError,
                       match=r"expected 4 values for dims \(2, 2\), found 3"):
        read_raster(short, (2, 2))


def test_raster_rejects_nonpositive_and_nan(tmp_path):
    path = tmp_path / "bad.txt"
    for values, cell in (([1.0, 2.0, -3.0, 4.0], "cell 2 has value -3.0"),
                         ([1.0, 2.0, 3.0, np.nan], "cell 3 has value nan"),
                         ([1.0, 2.0, np.inf, 4.0], "cell 2 has value inf")):
        write_raster(path, values)
        with pytest.raises(ValueError, match=f"bad.txt: .*{cell}"):
            read_raster(path, (2, 2))


# ---------------------------------------------------------------------------
# synthetic fields


def test_synth_field_empty_spec_is_uniform():
    field = synth_field(0, (5, 4), FieldSpec())
    assert np.array_equal(field.values, np.ones(20))


def test_synth_field_box_selects_exact_cells():
    # box edges on cell boundaries of a 4x4 grid: bottom-right quadrant
    field = synth_field(0, (4, 4), FieldSpec(
        exponent=-3.0, boxes=[((0.5, 0.0), (1.0, 0.5))]))
    lattice = field.values.reshape((4, 4), order="F")
    assert np.all(lattice[2:, :2] == 1e-3)
    assert lattice.sum() == pytest.approx(4 * 1e-3 + 12.0)


def test_synth_field_random_inclusions_are_seeded():
    spec = FieldSpec(exponent=2.0, n_random=5, random_size=0.1)
    a = synth_field(7, (30, 30), spec)
    b = synth_field(7, (30, 30), spec)
    c = synth_field(8, (30, 30), spec)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert set(np.unique(a.values)) <= {1.0, 100.0}
    assert (a.values == 100.0).any()


def test_synth_field_validates_boxes():
    with pytest.raises(ValueError, match="does not match 2D dims"):
        synth_field(0, (4, 4), FieldSpec(boxes=[((0.0, 0.0, 0.0),
                                                 (1.0, 1.0, 1.0))]))
    with pytest.raises(ValueError, match="outside the unit domain"):
        synth_field(0, (4, 4), FieldSpec(boxes=[((0.0, 0.2), (1.1, 0.4))]))
    with pytest.raises(ValueError, match="outside the unit domain"):
        synth_field(0, (4, 4), FieldSpec(boxes=[((0.6, 0.2), (0.4, 0.4))]))


def test_field_spec_rejects_exponents_outside_the_floats():
    # 10**400 overflows, 10**-400 underflows to 0: neither is a
    # permeability, so the spec refuses them before any field is made
    for exponent in (400.0, -400.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be positive and finite"):
            FieldSpec(exponent=exponent)
    field = synth_field(0, (2, 2), FieldSpec(exponent=300.0,
                                             boxes=[((0, 0), (0.5, 0.5))]))
    assert sorted(field.values) == [1.0, 1.0, 1.0, 1e300]


def _integer_box_mask(dims, boxes):
    # independent route: convert fractional bounds to index ranges via
    # the cell-centre rule ceil(lo*n - 1/2) .. floor(hi*n - 1/2)
    mask = np.zeros(dims, dtype=bool, order="F")
    for lo, hi in boxes:
        slices = []
        for a, n in enumerate(dims):
            first = int(np.ceil(lo[a] * n - 0.5))
            last = int(np.floor(hi[a] * n - 0.5))
            slices.append(slice(max(first, 0), last + 1))
        mask[tuple(slices)] = True
    return mask.ravel(order="F")


@pytest.mark.parametrize("dims,boxes,exponent", [
    ((100, 100), BENCH_BOXES_2D, 2.0),
    ((32, 32, 32), BENCH_BOXES_3D, -4.0),
])
def test_bench_field_matches_integer_mask(dims, boxes, exponent):
    field = bench_field(dims, exponent)
    mask = _integer_box_mask(dims, boxes)
    expected = np.where(mask, 10.0 ** exponent, 1.0)
    assert np.array_equal(field.values, expected)
    assert 0 < mask.sum() < mask.size


def test_bench_field_dispatches_on_dimension():
    assert (bench_field((50, 50), 1.0).values == 10.0).sum() > 0
    assert (bench_field((16, 16, 16), 1.0).values == 10.0).sum() > 0


def test_bench_field_seed():
    fixed = bench_field((40, 40), 2.0)
    assert np.array_equal(bench_field((40, 40), 2.0, seed=0).values,
                          fixed.values)
    one = bench_field((40, 40), 2.0, seed=1).values
    two = bench_field((40, 40), 2.0, seed=2).values
    assert not np.array_equal(one, two)
    assert not np.array_equal(one, fixed.values)
    # seeded inclusions only add feature cells to the fixed layout
    assert np.all(one[fixed.values == 100.0] == 100.0)


# ---------------------------------------------------------------------------
# VTK output


def test_write_vtk_structured_points(tmp_path):
    path = tmp_path / "s.vtk"
    write_vtk(path, (3, 2), (0.25, 0.5), "saturation", np.arange(6) + 1.0)
    lines = path.read_text().splitlines()
    assert lines == [
        "# vtk DataFile Version 3.0",
        "saturation",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS 4 3 2",
        "ORIGIN 0 0 0",
        "SPACING 0.25 0.5 1.0",
        "CELL_DATA 6",
        "SCALARS saturation double 1",
        "LOOKUP_TABLE default",
        "1.0", "2.0", "3.0", "4.0", "5.0", "6.0",
    ]


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# bench setup\n"
        "grid = 8x8\n"
        "pressure-interval = 2   # dashes map to underscores\n"
        "\n"
        "rtol = 1e-8\n")
    assert parse_config_file(path) == {
        "grid": "8x8", "pressure_interval": "2", "rtol": "1e-8"}


def test_parse_config_file_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid = 8x8\nnot a setting\n")
    with pytest.raises(ValueError,
                       match=f"{re.escape(str(path))}:2: expected key = value"):
        parse_config_file(path)
    with pytest.raises(ValueError, match="cannot read config"):
        parse_config_file(tmp_path / "absent.cfg")


def test_build_config_conversions_and_precedence():
    config = build_config(
        {"grid": "8x8", "rtol": "1e-9", "layers": "5:85"},
        {"grid": "4x4", "spaces": "gmsfem, rt0", "contrasts": "0,2",
         "checkpoints": "10,20", "rtol": None})
    assert config.grid == (4, 4)            # override wins
    assert config.rtol == 1e-9              # None override keeps file value
    assert config.layers == (5, 85)
    assert config.spaces == ("gmsfem", "rt0")
    assert config.contrasts == (0.0, 2.0)
    assert config.checkpoints == (10, 20)
    # already-converted values pass through untouched
    assert build_config({}, {"coarse": (5, 5)}).coarse == (5, 5)


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key 'grdi'"):
        build_config({"grdi": "8x8"}, {})
    # BLAS reads its thread count when numpy loads, before any config
    with pytest.raises(ValueError, match="unknown config key 'threads'"):
        build_config({"threads": "4"}, {})
    # the V-cycle has one schedule: no pre- and post-smoothing counts,
    # no sweep count and no relaxation
    for key in ("m1", "sweeps", "eta"):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            build_config({key: "2"}, {})


def test_settings_mapping(tmp_path, monkeypatch):
    assert ExperimentConfig().settings() == SolverSettings()
    custom = build_config({}, {"rtol": "1e-9", "overlap": "1"}).settings()
    assert custom == SolverSettings(rel_tol=1e-9, overlap=1)

    # two-phase defaults: a twophase run without options runs the
    # library's IMPESConfig, FluidModel and five_spot_wells defaults
    received = []

    def impes_run(impes):
        received.append(impes)
        raise RuntimeError("stop before the run")

    monkeypatch.setattr(bench_cli, "impes_run", impes_run)
    config = dataclasses.replace(ExperimentConfig(), grid=(8, 8),
                                 coarse=(2, 2), out=str(tmp_path))
    with pytest.raises(RuntimeError, match="stop before the run"):
        bench_cli.run_two_phase(config)
    [impes] = received
    grid = mesh.build_grid((8, 8), (2, 2))
    want = msflow.IMPESConfig(grid=grid, kappa=mixed_fem.uniform_field(grid))
    for key in ("dt", "pressure_interval", "porosity", "fluid", "space",
                "tol", "settings"):
        assert getattr(impes, key) == getattr(want, key), key
    wells = impes.wells or msflow.five_spot_wells(grid)
    assert wells.wells == msflow.five_spot_wells(grid).wells


def test_field_at_builds_synth_or_reads_the_raster(tmp_path):
    path = tmp_path / "k.txt"
    write_raster(path, np.arange(1.0, 17.0))
    synth = build_config({}, {"grid": (4, 4), "seed": 3})
    assert np.array_equal(synth.field_at(2.0).values,
                          bench_field((4, 4), 2.0, seed=3).values)
    raster = build_config({}, {"grid": (4, 4), "field": str(path)})
    assert np.array_equal(raster.field_at(2.0).values, np.arange(1.0, 17.0))


def test_parse_dims():
    assert _parse_dims("100x100") == (100, 100)
    assert _parse_dims("8X4x2") == (8, 4, 2)
    for bad in ("abc", "8", "2x2x2x2", "0x4", "4x-4"):
        with pytest.raises(ValueError, match="bad grid spec"):
            _parse_dims(bad)


def test_corner_source_balances():
    grid = mesh.build_grid((4, 4), (2, 2))
    f = corner_source(grid)
    assert f[0] == 1.0 and f[-1] == -1.0
    assert np.count_nonzero(f) == 2 and f.sum() == 0.0


def test_sweep_rejects_empty_contrast_list():
    config = build_config({}, {"contrasts": ()})
    with pytest.raises(ValueError, match="empty"):
        run_robustness_sweep(config)


# ---------------------------------------------------------------------------
# command line


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_robustness_writes_report(tmp_path, capsys):
    argv = ["robustness", "--grid", "16x16", "--coarse", "4x4",
            "--contrasts", "0,2", "--space", "gmsfem",
            "--out", str(tmp_path / "a")]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("robustness.csv")

    rows = _read_csv(out)
    assert rows[0] == ["field", "contrast", "space", "dim", "iterations",
                       "condition", "overlap", "setup_seconds",
                       "solve_seconds", "face_modes"]
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["0.0", "2.0"]
    for row in rows[1:]:
        assert row[0] == "bench" and row[2] == "gmsfem"
        assert int(row[3]) > 0 and 0 < int(row[4]) <= 60
        assert float(row[5]) >= 1.0 and row[6] == "1"
        float(row[7]), float(row[8])
        # one count per coarse face (2 * 3 * 4 on 4x4 blocks), plus one
        # pressure mode per block make up the dimension
        modes = [int(n) for n in row[9].split(";")]
        assert len(modes) == 24 and min(modes) >= 1
        assert sum(modes) + 16 == int(row[3])

    # a second identical run reproduces everything but the wall times
    assert main(argv[:-1] + [str(tmp_path / "b")]) == 0
    rerun = _read_csv(tmp_path / "b" / "robustness.csv")
    assert [r[:7] + r[9:] for r in rerun] == [r[:7] + r[9:] for r in rows]


def test_cli_comparison_defaults_to_all_spaces(tmp_path, capsys):
    assert main(["comparison", "--grid", "8x8", "--coarse", "2x2",
                 "--contrasts", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = _read_csv(tmp_path / "comparison.csv")
    assert [r[2] for r in rows[1:]] == ["gmsfem", "msfem", "rt0"]
    assert all(r[0] == "comparison" for r in rows[1:])
    # msfem and rt0 keep one mode on each of the 4 coarse faces
    assert [r[9] for r in rows[2:]] == ["1;1;1;1"] * 2
    # each row names its smoother's overlap: the space's default, or the
    # one --overlap forces on every space
    assert [r[6] for r in rows[1:]] == ["1", "2", "2"]
    assert main(["comparison", "--grid", "8x8", "--coarse", "2x2",
                 "--overlap", "3", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "comparison.csv")
    assert [r[6] for r in rows[1:]] == ["3", "3", "3"]


def test_cli_robustness_solves_a_raster_once_per_space(tmp_path, capsys):
    # a raster has no contrast, so the exponents do not multiply its rows
    path = tmp_path / "k.txt"
    write_raster(path, 10.0 ** np.random.default_rng(5).uniform(-2, 2, 64))
    argv = ["robustness", "--grid", "8x8", "--coarse", "2x2", "--field",
            str(path), "--contrasts=-4,0,4", "--space", "rt0",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    rows = _read_csv(capsys.readouterr().out.strip())
    assert len(rows) == 2
    assert rows[1][:3] == ["raster", "", "rt0"]


def test_solve_one_times_the_preconditioner_build_as_setup(monkeypatch):
    received = []
    original = bench_cli.solve

    def solve(*args, preconditioner=None, **kwargs):
        received.append(preconditioner)
        return original(*args, preconditioner=preconditioner, **kwargs)

    monkeypatch.setattr(bench_cli, "solve", solve)
    config = build_config({}, {"grid": (8, 8), "coarse": (2, 2),
                               "spaces": ("rt0",)})
    run_comparison(config)
    assert len(received) == 1
    assert isinstance(received[0], TwoGridPreconditioner)


@pytest.mark.parametrize("command", ["comparison", "twophase"])
def test_single_field_commands_reject_a_contrast_list(command, tmp_path,
                                                      capsys, monkeypatch):
    # `comparison` used to solve at the first exponent and drop the rest,
    # `twophase` at 0 unless it got exactly one
    def no_factor(*args, **kwargs):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(mixed_fem, "_BoxFactor", no_factor)
    monkeypatch.setattr(mixed_fem, "factor", no_factor)
    argv = [command, "--grid", "8x8", "--coarse", "2x2", "--space", "rt0",
            "--out", str(tmp_path)]
    for contrasts in ("--contrasts=-4,4", "--contrasts=0,2,4"):
        assert main(argv + [contrasts]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--contrasts" in err


def test_single_field_commands_solve_at_exponent_zero(tmp_path, monkeypatch):
    config = build_config({}, {"grid": (8, 8), "coarse": (2, 2),
                               "spaces": ("rt0",), "steps": 1,
                               "checkpoints": (), "out": str(tmp_path)})
    assert [row.contrast for row in run_comparison(config).rows] == [0.0]
    kappas = []
    original = bench_cli.impes_run

    def impes_run(impes):
        kappas.append(impes.kappa.values)
        return original(impes)

    monkeypatch.setattr(bench_cli, "impes_run", impes_run)
    bench_cli.run_two_phase(config)
    # one named exponent is the one solved at
    config.contrasts = (2.0,)
    assert [row.contrast for row in run_comparison(config).rows] == [2.0]
    bench_cli.run_two_phase(config)
    for kappa, exponent in zip(kappas, (0.0, 2.0)):
        assert np.array_equal(kappa, bench_field((8, 8), exponent).values)
    # the sweep keeps its default exponents
    config.contrasts = None
    rows = run_robustness_sweep(config).rows
    assert [row.contrast for row in rows] == [-6, -4, -2, 0, 2, 4, 6]


def test_cli_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 8x8\ncoarse = 2x2\ncontrasts = 0\n"
                   f"spaces = rt0\nout = {tmp_path / 'from_file'}\n")
    assert main(["comparison", str(cfg),
                 "--out", str(tmp_path / "from_cli")]) == 0
    capsys.readouterr()
    assert not (tmp_path / "from_file").exists()
    rows = _read_csv(tmp_path / "from_cli" / "comparison.csv")
    assert [r[2] for r in rows[1:]] == ["rt0"]


def test_cli_rejects_bad_configuration(tmp_path, capsys, monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("a factor was built")

    # bad input must stop before any box or coarse factor is built
    monkeypatch.setattr(mixed_fem, "_BoxFactor", no_factor)
    monkeypatch.setattr(mixed_fem, "factor", no_factor)
    monkeypatch.setattr(coarse_space, "inverse_cholesky", no_factor)
    cases = [
        ["robustness", "--grid", "7y7"],
        ["robustness", "--grid", "8x8", "--coarse", "3x3"],
        ["comparison", "--grid", "8x8", "--coarse", "2x2",
         "--field", str(tmp_path / "absent.txt"), "--space", "rt0"],
    ]
    comparison = ["comparison", "--grid", "8x8", "--coarse", "2x2",
                  "--out", str(tmp_path)]
    cases += [comparison + ["--tol", "nan"], comparison + ["--tol", "-5"],
              comparison + ["--rtol", "nan"], comparison + ["--rtol", "0"],
              # 10**exponent must be a positive, finite float; every
              # exponent is checked before the first one is solved
              comparison + ["--contrasts", "400"],
              comparison + ["--contrasts=-400"],
              ["robustness", "--grid", "8x8", "--coarse", "2x2", "--space",
               "rt0", "--contrasts", "0,400", "--out", str(tmp_path)],
              comparison + ["--space", "gmsfem,bogus"],
              comparison + ["--space", "rt0", "--tol", "-1"],
              ["robustness", "--grid", "8x8", "--coarse", "2x2",
               "--space", "amg", "--out", str(tmp_path)]]
    # layers cut spe10 rasters only: the synthetic field and a text
    # raster would ignore them
    raster = tmp_path / "k.txt"
    np.savetxt(raster, np.ones(64))
    cases += [comparison + ["--seed", "3", "--layers", "5:9"],
              comparison + ["--field", str(raster), "--layers", "5:9"]]
    for argv in cases:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # a value that does not convert is named by its key, and a negative
    # seed stops here rather than in numpy's generator
    for bad, message in (
            (["--contrasts", ""],
             "error: contrasts: could not convert string to float: ''"),
            (["--space", "rt0", "--layers", "a:b"],
             "error: layers: invalid literal for int() with base 10: 'a'"),
            (["--space", "rt0", "--seed", "-1"],
             "error: seed must be non-negative, got -1"),
            (["--space", "rt0", "--layout", "spe10", "--layers", "0:2:3"],
             "error: layers: expected start:stop, like 5:85, got '0:2:3'"),
            (["--space", "rt0", "--layout", "spe10", "--layers", "1"],
             "error: layers: expected start:stop, like 5:85, got '1'")):
        assert main(comparison + bad) == 2
        assert capsys.readouterr().err.strip() == message
    # the V-cycle's relaxation and sweep count are not options
    for bad in ("--eta=1", "--sweeps=2"):
        with pytest.raises(SystemExit) as exit_info:
            main(comparison + ["--space", "rt0", bad])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {bad}" in capsys.readouterr().err

    two_phase = ["twophase", "--grid", "8x8", "--coarse", "2x2",
                 "--space", "rt0", "--steps", "4", "--out", str(tmp_path)]
    for bad in (["--pressure-interval", "0"], ["--dt", "-1"],
                ["--dt", "nan"], ["--steps", "0"], ["--checkpoints=0"],
                ["--checkpoints=300"], ["--checkpoints=2,-1"],
                ["--space", "rt0,gmsfem"], ["--tol", "-1"], ["--tol", "nan"]):
        assert main(two_phase + bad) == 2
        assert capsys.readouterr().err.startswith("error: ")

    for line in ("porosity = 0", "porosity = -0.2", "porosity = 1.5",
                 "porosity = nan", "mu_w = inf", "mu_o = nan",
                 "rate = -1", "rate = 0"):
        cfg = tmp_path / "fluid.cfg"
        cfg.write_text(f"grid = 8x8\ncoarse = 2x2\nsteps = 4\n{line}\n")
        assert main(["twophase", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert line.split()[0] in err

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grdi = 8x8\n")
    assert main(["robustness", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_cli_reports_numerical_failure(tmp_path, capsys, monkeypatch):
    def exploding(config):
        raise RuntimeError("synthetic blow-up")

    monkeypatch.setattr(bench_cli, "run_robustness_sweep", exploding)
    assert main(["robustness", "--grid", "8x8", "--coarse", "2x2",
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: synthetic blow-up\n"


def test_cli_basis_failure_exits_three(tmp_path, capsys):
    # x-bands of 1e14, 1 and 1e-14: a gmsfem face metric is not
    # positive definite in floating point, a numerical failure (exit 3)
    # and not a configuration error (exit 2)
    path = tmp_path / "band.txt"
    write_raster(path, band_values(mesh.build_grid((32, 32), (4, 4)), 14))
    assert main(["comparison", "--grid", "32x32", "--coarse", "4x4",
                 "--field", str(path), "--space", "gmsfem",
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: space gmsfem: metric matrix is not positive "
        "definite")


def test_cli_divergence_failure_exits_three(tmp_path, capsys, monkeypatch):
    # the bench field at 1e8 without gradient fits: CG reports
    # convergence, but its velocity misses the source, so no CSV row may
    # be written
    monkeypatch.setattr(msflow.preconditioner, "DRIFT_TRIGGER", np.inf)
    assert main(["comparison", "--grid", "40x40", "--coarse", "4x4",
                 "--contrasts", "8", "--seed", "424242", "--space", "rt0",
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: space rt0: CG left divergence error")
    assert not (tmp_path / "out" / "comparison.csv").exists()


def test_cli_stalled_solve_exits_three(tmp_path, capsys, monkeypatch):
    # the real solve, with a CG that stops unconverged at max_iter
    def stalled_pcg(apply_operator, apply_preconditioner, rhs, **kwargs):
        return np.zeros_like(rhs), PcgReport(
            iterations=500, converged=False, residuals=[1.0, 0.9])

    monkeypatch.setattr(msflow.preconditioner, "pcg", stalled_pcg)
    assert main(["comparison", "--grid", "8x8", "--coarse", "2x2",
                 "--space", "rt0", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: space rt0: solve stalled")
    assert "500 iterations" in err


def test_two_phase_runs_the_configured_rate(tmp_path, monkeypatch):
    received = []
    original = bench_cli.impes_run

    def impes_run(impes):
        received.append(impes.wells)
        return original(impes)

    monkeypatch.setattr(bench_cli, "impes_run", impes_run)
    config = build_config({"rate": "4"}, {
        "grid": (8, 8), "coarse": (2, 2), "spaces": ("rt0",), "steps": 2,
        "checkpoints": (), "out": str(tmp_path)})
    bench_cli.run_two_phase(config)
    [wells] = received
    assert sum(rate for _, rate in wells.wells if rate > 0) == 4.0


def test_two_phase_default_checkpoints_are_the_steps_it_reaches(tmp_path):
    config = build_config({}, {
        "grid": (8, 8), "coarse": (2, 2), "spaces": ("rt0",), "steps": 50,
        "pressure_interval": 25, "out": str(tmp_path)})
    paths = bench_cli.run_two_phase(config)
    assert sorted(k for k in paths if k.startswith("saturation")) == \
        ["saturation_50"]


def test_cli_two_phase_artifacts(tmp_path, capsys):
    out = tmp_path / "tp"
    assert main(["twophase", "--grid", "8x8", "--coarse", "2x2",
                 "--space", "rt0", "--contrasts", "0", "--steps", "4",
                 "--dt", "0.002", "--pressure-interval", "2",
                 "--checkpoints", "2,4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == printed and len(printed) == 4

    cut = _read_csv(out / "water_cut.csv")
    assert cut[0] == ["step", "time", "water_cut", "pcg_iterations",
                      "newton_iterations", "halvings", "bound_violation"]
    assert [r[0] for r in cut[1:]] == ["1", "2", "3", "4"]
    assert cut[1][1] == "0.002" and cut[4][1] == "0.008"
    for row in cut[1:]:
        assert 0.0 <= float(row[2]) <= 1.0
        int(row[3])
        assert int(row[4]) > 0 and int(row[5]) == 0
        assert 0.0 <= float(row[6]) <= 1e-9

    iters = _read_csv(out / "pressure_iterations.csv")
    assert iters[0] == ["solve", "step", "iterations", "condition"]
    assert [r[:2] for r in iters[1:]] == [["0", "0"], ["1", "2"]]

    for step in (2, 4):
        lines = (out / f"saturation_{step:06d}.vtk").read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[4] == "DIMENSIONS 9 9 2"
        assert "CELL_DATA 64" in lines
        assert len(lines) == 10 + 64


def test_module_entry_point_starts_cleanly():
    # `python3 -m msflow` from a checkout: the package's parent directory
    # on the path, no install
    src = str(Path(msflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "msflow", "--help"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "robustness" in done.stdout
    assert "RuntimeWarning" not in done.stderr
