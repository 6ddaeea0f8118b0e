"""Command-line runners, field ingestion and report writers.

Three subcommands drive the standard experiments: `robustness` sweeps a
contrast exponent over a fixed channelized field, `comparison` runs the
three coarse spaces on one field, and `twophase` runs the sequential
two-phase loop and writes its artifacts.  Fields come from raster files
(plain text, binary, or the SPE10 column layout) or from a seeded
synthetic generator.  All numeric outputs are deterministic for a given
configuration; wall times are reported but never part of any contract.
"""

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import mesh
from .mixed_fem import PermeabilityField, assemble_operators
from .coarse_space import GMSFEM_TOL, SPACE_KINDS, build_space, check_space
from .preconditioner import (SMOOTHER_OVERLAP, SolverSettings,
                             build_preconditioner, solve)
from .two_phase import FluidModel, IMPESConfig, five_spot_wells, impes_run


# ---------------------------------------------------------------------------
# field ingestion

def read_raster(path, dims, layout: str = "text", layers=None):
    """Read a cell-wise permeability raster.

    `dims` are the target grid dimensions, values ordered x-fastest.
    Layouts: `text` one value per line; `binary` little-endian float64;
    `spe10` whitespace-separated text holding whole z-layers, where
    `layers=(start, stop)` cuts a contiguous layer range out of a file
    with more layers than the target grid (stop-start must equal the
    target z-dimension); other layouts take no `layers`.
    """
    n = int(np.prod(dims))
    if layout not in ("text", "binary", "spe10"):
        raise ValueError(f"unknown raster layout {layout!r}")
    if layers is not None and layout != "spe10":
        raise ValueError(f"layers cut spe10 rasters only, not layout "
                         f"{layout!r}")
    try:
        if layout == "binary":
            raw = np.fromfile(path, dtype="<f8")
        else:
            with open(path) as fh:
                raw = np.array([float(tok) for line in fh
                                for tok in line.split()])
    except OSError as exc:
        raise ValueError(f"cannot read raster {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

    if layout == "spe10":
        plane = int(np.prod(dims[:-1]))
        if raw.size % plane:
            raise ValueError(
                f"{path}: {raw.size} values is not a whole number of "
                f"{plane}-cell layers")
        available = raw.size // plane
        if layers is None:
            layers = (0, dims[-1])
        start, stop = layers
        if stop - start != dims[-1] or start < 0 or stop > available:
            raise ValueError(
                f"{path}: layer range {start}:{stop} does not cut "
                f"{dims[-1]} layers out of {available}")
        raw = raw[start * plane:stop * plane]
    elif raw.size != n:
        raise ValueError(f"{path}: expected {n} values for dims {dims}, "
                         f"found {raw.size}")

    try:
        return PermeabilityField(values=raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_raster(path, values, layout: str = "text"):
    values = np.asarray(values, dtype=float).ravel()
    if layout == "binary":
        values.astype("<f8").tofile(path)
    elif layout == "text":
        with open(path, "w") as fh:
            for v in values:
                # shortest repr that survives a float round trip
                fh.write(f"{float(v)!r}\n")
    else:
        raise ValueError(f"unknown raster layout {layout!r}")


# ---------------------------------------------------------------------------
# synthetic fields

@dataclass
class FieldSpec:
    """Axis-aligned features on a unit background.

    `boxes` are ((lo...), (hi...)) corner pairs in fractional domain
    coordinates; a cell belongs to a feature when its centre lies in
    the closed box.  Boxes aligned with cell boundaries select exact
    index ranges.  `n_random` adds that many seeded rectangular
    inclusions of fractional size `random_size`.  Feature cells get
    10**exponent, everything else 1; an exponent for which that is not
    a positive, finite float raises ValueError.
    """

    exponent: float = 0.0
    boxes: list = dataclass_field(default_factory=list)
    n_random: int = 0
    random_size: float = 0.08

    def __post_init__(self):
        try:
            value = 10.0 ** float(self.exponent)
        except OverflowError:
            value = float("inf")
        if not 0.0 < value < float("inf"):
            raise ValueError(f"contrast exponent {self.exponent!r} gives "
                             f"10**exponent {value!r}; it must be positive "
                             f"and finite")


def synth_field(seed, dims, spec: FieldSpec) -> PermeabilityField:
    dim = len(dims)
    boxes = list(spec.boxes)
    for lo, hi in boxes:
        if len(lo) != dim or len(hi) != dim:
            raise ValueError(f"box {lo}/{hi} does not match {dim}D dims")
        if any(l < 0 or h > 1 or l >= h for l, h in zip(lo, hi)):
            raise ValueError(f"box {lo}/{hi} outside the unit domain")
    rng = np.random.default_rng(seed)
    for _ in range(spec.n_random):
        lo = rng.uniform(0.0, 1.0 - spec.random_size, size=dim)
        boxes.append((tuple(lo), tuple(lo + spec.random_size)))

    n = int(np.prod(dims))
    idx = np.unravel_index(np.arange(n), dims, order="F")
    centers = [(idx[a] + 0.5) / dims[a] for a in range(dim)]
    feat = np.zeros(n, dtype=bool)
    for lo, hi in boxes:
        inside = np.ones(n, dtype=bool)
        for a in range(dim):
            inside &= (centers[a] >= lo[a]) & (centers[a] <= hi[a])
        feat |= inside
    values = np.ones(n)
    values[feat] = 10.0 ** spec.exponent
    return PermeabilityField(values=values)


# channelized bench geometry, fractional; bounds sit on cell boundaries
# of the reference resolutions so the masks are grid-exact there.
# The 2D layout is a comb: long bars attached to alternating walls cut
# most coarse blocks of their column in two, so block-constant coarse
# pressures cannot see the jump across a bar and a fixed one-mode-per-
# face space degrades with contrast while the spectral space adapts.
BENCH_BOXES_2D = [((0.13, 0.00), (0.16, 0.92)),
                  ((0.33, 0.08), (0.36, 1.00)),
                  ((0.53, 0.00), (0.56, 0.92)),
                  ((0.73, 0.08), (0.76, 1.00)),
                  ((0.93, 0.00), (0.96, 0.92)),
                  ((0.58, 0.43), (0.72, 0.46)),
                  ((0.18, 0.63), (0.32, 0.66))]

BENCH_BOXES_3D = [((2 / 32, 0.0, 10 / 32), (30 / 32, 1.0, 12 / 32)),
                  ((0.0, 21 / 32, 3 / 32), (1.0, 23 / 32, 29 / 32)),
                  ((13 / 32, 13 / 32, 2 / 32), (15 / 32, 15 / 32, 31 / 32)),
                  ((4 / 32, 5 / 32, 18 / 32), (28 / 32, 7 / 32, 20 / 32))]


def bench_field(dims, exponent, seed=0) -> PermeabilityField:
    """The channel-and-bar field used by the table protocols.

    Seed 0 is the fixed layout; any other seed adds three seeded random
    inclusions of the same contrast.
    """
    boxes = BENCH_BOXES_2D if len(dims) == 2 else BENCH_BOXES_3D
    spec = FieldSpec(exponent=exponent, boxes=boxes,
                     n_random=3 if seed else 0)
    return synth_field(seed, dims, spec)


# ---------------------------------------------------------------------------
# writers

def write_vtk(path, dims, h, name, values):
    """Cell scalars as a legacy ASCII STRUCTURED_POINTS file."""
    dims = tuple(dims) + (1,) * (3 - len(dims))
    h = tuple(h) + (1.0,) * (3 - len(h))
    values = np.asarray(values, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{name}\n")
        fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {dims[0] + 1} {dims[1] + 1} {dims[2] + 1}\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {float(h[0])!r} {float(h[1])!r} {float(h[2])!r}\n")
        fh.write(f"CELL_DATA {values.size}\n")
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# experiment configuration

@dataclass
class ExperimentConfig:
    grid: tuple = (100, 100)
    coarse: tuple = (10, 10)
    field: str = "synth"
    layout: str = "text"
    layers: tuple | None = None
    spaces: tuple = (IMPESConfig.space,)
    tol: float = GMSFEM_TOL
    contrasts: tuple | None = None  # None: robustness sweeps -6 .. 6
    eta: float = SolverSettings.eta
    sweeps: int = SolverSettings.sweeps
    overlap: int | None = SolverSettings.overlap  # None: per coarse space
    rtol: float = SolverSettings.rel_tol
    seed: int = 0
    out: str = "."
    # two-phase block
    steps: int = 200
    dt: float = IMPESConfig.dt
    pressure_interval: int = IMPESConfig.pressure_interval
    checkpoints: tuple | None = None  # None: those of 50, 100, 200 reached
    mu_w: float = FluidModel.mu_w
    mu_o: float = FluidModel.mu_o
    porosity: float = IMPESConfig.porosity
    rate: float | None = None  # None: the default of five_spot_wells

    def settings(self) -> SolverSettings:
        return SolverSettings(rel_tol=self.rtol, eta=self.eta,
                              sweeps=self.sweeps, overlap=self.overlap)

    def contrast(self, command) -> float:
        """The one exponent of `comparison` and `twophase`, 0 by default."""
        contrasts = (0.0,) if self.contrasts is None else self.contrasts
        if len(contrasts) != 1:
            raise ValueError(f"{command} solves at one contrast exponent, "
                             f"but --contrasts gives {len(contrasts)}")
        return contrasts[0]

    def field_at(self, contrast) -> PermeabilityField:
        """The bench field at `contrast`, or the raster, which ignores it."""
        if self.field == "synth":
            if self.layers is not None:
                raise ValueError("layers cut spe10 rasters only, not the "
                                 "synthetic field")
            return bench_field(self.grid, contrast, seed=self.seed)
        return read_raster(self.field, self.grid, self.layout, self.layers)


def _parse_dims(text):
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}; expected like 100x100")
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise ValueError(f"bad grid spec {text!r}")
    return dims


def parse_config_file(path) -> dict:
    """`key = value` lines; # starts a comment; keys match CLI options."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = (p.strip() for p in line.split("=", 1))
                out[key.replace("-", "_")] = value
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return out


_CONVERTERS = {
    "grid": _parse_dims,
    "coarse": _parse_dims,
    "spaces": lambda s: tuple(p.strip() for p in s.split(",")),
    "contrasts": lambda s: tuple(float(p) for p in s.split(",")),
    "checkpoints": lambda s: tuple(int(p) for p in s.split(",")),
    "layers": lambda s: tuple(int(p) for p in s.split(":")),
    "tol": float, "eta": float, "rtol": float, "dt": float,
    "mu_w": float, "mu_o": float, "porosity": float, "rate": float,
    "sweeps": int, "overlap": int, "seed": int,
    "steps": int, "pressure_interval": int,
    "field": str, "layout": str, "out": str,
}


def build_config(file_values: dict, overrides: dict) -> ExperimentConfig:
    config = ExperimentConfig()
    for source in (file_values, overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _CONVERTERS:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(value, str):
                try:
                    value = _CONVERTERS[key](value)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from exc
            setattr(config, key, value)
    if config.seed < 0:
        raise ValueError(f"seed must be non-negative, got {config.seed}")
    for kind in config.spaces:
        check_space(kind, config.tol)
    for contrast in config.contrasts or ():  # all of them, before any solve
        FieldSpec(exponent=contrast)
    return config


# ---------------------------------------------------------------------------
# runners

@dataclass
class RunRow:
    label: str
    contrast: float
    space: str
    dim: int
    iterations: int
    condition: float
    overlap: int
    setup_seconds: float
    solve_seconds: float
    face_modes: tuple


@dataclass
class RunReport:
    rows: list

    HEADER = ("field", "contrast", "space", "dim", "iterations",
              "condition", "overlap", "setup_seconds", "solve_seconds",
              "face_modes")

    def write(self, path):
        """One row per run; `overlap` is the smoother's, and `face_modes`
        holds the velocity mode count of every coarse face, in face
        order, joined by ';'."""
        write_csv(path, self.HEADER,
                  [(r.label, r.contrast, r.space, r.dim, r.iterations,
                    f"{r.condition:.6g}", r.overlap, f"{r.setup_seconds:.3f}",
                    f"{r.solve_seconds:.3f}",
                    ";".join(str(n) for n in r.face_modes))
                   for r in self.rows])


def corner_source(grid) -> np.ndarray:
    """Unit injection in the first cell, production in the last."""
    f = np.zeros(grid.n_cells)
    f[0] = 1.0
    f[-1] = -1.0
    return f


def _solve_one(grid, field, kind, config, label, contrast) -> RunRow:
    """Setup (operators, basis, smoother and coarse factors) and solve,
    timed apart."""
    settings = config.settings()
    t0 = time.perf_counter()
    ops = assemble_operators(grid, field)
    basis = build_space(kind, grid, field, ops, tol=config.tol)
    precond = build_preconditioner(grid, ops, basis, settings)
    t1 = time.perf_counter()
    result = solve(grid, ops, basis, corner_source(grid), settings,
                   preconditioner=precond)
    t2 = time.perf_counter()
    return RunRow(label, contrast, kind, basis.dim, result.report.iterations,
                  result.report.condition_estimate,
                  settings.smoother_overlap(basis.kind), t1 - t0, t2 - t1,
                  tuple(basis.face_mode_counts))


def _solve_spaces(grid, field, config, label, contrast) -> list:
    """One row per coarse kind of `config` on `field`."""
    rows = []
    for kind in config.spaces:
        try:
            rows.append(_solve_one(grid, field, kind, config, label, contrast))
        except RuntimeError as exc:
            raise RuntimeError(f"space {kind}: {exc}") from exc
    return rows


def run_robustness_sweep(config: ExperimentConfig) -> RunReport:
    """One row per (contrast exponent, coarse kind) on the bench field.
    A raster has no contrast: it is read and solved once per coarse
    kind, in rows labelled `raster` with an empty contrast."""
    grid = mesh.build_grid(config.grid, config.coarse)
    if config.field != "synth":
        return RunReport(_solve_spaces(grid, config.field_at(None), config,
                                       "raster", None))
    contrasts = (-6, -4, -2, 0, 2, 4, 6) if config.contrasts is None \
        else config.contrasts
    if not contrasts:
        raise ValueError("contrast exponent list is empty")
    rows = []
    for k in contrasts:
        try:
            rows += _solve_spaces(grid, config.field_at(k), config, "bench", k)
        except RuntimeError as exc:
            raise RuntimeError(f"contrast {k:g}, {exc}") from exc
    return RunReport(rows)


def run_comparison(config: ExperimentConfig) -> RunReport:
    """All requested coarse spaces on a single field."""
    contrast = config.contrast("comparison")
    grid = mesh.build_grid(config.grid, config.coarse)
    return RunReport(_solve_spaces(grid, config.field_at(contrast), config,
                                   "comparison", contrast))


def run_two_phase(config: ExperimentConfig) -> dict:
    """Sequential two-phase run; returns the paths of written artifacts."""
    if len(config.spaces) != 1:
        raise ValueError(f"twophase runs one coarse space, got "
                         f"{','.join(config.spaces)}")
    contrast = config.contrast("twophase")
    grid = mesh.build_grid(config.grid, config.coarse)
    checkpoints = (tuple(c for c in (50, 100, 200) if c <= config.steps)
                   if config.checkpoints is None else config.checkpoints)
    impes = IMPESConfig(grid=grid, kappa=config.field_at(contrast),
                        fluid=FluidModel(mu_w=config.mu_w, mu_o=config.mu_o),
                        wells=(None if config.rate is None
                               else five_spot_wells(grid, config.rate)),
                        dt=config.dt, n_steps=config.steps,
                        pressure_interval=config.pressure_interval,
                        space=config.spaces[0], tol=config.tol,
                        porosity=config.porosity,
                        settings=config.settings(),
                        checkpoint_steps=checkpoints)
    result = impes_run(impes)

    os.makedirs(config.out, exist_ok=True)
    paths = {}
    cut_path = os.path.join(config.out, "water_cut.csv")
    solves_per_step = np.arange(config.steps) // config.pressure_interval
    write_csv(cut_path, ("step", "time", "water_cut", "pcg_iterations",
                         "newton_iterations", "halvings", "bound_violation"),
              [(i + 1, f"{(i + 1) * config.dt:g}", f"{wc:.10g}",
                result.reports[solves_per_step[i]].iterations,
                state.newton_iterations, state.halvings,
                f"{state.bound_violation:.3e}")
               for i, (wc, state) in enumerate(zip(result.water_cut,
                                                   result.states[1:]))])
    paths["water_cut"] = cut_path

    iters_path = os.path.join(config.out, "pressure_iterations.csv")
    write_csv(iters_path, ("solve", "step", "iterations", "condition"),
              [(j, j * config.pressure_interval, r.iterations,
                f"{r.condition_estimate:.6g}")
               for j, r in enumerate(result.reports)])
    paths["pressure_iterations"] = iters_path

    for step, s in result.checkpoints.items():
        p = os.path.join(config.out, f"saturation_{step:06d}.vtk")
        write_vtk(p, grid.fine, grid.h, "saturation", s)
        paths[f"saturation_{step}"] = p
    return paths


# ---------------------------------------------------------------------------
# entry point

def _add_common(parser):
    parser.add_argument("config", nargs="?", help="key = value config file")
    parser.add_argument("--grid", help="fine dims, like 100x100")
    parser.add_argument("--coarse", help="coarse dims, like 10x10")
    parser.add_argument("--field", help="raster path, or 'synth'")
    parser.add_argument("--layout", choices=("text", "binary", "spe10"))
    parser.add_argument("--layers", help="spe10 layer range, like 5:85")
    parser.add_argument("--space", dest="spaces",
                        help="coarse spaces, comma-separated")
    parser.add_argument("--tol", help="eigenvalue selection tolerance")
    parser.add_argument("--contrasts", help="exponents, comma-separated")
    parser.add_argument("--eta", help="relaxation of each color's box solves "
                        f"in a smoother sweep, in (0, 2) (default "
                        f"{SolverSettings.eta})")
    parser.add_argument("--sweeps", help="smoother sweeps per V-cycle side")
    parser.add_argument("--overlap", help="smoother layers, for every space "
                        f"(default by space: {SMOOTHER_OVERLAP})")
    parser.add_argument("--rtol", help="PCG relative tolerance")
    parser.add_argument("--seed", help="synthetic field seed")
    parser.add_argument("--out", help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msflow",
        description="mixed multiscale Darcy solver experiment runners")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("robustness", "contrast sweep on the bench field"),
                      ("comparison", "coarse-space comparison on one field"),
                      ("twophase", "sequential two-phase run")):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "twophase":
            p.add_argument("--steps", help="transport steps")
            p.add_argument("--dt", help="transport step size")
            p.add_argument("--pressure-interval", dest="pressure_interval")
            p.add_argument("--checkpoints", help="steps to export")
    args = parser.parse_args(argv)

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        if args.command == "comparison" and overrides.get("spaces") is None \
                and "spaces" not in file_values:
            overrides["spaces"] = SPACE_KINDS
        config = build_config(file_values, overrides)
        mesh.build_grid(config.grid, config.coarse)  # validates divisibility
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "robustness":
            report = run_robustness_sweep(config)
            os.makedirs(config.out, exist_ok=True)
            path = os.path.join(config.out, "robustness.csv")
            report.write(path)
            print(path)
        elif args.command == "comparison":
            report = run_comparison(config)
            os.makedirs(config.out, exist_ok=True)
            path = os.path.join(config.out, "comparison.csv")
            report.write(path)
            print(path)
        else:
            paths = run_two_phase(config)
            for p in sorted(paths.values()):
                print(p)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
