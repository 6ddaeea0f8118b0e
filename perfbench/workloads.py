"""The three benchmark workloads: inputs from a seed, one timed repetition,
output checks and per-repetition metrics.

Each field is a bench layout (`BENCH_BOXES_2D` / `BENCH_BOXES_3D`) plus
a few seeded random inclusions of the same contrast, so every seed is a
new input of nearly the same cost.  Why each workload was chosen and
which layer it shows or bypasses is recorded in BENCHMARK.json.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

import msflow
from msflow import mesh
from msflow.bench_cli import BENCH_BOXES_2D, BENCH_BOXES_3D, corner_source

from tracing import self_time

# grid-keyed caches a fresh process starts without; cleared before every
# repetition so each one pays the same cold cost
_GRID_CACHES = (mesh.coarse_faces, mesh.cell_face_ids)

DIVERGENCE_TOL = 1e-10
# CG stops at 1e-7 in the preconditioner norm; the energy error it leaves
# on these cases is below 1e-5 relative, so 1e-4 only catches wrong answers
VELOCITY_TOL = 1e-4
# the pre-clip overshoot of a working implicit upwind step is roundoff
# of the Newton tolerance (1e-10)
SATURATION_TOL = 1e-8
# the water cut is sampled once per step, so a step split by Newton step
# halving is balanced only to O(dt * change of f_w) within the step
BALANCE_TOL = 1e-4


@dataclass(frozen=True)
class Case:
    name: str
    fine: tuple
    coarse: tuple
    exponent: float
    space: str
    n_random: int
    random_size: float

    def grid(self):
        return msflow.build_grid(self.fine, self.coarse)

    def field(self, seed):
        boxes = BENCH_BOXES_2D if len(self.fine) == 2 else BENCH_BOXES_3D
        spec = msflow.FieldSpec(exponent=self.exponent, boxes=boxes,
                                n_random=self.n_random,
                                random_size=self.random_size)
        return msflow.synth_field(seed, self.fine, spec)


@dataclass(frozen=True)
class ImpesCase(Case):
    dt: float = 1.5e-3
    n_steps: int = 160
    pressure_interval: int = 40

    def config(self, field):
        return msflow.IMPESConfig(grid=self.grid(), kappa=field, dt=self.dt,
                                  n_steps=self.n_steps,
                                  pressure_interval=self.pressure_interval,
                                  space=self.space)


WORKLOADS = {
    "rt0-2d": Case("rt0-2d", (40, 40), (4, 4), -6.0, "rt0", 3, 0.05),
    "gmsfem-3d": Case("gmsfem-3d", (16, 16, 16), (4, 4, 4), -4.0, "gmsfem",
                      3, 0.125),
    "impes-2d": ImpesCase("impes-2d", (40, 40), (4, 4), 2.0, "gmsfem", 3,
                          0.05),
}

# the same code paths on small grids, run once untimed so lazy imports
# and first-call costs inside numpy/scipy are paid before timing
WARMUP = {
    "rt0-2d": Case("warmup", (12, 12), (3, 3), -6.0, "rt0", 1, 0.1),
    "gmsfem-3d": Case("warmup", (8, 8, 8), (2, 2, 2), -4.0, "gmsfem", 1,
                      0.25),
    "impes-2d": ImpesCase("warmup", (12, 12), (3, 3), 2.0, "gmsfem", 1, 0.1,
                          n_steps=4, pressure_interval=2),
}

# spans that the end-to-end metrics of each workload need in an untraced run
E2E_SPANS = {
    "rt0-2d": set(),
    "gmsfem-3d": set(),
    "impes-2d": {"coarse_space.build_space", "preconditioner.solve"},
}


def _clear_grid_caches():
    for cached in _GRID_CACHES:
        cached.cache_clear()


def run_rep(case, field, tracer):
    """One timed repetition; returns (output, warnings raised).

    Spans: `time_to_solution` around the whole run, and for solve
    workloads `setup` and `solve` inside it.
    """
    _clear_grid_caches()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(case, ImpesCase):
            config = case.config(field)
            with tracer.span("time_to_solution"):
                output = msflow.impes_run(config)
        else:
            grid = case.grid()
            source = corner_source(grid)
            with tracer.span("time_to_solution"):
                with tracer.span("setup"):
                    ops = msflow.assemble_operators(grid, field)
                    basis = msflow.build_space(case.space, grid, field, ops)
                    precond = msflow.build_preconditioner(grid, ops, basis)
                with tracer.span("solve"):
                    output = msflow.solve(grid, ops, basis, source,
                                          with_pressure=True,
                                          preconditioner=precond)
    # recorded, not filtered: every warning is shown again on stderr
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return output, caught


def e2e_samples(case, spans):
    """End-to-end timing samples of one repetition, by metric name."""
    total = [s.duration for s in spans if s.name == "time_to_solution"]
    if isinstance(case, ImpesCase):
        # the t=0 basis build is the only build_space call of a frozen run
        setup = [s.duration for s in spans
                 if s.name == "coarse_space.build_space"][:1]
        solve = [s.duration for s in spans
                 if s.name == "preconditioner.solve"]
    else:
        setup = [s.duration for s in spans if s.name == "setup"]
        solve = [s.duration for s in spans if s.name == "solve"]
    return {"setup_s": setup, "solve_s": solve, "time_to_solution_s": total}


def recover_pressure_warnings(caught):
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
               and str(w.message).startswith("pressure recovery"))


# ---------------------------------------------------------------------------
# output checks

class Oracle:
    """Direct solve of [[A, B^T], [B, 0]] with the first pressure pinned.

    The velocity does not depend on the pressure constant, so pinning
    one pressure gives the exact discrete velocity without the all-ones
    border.  Built once per run, outside the timed region.
    """

    def __init__(self, case, field):
        grid = case.grid()
        ops = msflow.assemble_operators(grid, field)
        source = corner_source(grid)
        B = ops.B[1:]
        K = sparse.bmat([[ops.A, B.T], [B, None]], format="csc")
        rhs = np.concatenate([np.zeros(grid.n_velocity), source[1:]])
        self.velocity = splu(K).solve(rhs)[:grid.n_velocity]
        self.A = ops.A
        self.energy = float(np.sqrt(self.velocity @ (self.A @ self.velocity)))
        self.errors = []

    def check(self, result):
        """Failure messages for one solve result (empty when correct)."""
        problems = []
        if not result.report.converged:
            problems.append(f"CG did not converge in "
                            f"{result.report.iterations} iterations")
        if not result.divergence_error <= DIVERGENCE_TOL:
            problems.append(f"divergence error {result.divergence_error:.3e}")
        diff = result.velocity - self.velocity
        error = float(np.sqrt(diff @ (self.A @ diff))) / self.energy
        self.errors.append(error)
        if not error <= VELOCITY_TOL:
            problems.append(f"velocity A-norm error {error:.3e} against the "
                            f"direct solve")
        if result.pressure is None or not np.all(np.isfinite(result.pressure)):
            problems.append("pressure missing or not finite")
        return problems


def check_impes(case, result):
    """Failure messages for one IMPES run (empty when correct)."""
    problems = []
    stalled = [i for i, r in enumerate(result.reports) if not r.converged]
    if stalled or len(result.reports) != case.n_steps // case.pressure_interval:
        problems.append(f"{len(result.reports)} pressure reports, "
                        f"unconverged: {stalled}")
    lo = min(float(st.s.min()) for st in result.states)
    hi = max(float(st.s.max()) for st in result.states)
    overshoot = max(st.bound_violation for st in result.states)
    if lo < 0.0 or hi > 1.0 or not overshoot <= SATURATION_TOL:
        problems.append(f"saturation range [{lo:.3e}, {hi:.3e}], "
                        f"clipped overshoot {overshoot:.3e}")
    grid = case.grid()
    wells = msflow.five_spot_wells(grid)
    injected = case.dt * case.n_steps * sum(r for _, r in wells.wells if r > 0)
    produced = case.dt * float(result.water_cut.sum()) * \
        -sum(r for _, r in wells.wells if r < 0)
    first, last = result.states[0], result.states[-1]
    stored = float(np.sum((last.s - first.s) * first.porosity)) \
        * grid.cell_volume
    imbalance = abs(injected - produced - stored) / injected
    if not imbalance <= BALANCE_TOL:
        problems.append(f"water volume imbalance {imbalance:.3e} of injected")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition

LAYER_TIMES = [
    "mesh.velocity_dofs_interior_to", "mesh.coarse_faces",
    "mixed_fem.assemble_operators",
    "coarse_space.build_space", "coarse_space.snapshot_face",
    "coarse_space.face_eigenpairs", "coarse_space.face_bilinear_s",
    "coarse_space.coarse_operator",
    "sparse_linalg.factor", "sparse_linalg.pcg",
    "preconditioner.build_preconditioner", "preconditioner.preprocess",
    "preconditioner.smooth", "preconditioner.coarse_correct",
    "preconditioner.recover_pressure",
    "two_phase.pressure_step", "two_phase.transport_step",
]
LAYER_CALLS = [
    "mixed_fem.BlockSolver.solve", "coarse_space.coarse_operator",
    "sparse_linalg.factor", "preconditioner.smooth", "preconditioner.apply",
    "two_phase.pressure_step", "two_phase.transport_step", "two_phase.newton",
]


def layer_metrics(spans, caught):
    """Per-layer metric values of one traced repetition."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, pick=None):
        return float(sum(s.duration for s in by_name.get(name, [])
                         if pick is None or pick(s)))

    out = {f"{name}.s": total(name) for name in LAYER_TIMES}
    out.update({f"{name}.calls": len(by_name.get(name, []))
                for name in LAYER_CALLS})

    builds = by_name.get("mixed_fem.block_solvers", [])
    for label, pick in (("overlap0", lambda s: s.attrs["overlap"] == 0),
                        ("overlapped", lambda s: s.attrs["overlap"] > 0)):
        out[f"mixed_fem.block_solvers.{label}.s"] = total(
            "mixed_fem.block_solvers", pick)
        out[f"mixed_fem.block_solvers.{label}.calls"] = sum(
            1 for s in builds if pick(s))
    out["mixed_fem.unique_factors"] = sum(s.attrs["unique_factors"]
                                          for s in builds)
    factors = by_name.get("sparse_linalg.factor", [])
    out["sparse_linalg.factor.lu_nnz"] = sum(s.attrs["lu_nnz"] for s in factors)
    # computed, not measured: float64 value plus int32 index per LU entry
    out["mixed_fem.factor_bytes"] = 12 * sum(
        s.attrs["lu_nnz"] for s in factors
        if s.within("mixed_fem.block_solvers"))

    spaces = by_name.get("coarse_space.build_space", [])
    out["coarse_space.basis_dim"] = spaces[0].attrs["basis_dim"] if spaces else 0

    runs = by_name.get("sparse_linalg.pcg", [])
    out["sparse_linalg.pcg.self_s"] = float(sum(self_time(s, spans)
                                                for s in runs))
    out["sparse_linalg.pcg.iterations"] = sum(s.attrs["iterations"]
                                              for s in runs)
    out["sparse_linalg.pcg.condition_estimate"] = max(
        (s.attrs["condition_estimate"] for s in runs), default=0.0)

    sweeps = out["preconditioner.smooth.calls"]
    out["preconditioner.smooth.s_per_sweep"] = (
        out["preconditioner.smooth.s"] / sweeps if sweeps else 0.0)
    out["preconditioner.recover_pressure.warnings"] = \
        recover_pressure_warnings(caught)
    out["two_phase.newton.failures"] = sum(
        1 for s in by_name.get("two_phase.newton", []) if s.error)
    return out


def _units(names, unit):
    return {name: (unit, "lower") for name in names}


# every per-layer metric with its (unit, better direction)
PER_LAYER = {
    **_units([f"{name}.s" for name in LAYER_TIMES], "s"),
    **_units([f"mixed_fem.block_solvers.{label}.s"
              for label in ("overlap0", "overlapped")], "s"),
    **_units(["sparse_linalg.pcg.self_s", "preconditioner.smooth.s_per_sweep",
              "trace.time_to_solution_s"], "s"),
    **_units([f"{name}.calls" for name in LAYER_CALLS], "count"),
    **_units([f"mixed_fem.block_solvers.{label}.calls"
              for label in ("overlap0", "overlapped")], "count"),
    **_units(["mixed_fem.unique_factors", "coarse_space.basis_dim",
              "sparse_linalg.factor.lu_nnz", "sparse_linalg.pcg.iterations",
              "preconditioner.recover_pressure.warnings",
              "two_phase.newton.failures"], "count"),
    "mixed_fem.factor_bytes": ("bytes", "lower"),
    "sparse_linalg.pcg.condition_estimate": ("1", "lower"),
    "trace.overhead": ("1", "lower"),
}

# counts that must repeat exactly for one seed
COUNTS = [
    "sparse_linalg.pcg.iterations", "coarse_space.basis_dim",
    "mixed_fem.unique_factors", "mixed_fem.block_solvers.overlap0.calls",
    "mixed_fem.block_solvers.overlapped.calls", "sparse_linalg.factor.lu_nnz",
    "two_phase.newton.failures",
]
