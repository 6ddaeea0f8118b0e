"""Sequential two-phase flow: pressure solves plus implicit transport.

Pressure and saturation are split in time.  The total velocity comes
from the preconditioned mixed solver on one coefficient per cell, the
permeability times the current total mobility (`mobility_field`); the
water saturation is then advanced by an implicit upwind finite-volume
step solved with Newton's method.  The multiscale coarse space is built
once from the initial mobility field and kept frozen; only its Galerkin
projection is refreshed when the mobility changes.  The wells are fixed,
so every pressure solve after the first starts CG from the previous
velocity, which meets their divergence already, and skips the
preprocessing step.

The velocity is fixed between pressure solves, so everything transport
needs from it and from the wells is built once per pressure solve as an
`UpwindFlow`: an upwind order of the cells, in which every cell comes
after the cells that feed it (Kwok & Tchelepi, JCP 227, 2007; Natvig &
Lie, JCP 227, 2008), and in that order one matrix `K` that maps the
fractional flows of the cells to their net water outflow, with a
Jacobian buffer on its pattern.  A Newton iteration is one pass for f_w
and its closed-form derivative, one product with `K` and, when it goes
on, one write of the Jacobian values into the buffer and one solve.  An
acyclic flow's Jacobian is lower triangular and solved by one forward
substitution; a circulating flow keeps each cycle together as one block
and is factored, with fill inside it only.
"""

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu
try:  # the compiled triangular solve under spsolve_triangular
    from scipy.sparse.linalg._dsolve._superlu import gstrs
except ImportError as exc:
    raise ImportError("msflow needs scipy >= 1.12 for _superlu.gstrs") from exc

from . import mesh
from .mixed_fem import PermeabilityField, assemble_operators
from .coarse_space import GMSFEM_TOL, build_space, check_space
from .preconditioner import (SolverSettings, build_preconditioner,
                             is_integer, solve)


@dataclass
class FluidModel:
    """Two-phase fluid with quadratic (Corey) relative permeabilities,
    k_rw = s^2 and k_ro = (1 - s)^2.  Rates are volumetric throughout
    (unit water density).
    """

    mu_w: float = 1.0
    mu_o: float = 5.0

    def __post_init__(self):
        for name in ("mu_w", "mu_o"):
            mu = getattr(self, name)
            if not (np.isfinite(mu) and mu > 0):
                raise ValueError(f"viscosities must be positive and "
                                 f"finite, got {name}={mu!r}")


@dataclass
class WellConfig:
    """Point sources and sinks: (cell id, volumetric rate) pairs.

    Positive rates inject water, negative rates produce total fluid.
    The rates must balance; an incompressible closed domain cannot
    store volume.
    """

    wells: list

    def __post_init__(self):
        for k, (_, rate) in enumerate(self.wells):
            if not np.isfinite(rate):
                raise ValueError(f"well {k}: rate {rate!r} is not finite")
        total = sum(rate for _, rate in self.wells)
        scale = max((abs(rate) for _, rate in self.wells), default=0.0)
        if abs(total) > 1e-12 * max(scale, 1.0):
            raise ValueError(f"well rates sum to {total:.3e}, not zero")

    def source_vector(self, n_cells: int) -> np.ndarray:
        f = np.zeros(n_cells)
        for k, (cell, rate) in enumerate(self.wells):
            if not is_integer(cell) or not 0 <= cell < n_cells:
                raise ValueError(f"well {k} (rate {rate:g}): cell {cell!r} "
                                 f"is not a cell id in [0, {n_cells})")
            f[cell] += rate
        return f

    def split(self, n_cells: int):
        """(q_plus, q_minus) per-cell injection and production rates."""
        q = self.source_vector(n_cells)
        return np.maximum(q, 0.0), np.minimum(q, 0.0)

    @property
    def producer_cells(self):
        return [cell for cell, rate in self.wells if rate < 0]


def five_spot_wells(grid, rate: float = 1.0) -> WellConfig:
    """Corner injectors plus a producer at the domain centre.

    The corners inject `rate` in equal parts; it must be positive and
    finite.  On even grids there is no single centre cell, so the
    producer is split evenly over the central 2 or 4 or 8 cells; this
    keeps the pattern exactly symmetric under the grid's reflections,
    which the transport tests rely on.
    """
    if not (np.isfinite(rate) and rate > 0):
        raise ValueError(f"five-spot rate must be positive and finite, "
                         f"got {rate!r}")
    corners = [int(mesh.cell_ids(grid, [(n - 1) * (k >> a & 1)
                                        for a, n in enumerate(grid.fine)]))
               for k in range(2 ** grid.dim)]
    centre_axes = [[n // 2] if n % 2 else [n // 2 - 1, n // 2]
                   for n in grid.fine]
    centre = [int(c) for c in mesh.cell_ids(grid, np.stack(np.meshgrid(
        *centre_axes, indexing="ij"), -1).reshape(-1, grid.dim))]
    wells = [(c, rate / len(corners)) for c in corners]
    wells += [(c, -rate / len(centre)) for c in centre]
    return WellConfig(wells)


@dataclass
class TransportState:
    """Water saturation with its porosity field and clock.

    `bound_violation` is the worst overshoot outside [0,1] that the
    last transport step clipped away.  `newton_iterations` counts the
    Newton iterations (Jacobian solves) of its accepted pieces and
    `halvings` how often its step was halved before they converged.
    """

    s: np.ndarray
    porosity: np.ndarray
    time: float = 0.0
    dt: float = 0.0
    bound_violation: float = 0.0
    newton_iterations: int = 0
    halvings: int = 0

    @classmethod
    def initial(cls, grid, porosity: float, s0: float = 0.0):
        return cls(s=np.full(grid.n_cells, float(s0)),
                   porosity=np.full(grid.n_cells, float(porosity)))


def total_mobility(fluid: FluidModel, s: np.ndarray) -> np.ndarray:
    """k_rw/mu_w + k_ro/mu_o, clamping stray saturations into [0,1]."""
    s = np.asarray(s, dtype=float)
    out_of_range = int(np.sum((s < -1e-12) | (s > 1.0 + 1e-12)))
    if out_of_range:
        warnings.warn(f"{out_of_range} saturation values outside [0,1] "
                      f"clamped for mobility evaluation", RuntimeWarning)
    s = np.clip(s, 0.0, 1.0)
    return s * s / fluid.mu_w + (1.0 - s) * (1.0 - s) / fluid.mu_o


def fractional_flow(fluid: FluidModel, s):
    """Water flux fraction f_w = (k_rw/mu_w) / lam, lam the total
    mobility, and its exact derivative in one pass: the quotient rule
    simplifies to f_w' = 2 s (1 - s) / (mu_w mu_o lam^2)."""
    s = np.asarray(s, dtype=float)
    t = 1.0 - s
    fw = s * s / fluid.mu_w
    lam = t * t / fluid.mu_o + fw
    fw /= lam
    dfw = s * t * (2.0 / (fluid.mu_w * fluid.mu_o))
    dfw /= np.multiply(lam, lam, out=lam)
    return fw, dfw


def mobility_field(kappa: PermeabilityField, fluid: FluidModel,
                   s: np.ndarray) -> PermeabilityField:
    """The rock permeability scaled by the total mobility at `s`."""
    return PermeabilityField(kappa.values * total_mobility(fluid, s))


def pressure_step(operators, basis, wells: WellConfig,
                  settings: SolverSettings = SolverSettings(), start=None):
    """Total-velocity solve on operators assembled from a
    `mobility_field`.

    The coarse basis is whatever the caller froze; only the coarse
    Galerkin operator and the block factorizations see the updated
    coefficient.  A `start` velocity, the previous pressure step's for
    the same wells, is handed to `solve`: CG starts from it and no
    preprocessing runs.  CG then stops at `settings.rel_tol` relative
    to its own first residual, as a cold start does; that residual is
    smaller than a cold start's, so a warm step takes a few more
    iterations and leaves a smaller error.  Returns (velocity,
    PcgReport); a `solve` that fails, or stalls, raises
    RuntimeError("pressure solve failed: ...").
    """
    grid = operators.grid
    precond = build_preconditioner(grid, operators, basis, settings)
    f = wells.source_vector(grid.n_cells)
    try:
        result = solve(grid, operators, basis, f, settings,
                       preconditioner=precond, start=start)
    except RuntimeError as exc:
        raise RuntimeError(f"pressure solve failed: {exc}") from exc
    return result.velocity, result.report


@dataclass
class UpwindFlow:
    """What the implicit upwind step needs from one fixed velocity.

    `order` lists the cells so that every upwind cell comes before the
    cells it feeds, with each cycle of the upwind graph kept together;
    `rank` is its inverse.  The rest is in that order.  `K` maps the
    fractional flows of the cells to their net water outflow: a face
    with a nonzero flux puts its rate in the column of its upwind cell,
    in the row of the cell it leaves and, negated, of the cell it
    enters; the producers put `-q_minus` on the diagonal, which is
    stored for every cell.  `columns` is the column of every stored
    entry, `diagonal` the data position of every diagonal and `q_plus`
    the injection rate of every cell.  `K` indexes by C ints, which the
    triangular kernel takes; it is lower triangular when the upwind
    graph has no cycle (`acyclic`).  Newton writes every Jacobian into
    `jacobian`, which shares `K`'s pattern.
    """

    K: sparse.csc_matrix
    columns: np.ndarray
    diagonal: np.ndarray
    q_plus: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    acyclic: bool
    jacobian: sparse.csc_matrix

    @classmethod
    def build(cls, grid, v: np.ndarray, wells: WellConfig) -> "UpwindFlow":
        # imported on first use: csgraph adds ~0.8 MB of resident memory
        # to every process, also to those that never run transport
        from scipy.sparse.csgraph import connected_components

        n = grid.n_cells
        areas = np.repeat(grid.face_areas,
                          [grid.axis_face_count(a) for a in range(grid.dim)])
        faces = np.flatnonzero(v)
        lo, hi = mesh.face_adjacent_cells(grid, faces)
        rate = v[faces] * areas[faces]
        upwind = np.where(rate > 0.0, lo, hi)
        graph = sparse.csr_matrix(
            (np.ones(len(faces)), (upwind, lo + hi - upwind)), shape=(n, n))
        n_groups, labels = connected_components(graph, connection="strong")
        # scipy numbers the strong components of a graph sinks first, so
        # descending labels put every group after the groups feeding it
        order = np.argsort(-labels, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        q_plus, q_minus = wells.split(n)
        cells = np.arange(n)
        K = sparse.csc_matrix(
            (np.concatenate([rate, -rate, -q_minus]),
             (rank[np.concatenate([lo, hi, cells])],
              rank[np.concatenate([upwind, upwind, cells])])), shape=(n, n))
        K.indices, K.indptr = (K.indices.astype(np.intc),
                               K.indptr.astype(np.intc))
        columns = np.repeat(cells, np.diff(K.indptr))
        jacobian = sparse.csc_matrix((np.empty(K.nnz), K.indices, K.indptr),
                                     shape=(n, n))
        return cls(K=K, columns=columns,
                   diagonal=np.flatnonzero(K.indices == columns),
                   q_plus=q_plus[order], order=order, rank=rank,
                   acyclic=n_groups == n, jacobian=jacobian)


class _NewtonFailure(Exception):
    pass


# iterations in a row without a new lowest residual that give a step up;
# converging five-spot steps go at most two without one
_NEWTON_STALL = 4
_NEWTON_MAX_ITER = 25


def _solve_jacobian(flow: UpwindFlow, jacobian, b):
    """jacobian^-1 b for a Jacobian on the pattern of `flow.K`, whose
    diagonal is at least pv > 0.  An acyclic flow's is lower triangular:
    scaled by column to unit diagonal, one forward substitution solves
    it, with no factorization.  A flow with cycles is factored, with
    fill inside the cycles only."""
    if flow.acyclic:
        d = jacobian.data[flow.diagonal]
        n = len(d)
        x, _ = gstrs("N", n, jacobian.nnz, jacobian.data / d[flow.columns],
                     jacobian.indices, jacobian.indptr, n, 0, np.empty(0),
                     np.empty(0, np.intc), np.zeros(n + 1, np.intc), b)
        return x / d
    # SuperLU's default panel workspace would be faulted in on every call
    return splu(jacobian, permc_spec="NATURAL", panel_size=1,
                relax=1).solve(b)


def _newton_transport(grid, fluid: FluidModel, s0, porosity, dt,
                      flow: UpwindFlow):
    """One implicit upwind step for the velocity and wells in `flow`.

    Returns (saturation, Newton iterations); raises _NewtonFailure when
    stuck: after `_NEWTON_MAX_ITER` iterations, or as soon as the
    residual max-norm has gone `_NEWTON_STALL` iterations without falling
    below its lowest value so far.  It runs in upwind order, with the
    Jacobian diag(pv) + dt K diag(f_w').  Every column of it sums to
    pv - dt f_w' q_minus >= pv and has its only positive entry on the
    diagonal, so partial pivoting keeps the diagonal pivots; an acyclic
    flow's step is one forward substitution (`_solve_jacobian`).
    """
    pv = (porosity * grid.cell_volume)[flow.order]
    s0 = s0[flow.order]
    s = s0.copy()
    dt_flux = dt * flow.K.data
    best, stalled = np.inf, 0
    for iteration in range(_NEWTON_MAX_ITER):
        fw, dfw = fractional_flow(fluid, np.clip(s, 0.0, 1.0))
        # pv (s - s0) - dt (q_plus - K fw), summed in place
        residual = flow.K @ fw
        residual -= flow.q_plus
        residual *= dt
        residual += pv * (s - s0)
        norm = max(residual.max(), -residual.min())
        if norm <= 1e-10 * max(1.0, s.max(), -s.min()):
            return s[flow.rank], iteration
        if norm < best:
            best, stalled = norm, 0
        else:
            stalled += 1
            if stalled == _NEWTON_STALL:
                raise _NewtonFailure(f"residual stalled at {best:.3e}")
        np.multiply(dt_flux, dfw[flow.columns], out=flow.jacobian.data)
        flow.jacobian.data[flow.diagonal] += pv
        s -= _solve_jacobian(flow, flow.jacobian, residual)
    raise _NewtonFailure(f"no convergence in {_NEWTON_MAX_ITER} iterations")


def transport_step(grid, fluid: FluidModel, state: TransportState,
                   flow: UpwindFlow, dt: float):
    """Advance the saturation by dt with the velocity and wells of
    `flow` held fixed.

    The upwind cell of every face was chosen by `UpwindFlow.build` from
    the sign of the face velocity.  A stalled Newton iteration halves
    the step and retries, up to four times, before giving up.  The
    post-solve clip into [0,1] is recorded on the returned state as
    `bound_violation`; anything beyond roundoff of the Newton tolerance
    indicates a broken scheme rather than a hard problem.
    """
    for halvings in range(5):
        pieces, s, iterations = 2 ** halvings, state.s, 0
        try:
            for _ in range(pieces):
                s, done = _newton_transport(grid, fluid, s, state.porosity,
                                            dt / pieces, flow)
                iterations += done
        except _NewtonFailure:
            continue
        violation = float(max(s.max() - 1.0, -s.min(), 0.0))
        return TransportState(s=np.clip(s, 0.0, 1.0),
                              porosity=state.porosity,
                              time=state.time + dt, dt=dt,
                              bound_violation=violation,
                              newton_iterations=iterations,
                              halvings=halvings)
    raise RuntimeError(f"transport Newton diverged at t={state.time:g} even "
                       f"with dt/{2 ** 4}")


@dataclass(frozen=True)
class IMPESConfig:
    """Knobs for a sequential pressure/transport run.

    Values no run can use, a `kappa` or well cells off `grid` among
    them, raise ValueError here, and the config is frozen so that they
    stay checked; `dataclasses.replace` makes a checked variant.
    """

    grid: object
    kappa: PermeabilityField
    fluid: FluidModel = dataclass_field(default_factory=FluidModel)
    wells: WellConfig | None = None
    dt: float = 1e-3
    n_steps: int = 100
    pressure_interval: int = 50
    space: str = "gmsfem"
    tol: float = GMSFEM_TOL
    porosity: float = 0.2
    settings: SolverSettings = SolverSettings()
    checkpoint_steps: tuple = ()
    rebuild_basis: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"time step dt must be positive and finite, "
                             f"got {self.dt!r}")
        for what, count in (("n_steps", self.n_steps),
                            ("pressure interval", self.pressure_interval)):
            if not is_integer(count) or count < 1:
                raise ValueError(f"{what} must be a whole number of steps, "
                                 f"at least 1, got {count!r}")
        for step in self.checkpoint_steps:
            if not is_integer(step) or not 1 <= step <= self.n_steps:
                raise ValueError(f"checkpoint {step!r} is not a step in "
                                 f"[1, {self.n_steps}]")
        check_space(self.space, self.tol)
        if not (np.isfinite(self.porosity) and 0 < self.porosity <= 1):
            raise ValueError(f"porosity must lie in (0, 1], got "
                             f"{self.porosity!r}")
        if self.kappa.values.size != self.grid.n_cells:
            raise ValueError(f"kappa has {self.kappa.values.size} cells, "
                             f"grid has {self.grid.n_cells}")
        if self.wells is not None:
            self.wells.source_vector(self.grid.n_cells)  # cells on the grid


@dataclass
class IMPESResult:
    states: list
    reports: list
    water_cut: np.ndarray
    checkpoints: dict


def impes_run(config: IMPESConfig) -> IMPESResult:
    """Run the sequential splitting loop.

    The pressure equation is re-solved every `pressure_interval`
    transport steps with the mobility of the current saturation; the
    coarse space comes from the t=0 mobility unless `rebuild_basis`
    asks for a fresh one at every pressure solve.  The t=0 solve
    preprocesses; every later one starts from the previous velocity
    (`pressure_step`'s `start`), with a frozen or a rebuilt basis
    alike.  Water cut is the
    rate-weighted fractional flow over the producer cells, recorded
    after every transport step.
    """
    grid = config.grid
    wells = config.wells or five_spot_wells(grid)
    state = TransportState.initial(grid, porosity=config.porosity)
    state.dt = config.dt

    field = mobility_field(config.kappa, config.fluid, state.s)
    ops = assemble_operators(grid, field)
    basis = build_space(config.space, grid, field, ops, tol=config.tol)

    producer = wells.producer_cells
    weights = np.array([-rate for cell, rate in wells.wells if rate < 0])
    weights /= weights.sum()

    states, reports, cuts, checkpoints = [state], [], [], {}
    v = None
    for step in range(config.n_steps):
        if step % config.pressure_interval == 0:
            # the first pressure solve shares the basis build's operators
            # and with them its block factors
            if ops is None:
                field = mobility_field(config.kappa, config.fluid, state.s)
                ops = assemble_operators(grid, field)
                if config.rebuild_basis:
                    basis = build_space(config.space, grid, field, ops,
                                        tol=config.tol)
            try:
                v, report = pressure_step(ops, basis, wells, config.settings,
                                          start=v)
            except RuntimeError as exc:
                raise RuntimeError(f"step {step} (t={state.time:g}): "
                                   f"{exc}") from exc
            # its factors would stay resident through the transport steps
            ops = None
            reports.append(report)
            flow = UpwindFlow.build(grid, v, wells)
        try:
            state = transport_step(grid, config.fluid, state, flow,
                                   config.dt)
        except RuntimeError as exc:
            raise RuntimeError(f"step {step}: {exc}") from exc
        states.append(state)
        fw, _ = fractional_flow(config.fluid, state.s[producer])
        cuts.append(float(fw @ weights))
        if (step + 1) in config.checkpoint_steps:
            checkpoints[step + 1] = state.s.copy()
    return IMPESResult(states, reports, np.array(cuts), checkpoints)
