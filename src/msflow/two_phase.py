"""Sequential two-phase flow: pressure solves plus implicit transport.

Pressure and saturation are split in time.  The total velocity comes
from the preconditioned mixed solver with the permeability scaled by
the current total mobility; the water saturation is then advanced by an
implicit upwind finite-volume step solved with Newton's method.  The
multiscale coarse space is built once from the initial mobility field
and kept frozen; only its Galerkin projection is refreshed when the
mobility changes.

The velocity is fixed between pressure solves, so everything the
transport step needs from it is built once per pressure solve as an
`UpwindFlow`: the upwind and downwind cell of every moving face, the
well rates, and an upwind order of the cells, in which every cell
comes after the cells that feed it (Kwok & Tchelepi, JCP 227, 2007;
Natvig & Lie, JCP 227, 2008).  In that order the Newton Jacobian of an
acyclic flow is lower triangular, so each Newton iteration only fills
the values of one fixed sparse pattern and factors it without fill; a
circulating flow keeps each cycle together as one block and gets fill
inside it only.
"""

import numbers
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import mesh
from .mixed_fem import PermeabilityField, assemble_operators
from .coarse_space import build_space, coarse_operator
from .preconditioner import SolverSettings, build_preconditioner, solve


@dataclass
class FluidModel:
    """Two-phase fluid with power-law relative permeabilities.

    Defaults are quadratic curves with water viscosity 1 and oil
    viscosity 5.  Rates are volumetric throughout (unit water density).
    """

    mu_w: float = 1.0
    mu_o: float = 5.0
    exp_w: float = 2.0
    exp_o: float = 2.0

    def __post_init__(self):
        if self.mu_w <= 0 or self.mu_o <= 0:
            raise ValueError(f"viscosities must be positive, got "
                             f"mu_w={self.mu_w} mu_o={self.mu_o}")

    def k_rw(self, s):
        return np.power(s, self.exp_w)

    def k_ro(self, s):
        return np.power(1.0 - s, self.exp_o)

    def k_rw_prime(self, s):
        return self.exp_w * np.power(s, self.exp_w - 1.0)

    def k_ro_prime(self, s):
        return -self.exp_o * np.power(1.0 - s, self.exp_o - 1.0)


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
            if (not isinstance(cell, numbers.Integral) or
                    isinstance(cell, bool) or not 0 <= cell < n_cells):
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

    Each corner injects rate/4.  On even grids there is no single
    centre cell, so the producer is split evenly over the central
    2 or 4 or 8 cells; this keeps the pattern exactly symmetric under
    the grid's reflections, which the transport tests rely on.
    """
    corners = []
    for k in range(2 ** grid.dim):
        multi = [(grid.fine[a] - 1) if (k >> a) & 1 else 0
                 for a in range(grid.dim)]
        corners.append(int(mesh.cell_ids(grid, np.array(multi))))
    centre_axes = []
    for a in range(grid.dim):
        na = grid.fine[a]
        centre_axes.append([na // 2] if na % 2 else [na // 2 - 1, na // 2])
    centre = []
    for multi in np.array(np.meshgrid(*centre_axes, indexing="ij")
                          ).reshape(grid.dim, -1).T:
        centre.append(int(mesh.cell_ids(grid, multi)))
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
    def initial(cls, grid, porosity: float = 0.2, s0: float = 0.0):
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
    return fluid.k_rw(s) / fluid.mu_w + fluid.k_ro(s) / fluid.mu_o


def fractional_flow(fluid: FluidModel, s):
    """Water flux fraction and its saturation derivative.

    f_w = (k_rw/mu_w) / (k_rw/mu_w + k_ro/mu_o), differentiated by the
    quotient rule so the transport Jacobian is exact.
    """
    s = np.asarray(s, dtype=float)
    a = fluid.k_rw(s) / fluid.mu_w
    b = fluid.k_ro(s) / fluid.mu_o
    da = fluid.k_rw_prime(s) / fluid.mu_w
    db = fluid.k_ro_prime(s) / fluid.mu_o
    lam = a + b
    fw = a / lam
    dfw = (da * b - a * db) / (lam * lam)
    return fw, dfw


def pressure_step(grid, kappa: PermeabilityField, fluid: FluidModel,
                  state: TransportState, basis, wells: WellConfig,
                  settings: SolverSettings | None = None):
    """Total-velocity solve with the mobility-scaled permeability.

    The coarse basis is whatever the caller froze; only the coarse
    Galerkin operator and the block factorizations see the updated
    coefficient.  Returns (velocity, PcgReport).
    """
    lam = total_mobility(fluid, state.s)
    mobile = PermeabilityField(values=kappa.values, mobility=lam)
    ops = assemble_operators(grid, mobile)
    coarse = coarse_operator(basis, ops)
    precond = build_preconditioner(grid, ops, basis, settings, coarse=coarse)
    f = wells.source_vector(grid.n_cells)
    try:
        result = solve(grid, ops, basis, f, settings, preconditioner=precond)
    except RuntimeError as exc:
        raise RuntimeError(f"pressure solve failed at t={state.time:g}: "
                           f"{exc}") from exc
    if not result.report.converged:
        raise RuntimeError(
            f"pressure solve stalled at t={state.time:g}: "
            f"{result.report.iterations} iterations reached relative "
            f"residual {result.report.residuals[-1]:.3e}")
    return result.velocity, result.report


@dataclass
class UpwindFlow:
    """What the implicit upwind step needs from one fixed velocity.

    Faces with zero flux are dropped.  Every other face appears twice
    as a flux term, once for each adjacent cell: cell `rows[k]` loses
    `flux[k] * f_w(s[cols[k]])` of water per unit time, where `cols[k]`
    is the upwind cell of the face (lower cells first, then upper
    cells).  `order` lists the cells so that every upwind cell comes
    before the cells it feeds, with each cycle of the upwind graph kept
    together; `rank` is its inverse.  `indptr` and `indices` are the
    CSC pattern of the Jacobian in that order, and `slots` gives the
    data position of every flux term and then of every cell's diagonal.
    """

    rows: np.ndarray
    cols: np.ndarray
    flux: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    @classmethod
    def build(cls, grid, v: np.ndarray, wells: WellConfig) -> "UpwindFlow":
        # imported on first use: csgraph adds ~0.8 MB of resident memory
        # to every process, also to those that never run transport
        from scipy.sparse.csgraph import connected_components

        n = grid.n_cells
        areas = np.repeat([grid.face_area(a) for a in range(grid.dim)],
                          [grid.axis_face_count(a) for a in range(grid.dim)])
        faces = np.flatnonzero(v)
        lo, hi = mesh.face_adjacent_cells(grid, faces)
        rate = v[faces] * areas[faces]
        upwind = np.where(rate > 0.0, lo, hi)
        graph = sparse.csr_matrix(
            (np.ones(len(faces)), (upwind, lo + hi - upwind)), shape=(n, n))
        _, labels = connected_components(graph, connection="strong")
        # scipy numbers the strong components of a graph sinks first, so
        # descending labels put every group after the groups feeding it
        order = np.argsort(-labels, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        rows = np.concatenate([lo, hi])
        cols = np.concatenate([upwind, upwind])
        cells = np.arange(n)
        keys, slots = np.unique(rank[np.concatenate([cols, cells])] * n +
                                rank[np.concatenate([rows, cells])],
                                return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        q_plus, q_minus = wells.split(n)
        return cls(rows=rows, cols=cols, flux=np.concatenate([rate, -rate]),
                   q_plus=q_plus, q_minus=q_minus, order=order, rank=rank,
                   indptr=indptr, indices=keys % n, slots=slots)

    def jacobian(self, dt: float, dfw: np.ndarray,
                 pv: np.ndarray) -> sparse.csc_matrix:
        """Residual Jacobian for f_w' = `dfw`, rows and columns in `order`.

        Every column sums to pv - dt * dfw * q_minus >= pv and its only
        positive entry is the diagonal, so the matrix is strictly
        column diagonally dominant: partial pivoting keeps the diagonal
        pivots, and an acyclic flow factors without fill.
        """
        values = np.concatenate([dt * self.flux * dfw[self.cols],
                                 pv - dt * dfw * self.q_minus])
        data = np.bincount(self.slots, weights=values,
                           minlength=len(self.indices))
        n = len(pv)
        return sparse.csc_matrix((data, self.indices, self.indptr),
                                 shape=(n, n))


class _NewtonFailure(Exception):
    pass


def _newton_transport(grid, fluid: FluidModel, s0, porosity, v, wells, dt,
                      flow: UpwindFlow, max_iter: int = 25):
    """One implicit upwind step for the velocity `v` and `wells`, as
    prebuilt in `flow`.

    Returns (saturation, Newton iterations); raises _NewtonFailure when
    stuck.
    """
    n = grid.n_cells
    pv = porosity * grid.cell_volume
    s = s0
    for iteration in range(max_iter):
        fw, dfw = fractional_flow(fluid, np.clip(s, 0.0, 1.0))
        net_out = np.bincount(flow.rows, weights=flow.flux * fw[flow.cols],
                              minlength=n)
        residual = pv * (s - s0) - dt * (flow.q_plus - net_out +
                                         fw * flow.q_minus)
        scale = max(1.0, float(np.max(np.abs(s))))
        if float(np.max(np.abs(residual))) <= 1e-10 * scale:
            return s, iteration
        lu = splu(flow.jacobian(dt, dfw, pv), permc_spec="NATURAL")
        s = s - lu.solve(residual[flow.order])[flow.rank]
    raise _NewtonFailure(f"no convergence in {max_iter} iterations")


def transport_step(grid, fluid: FluidModel, state: TransportState,
                   v: np.ndarray, wells: WellConfig, dt: float,
                   flow: UpwindFlow | None = None):
    """Advance the saturation by dt with the velocity held fixed.

    The upwind cell of every face is chosen by the sign of the face
    velocity; `flow` holds that choice when the caller has built it for
    `v` and `wells` already, otherwise it is built here.  A stalled
    Newton iteration halves the step and retries, up to four times,
    before giving up.  The post-solve clip into [0,1] is recorded on
    the returned state as `bound_violation`; anything beyond roundoff of
    the Newton tolerance indicates a broken scheme rather than a hard
    problem.
    """
    if flow is None:
        flow = UpwindFlow.build(grid, v, wells)
    for halvings in range(5):
        pieces = 2 ** halvings
        s = state.s
        iterations = 0
        try:
            for _ in range(pieces):
                s, done = _newton_transport(grid, fluid, s, state.porosity,
                                            v, wells, dt / pieces, flow)
                iterations += done
        except _NewtonFailure:
            continue
        violation = float(np.max(np.maximum(s - 1.0, 0.0) +
                                 np.maximum(-s, 0.0)))
        return TransportState(s=np.clip(s, 0.0, 1.0),
                              porosity=state.porosity,
                              time=state.time + dt, dt=dt,
                              bound_violation=violation,
                              newton_iterations=iterations,
                              halvings=halvings)
    raise RuntimeError(f"transport Newton diverged at t={state.time:g} even "
                       f"with dt/{2 ** 4}")


@dataclass
class IMPESConfig:
    """Knobs for a sequential pressure/transport run."""

    grid: object
    kappa: PermeabilityField
    fluid: FluidModel = dataclass_field(default_factory=FluidModel)
    wells: WellConfig | None = None
    dt: float = 1e-3
    n_steps: int = 100
    pressure_interval: int = 50
    space: str = "gmsfem"
    tol: float = 10.0
    porosity: float = 0.2
    settings: SolverSettings | None = None
    checkpoint_steps: tuple = ()
    rebuild_basis: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"time step dt must be positive and finite, "
                             f"got {self.dt!r}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one transport step, got "
                             f"n_steps={self.n_steps}")
        if self.pressure_interval < 1:
            raise ValueError(f"pressure interval must be at least 1 step, "
                             f"got {self.pressure_interval}")


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
    asks for a fresh one at every pressure solve.  Water cut is the
    rate-weighted fractional flow over the producer cells, recorded
    after every transport step.
    """
    grid = config.grid
    wells = config.wells or five_spot_wells(grid)
    state = TransportState.initial(grid, porosity=config.porosity)
    state.dt = config.dt

    lam0 = total_mobility(config.fluid, state.s)
    field0 = PermeabilityField(values=config.kappa.values, mobility=lam0)
    basis = build_space(config.space, grid, field0,
                        assemble_operators(grid, field0), tol=config.tol)

    producer = wells.producer_cells
    weights = np.array([-rate for cell, rate in wells.wells if rate < 0])
    weights /= weights.sum()

    states = [state]
    reports = []
    cuts = []
    checkpoints = {}
    v = flow = None
    for step in range(config.n_steps):
        if step % config.pressure_interval == 0:
            if config.rebuild_basis and step > 0:
                lam = total_mobility(config.fluid, state.s)
                fld = PermeabilityField(values=config.kappa.values,
                                        mobility=lam)
                basis = build_space(config.space, grid, fld,
                                    assemble_operators(grid, fld),
                                    tol=config.tol)
            try:
                v, report = pressure_step(grid, config.kappa, config.fluid,
                                          state, basis, wells,
                                          config.settings)
            except RuntimeError as exc:
                raise RuntimeError(f"step {step}: {exc}") from exc
            reports.append(report)
            flow = UpwindFlow.build(grid, v, wells)
        try:
            state = transport_step(grid, config.fluid, state, v, wells,
                                   config.dt, flow)
        except RuntimeError as exc:
            raise RuntimeError(f"step {step}: {exc}") from exc
        states.append(state)
        fw, _ = fractional_flow(config.fluid, state.s[producer])
        cuts.append(float(fw @ weights))
        if (step + 1) in config.checkpoint_steps:
            checkpoints[step + 1] = state.s.copy()
    return IMPESResult(states, reports, np.array(cuts), checkpoints)
