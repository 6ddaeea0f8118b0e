"""Two-grid preconditioned CG solver for the mixed velocity system.

The flow problem is solved in two stages.  A preprocessing step produces
a velocity whose divergence matches the source cell by cell, built from
a coarse saddle solve plus independent per-block corrections.  The
remaining divergence-free correction is then computed by CG on the
velocity mass operator, preconditioned with a V-cycle that wraps a
Galerkin coarse correction in colored multiplicative smoothing sweeps
over overlapping blocks.  A caller holding a velocity that already
meets the source divergence, such as the previous IMPES pressure
step's, can start CG from it and skip preprocessing (`solve`'s
`start`), and stop it at the accuracy a cold solve met (`level`).

The smoother's boxes are the coarse blocks grown by `SMOOTHER_OVERLAP`
fine layers: the spectral gmsfem space carries the contrast with one,
rt0 and msfem need two.  The boxes are colored so that those of one
color share no cell; a sweep visits the colors in turn, each solving
its boxes on the residual left by the colors before it (multiplicative
Schwarz, A. Toselli and O. Widlund, Domain Decomposition Methods,
Springer 2005, ch. 2), and the V-cycle sweeps the colors once forward
before the coarse correction and once backward after it, at unit
relaxation; the backward sweep is the forward one's adjoint, so the
cycle is symmetric by construction.  The box saddles are mass-lumped
(`mixed_fem.LumpedBatch`), where the paper solves them exactly.  A
lumped saddle still has a symmetric positive definite mass and the
exact box divergence, so the properties below hold; only the smoother's
spectral quality changes.
Preprocessing and pressure recovery use the lumped saddles of the
non-overlapping blocks.  Every factor is of a positive definite matrix.

Both preconditioner stages return divergence-free velocities and
annihilate discrete gradients, so plain CG updates never leave the
constraint subspace and no explicit projection is needed.  In floating
point the V-cycle annihilates a gradient only to roundoff relative to
it, so a residual that is mostly gradient leaks divergence into CG's
updates; `solve` takes the gradient out of the residual when that leak
shows (`_gradient_fit`).
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .mixed_fem import LumpedBatch, MixedOperators
from .sparse_linalg import PcgBreakdownError, pcg, PcgReport
from .coarse_space import CoarseBasis, CoarseOperator, coarse_operator


def is_integer(value) -> bool:
    """Whether `value` is a whole number type (numpy's too), not bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# the smoother's overlap in fine layers, by coarse space.  Spectral
# coarse spaces make the two-grid bound independent of the contrast, and
# the overlap enters it only through 1 + H/delta, so gmsfem keeps its
# counts at one layer; rt0 and msfem have no spectral modes, and at one
# layer the rt0-2d input gives them condition estimates of 0.7e5..1.3e5
SMOOTHER_OVERLAP = {"gmsfem": 1, "msfem": 2, "rt0": 2}


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the preconditioned solve.

    `overlap` grows the smoother's boxes by that many fine layers for
    every coarse space; None, the default, takes the space's entry in
    `SMOOTHER_OVERLAP` (`smoother_overlap`).  The V-cycle itself has one
    schedule: the lumped mass bounds the exact one from above on every
    box (M_E <= M_L, the eigenvalues of M_L^-1 M_E lie in [1/3, 1]), so
    each color's box solves at unit relaxation contract in the energy
    norm, and the cycle stays positive definite.  Values that cannot
    give a converging solve, and counts that are not integers, raise
    ValueError here; the settings are frozen so that they stay checked.
    """

    rel_tol: float = 1e-7
    max_iter: int = 500
    overlap: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"CG relative tolerance rel_tol must be "
                             f"positive and finite, got {self.rel_tol!r}")
        for name in ("max_iter", "overlap"):
            value = getattr(self, name)
            if not (is_integer(value) or name == "overlap" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ValueError(f"CG needs max_iter of at least 1, got "
                             f"{self.max_iter!r}")
        if self.overlap is not None and self.overlap < 1:
            # without oversampling the block interiors miss every
            # coarse-face dof and the V-cycle goes singular there,
            # stalling CG silently
            raise ValueError("smoother overlap must be at least 1 fine layer")

    def smoother_overlap(self, kind: str) -> int:
        """The smoother's overlap for coarse space `kind`: `overlap`, or
        the space's entry in `SMOOTHER_OVERLAP` when that is None."""
        return SMOOTHER_OVERLAP[kind] if self.overlap is None else self.overlap


@dataclass(eq=False)
class TwoGridPreconditioner:
    """Colored multiplicative block smoother wrapped around a coarse
    correction.

    apply() runs a symmetric V-cycle: one forward smoother sweep, one
    coarse solve, one backward sweep, recomputing the residual between
    stages.  The backward sweep is the energy-norm adjoint of the
    forward one, so the V-cycle is symmetric by construction, and
    positive definite on the divergence-free velocities, which CG
    requires.
    """

    operators: MixedOperators
    coarse: CoarseOperator
    batch: LumpedBatch

    def smooth(self, r: np.ndarray, reverse: bool = False) -> np.ndarray:
        """One sweep from zero over the colors, in reverse order when
        `reverse`: each color adds its box solves of the residual
        r - A z on its own velocities."""
        A, colors = self.operators.A, self.batch.colors
        z = np.zeros_like(r)
        for k, color in enumerate(colors[::-1] if reverse else colors):
            res = r[color.idx] - (A @ z)[color.idx] if k else r[color.idx]
            z[color.idx] += color.solve(res)
        return z

    def coarse_correct(self, r: np.ndarray) -> np.ndarray:
        y_v, _ = self.coarse.solve(self.coarse.P_v_T @ r, None)
        return self.coarse.basis.P_v @ y_v

    def apply(self, r: np.ndarray) -> np.ndarray:
        A = self.operators.A
        z = self.smooth(r)  # the forward sweep's residual is r itself
        z += self.coarse_correct(r - A @ z)
        z += self.smooth(r - A @ z, reverse=True)
        return z


def build_preconditioner(grid, operators: MixedOperators, basis: CoarseBasis,
                         settings: SolverSettings = SolverSettings()):
    return TwoGridPreconditioner(operators, coarse_operator(basis, operators),
                                 operators.smoother(
                                     settings.smoother_overlap(basis.kind)))


def check_source(grid, source) -> np.ndarray:
    """`source` as a float array, or ValueError unless it holds one
    finite rate per cell and integrates to zero: a pure Neumann problem
    is compatible only then."""
    source = np.asarray(source, dtype=float)
    if source.shape != (grid.n_cells,):
        raise ValueError(f"source has shape {source.shape}; expected one "
                         f"value per cell, ({grid.n_cells},)")
    bad = np.flatnonzero(~np.isfinite(source))
    if bad.size:
        raise ValueError(f"source must be finite; cell {bad[0]} has value "
                         f"{float(source[bad[0]])!r}")
    net, gross = float(source.sum()), float(np.abs(source).sum())
    if abs(net) > 1e-12 * max(1.0, gross):
        raise ValueError(
            f"source does not balance: net rate {net:.3e} (gross "
            f"{gross:.3e}); a compatible Neumann problem needs zero net")
    return source


# preprocessing's passes on the disjoint overlap-0 boxes, where A v is
# A v_coarse plus each box's exact mass times its correction.  Per cell
# the exact mass has eigenvalues w/2 and w/6 and the lumped mass w/2, so
# M_E <= M_L <= 3 M_E and I - omega M_L^-1 M_E contracts by 1/2 per pass
# at omega = 3/2: 2^-9 after 9 passes
MASS_DAMPING, MASS_PASSES = 1.5, 9


def _divergence_bound(source: np.ndarray) -> float:
    """The divergence error a solve may leave: 1e-10 max(1, max|source|)."""
    return 1e-10 * max(1.0, float(np.max(np.abs(source))))


# the share of `_divergence_bound` that CG's correction may leak before
# `solve` takes the gradient out of its residual: far below the bound,
# far above the roundoff of a solve that does not drift (about 1e-16)
DRIFT_TRIGGER = 1e-3


@dataclass
class PreprocessResult:
    velocity: np.ndarray
    coarse_velocity: np.ndarray
    divergence_error: float
    coarse_residual: float = 0.0
    block_correction_norms: np.ndarray | None = None


def preprocess(operators: MixedOperators, coarse: CoarseOperator,
               source: np.ndarray) -> PreprocessResult:
    """Velocity matching the source divergence exactly, cell by cell.

    A `source` that `check_source` rejects raises ValueError before any
    solve.  A coarse saddle solve balances the source between blocks;
    a lumped solve of the blocks then absorbs the within-block mismatch,
    and divergence-free passes bring it to the exact-mass solve.  The
    coarse pressure space contains the block indicators, so each local
    problem is compatible by construction; a large block imbalance
    therefore means the coarse solve itself went wrong and is treated as
    fatal.
    """
    source = check_source(operators.grid, source)
    rhs_p = coarse.basis.P_p.T @ source
    y_v, y_p = coarse.solve(None, rhs_p)
    v_coarse = coarse.basis.P_v @ y_v
    coarse_residual = float(np.max(np.abs(np.concatenate(
        coarse.residual(y_v, y_p, 0.0, rhs_p)))))

    bound = _divergence_bound(source)
    residual = source - operators.B @ v_coarse
    batch = operators.smoother(0)
    imbalance = np.abs(batch.box_sums(residual[batch.pressure_idx]))
    over = imbalance > bound * batch.counts
    if over.any():
        block = int(np.argmax(over))
        raise RuntimeError(
            f"block {block} source imbalance {imbalance[block]:.3e} after "
            f"the coarse solve; the coarse pressure space is inconsistent")
    # the overlap-0 boxes are disjoint: their velocities never repeat
    A, idx = operators.A, batch.velocity_idx
    v = v_coarse.copy()
    v[idx] += batch.solve(-(A @ v_coarse), residual)
    for _ in range(MASS_PASSES):
        v[idx] += MASS_DAMPING * batch.solve(-(A @ v))
    norms = np.sqrt(np.bincount(
        batch.velocity_box, weights=(v - v_coarse)[batch.velocity_idx] ** 2,
        minlength=len(batch.counts)))

    err = float(np.max(np.abs(operators.B @ v - source)))
    if err > bound:
        raise RuntimeError(f"preprocessing left divergence error {err:.3e}")
    return PreprocessResult(v, v_coarse, err, coarse_residual, norms)


def check_start(operators: MixedOperators, source: np.ndarray,
                start) -> np.ndarray:
    """`start` as a float array, or ValueError unless it holds one
    finite value per velocity dof and meets the checked `source`
    divergence to within `_divergence_bound`."""
    start = np.asarray(start, dtype=float)
    n = operators.grid.n_velocity
    if start.shape != (n,):
        raise ValueError(f"start velocity has shape {start.shape}; expected "
                         f"one value per velocity dof, ({n},)")
    bad = np.flatnonzero(~np.isfinite(start))
    if bad.size:
        raise ValueError(f"start velocity must be finite; dof {bad[0]} has "
                         f"value {float(start[bad[0]])!r}")
    err = float(np.max(np.abs(operators.B @ start - source)))
    if err > _divergence_bound(source):
        raise ValueError(f"start velocity misses the source divergence by "
                         f"{err:.3e}")
    return start


@dataclass
class SolveResult:
    velocity: np.ndarray
    report: PcgReport
    pressure: np.ndarray | None = None
    divergence_error: float = 0.0


def solve(grid, operators: MixedOperators, basis: CoarseBasis,
          source: np.ndarray, settings: SolverSettings = SolverSettings(),
          with_pressure: bool = False,
          preconditioner: TwoGridPreconditioner | None = None,
          start: np.ndarray | None = None,
          level: float | None = None) -> SolveResult:
    """Full velocity solve: preprocessing plus preconditioned CG.

    CG runs on the mass operator restricted to divergence-free
    velocities, starting from the preprocessed field; the reported
    residual history is in the preconditioner norm, relative to the
    first residual.  A `start` velocity that already meets the source
    divergence takes the place of preprocessing: CG corrections are
    divergence free, so CG starts from `start` as it is.

    Stopping at `rel_tol` relative to the first residual r0 over-solves
    from a good start, whose r0 is already small.  With energy
    E = start' A start, a solve given no `level` that iterates records
    the dimensionless level kappa = |r0| / sqrt(E) it met as
    `report.level`.  A solve given `level` = kappa instead stops once
    its natural-norm residual is at most rel_tol kappa sqrt(E) of its
    own start (`pcg`'s `reference`): the relative energy accuracy of
    the solve that recorded kappa, as the natural norm scales with
    sqrt(E) when the coefficient moves.  A start already below that
    level returns the zero correction.  Once CG's correction leaks
    `DRIFT_TRIGGER` of `_divergence_bound` off the divergence, and again
    each time that leak doubles, CG's residual loses its discrete
    gradient (`_gradient_fit`; `report.fits` counts these).  A bad `source`, or a
    `start` of the wrong shape, with a non-finite entry or off the
    source divergence by more than `_divergence_bound`, raises
    ValueError before any factor is built, a `preconditioner` of other
    `operators` or `basis` before any solve.  A CG that stops at
    `max_iter` short of `rel_tol` raises RuntimeError, naming the
    divergence error it left; so does a velocity whose divergence strays
    from the source by more than `_divergence_bound`.
    """
    source = check_source(grid, source)
    if start is not None:
        start = check_start(operators, source, start)
    if preconditioner is None:
        preconditioner = build_preconditioner(grid, operators, basis, settings)
    elif (preconditioner.operators is not operators
          or preconditioner.coarse.basis is not basis):
        raise ValueError("the preconditioner was built on other operators "
                         "or another coarse basis")
    if start is None:
        start = preprocess(operators, preconditioner.coarse, source).velocity

    A = operators.A
    rhs = -(A @ start)
    # when the starting field already solves the momentum equation, the
    # rhs is a pure discrete gradient and its natural norm is all
    # roundoff; CG then returns the zero correction without iterating
    energy = max(float(-(start @ rhs)), 0.0)
    floor = 4.0 * np.sqrt(np.finfo(float).eps * energy)
    B, trigger = operators.B, DRIFT_TRIGGER * _divergence_bound(source)

    def drop_gradient(w, r):
        # CG's correction w should stay divergence free; once it has
        # leaked past the trigger, the gradient goes out of r, and the
        # trigger doubles, so a leak that stays put fits once
        nonlocal trigger
        leak = float(np.max(np.abs(B @ w)))
        if leak <= trigger:
            return None
        trigger = 2.0 * leak
        return r - B.T @ _gradient_fit(operators, preconditioner.coarse, r)

    reference = None if level is None else level * np.sqrt(energy)
    try:
        w, report = pcg(lambda x: A @ x, preconditioner.apply, rhs,
                        rel_tol=settings.rel_tol, max_iter=settings.max_iter,
                        abs_floor=floor, residual_hook=drop_gradient,
                        reference=reference)
    except PcgBreakdownError as exc:
        iterate = getattr(exc, "iterate", None)
        if iterate is not None:
            div = float(np.max(np.abs(operators.B @ iterate)))
            raise PcgBreakdownError(
                f"{exc}; iterate divergence norm {div:.3e}") from exc
        raise
    if level is None and report.iterations:
        report.level = float(report.norm0 / np.sqrt(energy))
    v = start + w
    result = SolveResult(v, report)
    result.divergence_error = float(np.max(np.abs(operators.B @ v - source)))
    if not report.converged:
        raise RuntimeError(
            f"solve stalled after {report.iterations} iterations at "
            f"relative residual {report.residuals[-1]:.3e} (divergence "
            f"error {result.divergence_error:.3e})")
    if result.divergence_error > _divergence_bound(source):
        raise RuntimeError(
            f"CG left divergence error {result.divergence_error:.3e} after "
            f"{report.iterations} iterations")
    if with_pressure:
        result.pressure = recover_pressure(operators, preconditioner.coarse, v)
    return result


def _gradient_fit(operators: MixedOperators, coarse: CoarseOperator,
                  a: np.ndarray) -> np.ndarray:
    """Cell pressures q whose discrete gradient B^T q fits the velocity
    vector `a`: the lumped saddles of the coarse blocks fit q inside
    each block up to a constant, and the `coarse` saddle on what is left
    gives the block constants.  Exact when `a` is a discrete gradient,
    otherwise a least-squares fit weighted by those solves."""
    B, batch = operators.B, operators.smoother(0)
    q = np.zeros(B.shape[0])
    q[batch.pressure_idx] = batch.pressure(a)
    _, q_H = coarse.solve(coarse.P_v_T @ (a - B.T @ q), None)
    return q + coarse.basis.P_p @ q_H


def recover_pressure(operators: MixedOperators, coarse: CoarseOperator,
                     v: np.ndarray) -> np.ndarray:
    """Zero-mean cell pressures from the momentum balance  B^T p = -A v,
    by `_gradient_fit`: exact for a converged v."""
    Av = operators.A @ v
    p = _gradient_fit(operators, coarse, -Av)
    p -= p.mean()
    momentum = np.linalg.norm(Av + operators.B.T @ p) / max(
        np.linalg.norm(Av), 1e-300)
    if momentum > 1e-5:
        warnings.warn(f"pressure recovery relative momentum residual "
                      f"{momentum:.3e} exceeds 1e-5; the velocity is "
                      f"probably not converged", RuntimeWarning)
    return p
