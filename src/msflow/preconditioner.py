"""Two-grid preconditioned CG solver for the mixed velocity system.

The flow problem is solved in two stages.  A preprocessing step produces
a velocity whose divergence matches the source cell by cell, built from
a coarse saddle solve plus independent per-block corrections.  The
remaining divergence-free correction is then computed by CG on the
velocity mass operator, preconditioned with a V-cycle that combines an
additive overlapping-block smoother with a Galerkin coarse correction.

The smoother's local saddles are mass-lumped (`mixed_fem.LumpedBatch`),
where the paper solves them exactly.  A lumped saddle still has a
symmetric positive definite mass and the exact box divergence, so the
properties below hold; only the smoother's spectral quality changes.
Preprocessing and pressure recovery reuse the exact solves on the
non-overlapping blocks.  Every factor is of a positive definite matrix.

Both preconditioner stages return divergence-free velocities and
annihilate discrete gradients, so plain CG updates never leave the
constraint subspace and no explicit projection is needed.
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


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the preconditioned solve.

    `eta` damps the additive smoother.  With up to 2**d overlapping
    regions covering a dof, eta <= 2**-d keeps it a contraction; the
    default 0.2 meets that in 2D only, so in 3D criterion 3 and
    `test_vcycle_symmetric_3d_high_contrast` check positivity.  `sweeps`
    smoother sweeps run before and after the coarse correction.  Values
    that cannot give a converging solve, and counts that are not
    integers, raise ValueError here; the settings are frozen so that
    they stay checked.
    """

    rel_tol: float = 1e-7
    max_iter: int = 500
    eta: float = 0.2
    sweeps: int = 1
    overlap: int = 2

    def __post_init__(self):
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"CG relative tolerance rel_tol must be "
                             f"finite and not negative, got {self.rel_tol!r}")
        for name in ("max_iter", "sweeps", "overlap"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if self.max_iter < 1:
            raise ValueError(f"CG needs max_iter of at least 1, got "
                             f"{self.max_iter!r}")
        if self.overlap < 1:
            # without oversampling the block interiors miss every
            # coarse-face dof and the V-cycle goes singular there,
            # stalling CG silently
            raise ValueError("smoother overlap must be at least 1 fine layer")
        if self.sweeps < 1:
            raise ValueError(
                "CG needs a positive definite V-cycle; use at least 1 "
                "smoother sweep")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(
                f"smoother damping eta must be positive and finite, got "
                f"{self.eta!r}")


@dataclass(eq=False)
class TwoGridPreconditioner:
    """Additive block smoother wrapped around a coarse correction.

    apply() runs a symmetric V-cycle: `sweeps` damped smoother sweeps,
    one coarse solve, `sweeps` more, recomputing the residual between
    stages.  Equal sweep counts on both sides keep the operator
    symmetric positive definite, which CG requires.
    """

    operators: MixedOperators
    coarse: CoarseOperator
    batch: LumpedBatch
    eta: float
    sweeps: int

    def smooth(self, r: np.ndarray) -> np.ndarray:
        """One damped additive sweep: sum of the lumped local saddle
        solves of r, all boxes in one block-diagonal solve."""
        return self.batch.scatter(self.eta * self.batch.solve(r))

    def coarse_correct(self, r: np.ndarray) -> np.ndarray:
        y_v, _ = self.coarse.solve(self.coarse.P_v_T @ r, None)
        return self.coarse.basis.P_v @ y_v

    def apply(self, r: np.ndarray) -> np.ndarray:
        A = self.operators.A
        z = self.smooth(r)  # the first sweep's residual is r itself
        for _ in range(self.sweeps - 1):
            z += self.smooth(r - A @ z)
        z += self.coarse_correct(r - A @ z)
        for _ in range(self.sweeps):
            z += self.smooth(r - A @ z)
        return z


def build_preconditioner(grid, operators: MixedOperators, basis: CoarseBasis,
                         settings: SolverSettings = SolverSettings()):
    return TwoGridPreconditioner(operators, coarse_operator(basis, operators),
                                 operators.smoother(settings.overlap),
                                 settings.eta, settings.sweeps)


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


def _divergence_bound(source: np.ndarray) -> float:
    """The divergence error a solve may leave: 1e-10 max(1, max|source|)."""
    return 1e-10 * max(1.0, float(np.max(np.abs(source))))


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
    local block solves then absorb the within-block mismatch.  The
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
    Av = operators.A @ v_coarse
    batch = operators.batch()
    imbalance = np.abs(batch.box_sums(residual[batch.pressure_idx]))
    over = imbalance > bound * batch.counts
    if over.any():
        block = int(np.argmax(over))
        raise RuntimeError(
            f"block {block} source imbalance {imbalance[block]:.3e} after "
            f"the coarse solve; the coarse pressure space is inconsistent")
    corrections = batch.solve(-Av, residual)
    norms = np.sqrt(np.bincount(batch.velocity_box, weights=corrections ** 2,
                                minlength=len(batch.counts)))
    v = v_coarse + batch.scatter(corrections)

    err = float(np.max(np.abs(operators.B @ v - source)))
    if err > bound:
        raise RuntimeError(f"preprocessing left divergence error {err:.3e}")
    return PreprocessResult(v, v_coarse, err, coarse_residual, norms)


@dataclass
class SolveResult:
    velocity: np.ndarray
    report: PcgReport
    pressure: np.ndarray | None = None
    divergence_error: float = 0.0


def solve(grid, operators: MixedOperators, basis: CoarseBasis,
          source: np.ndarray, settings: SolverSettings = SolverSettings(),
          with_pressure: bool = False,
          preconditioner: TwoGridPreconditioner | None = None) -> SolveResult:
    """Full velocity solve: preprocessing plus preconditioned CG.

    CG runs on the mass operator restricted to divergence-free
    velocities, starting from the preprocessed field; the reported
    residual history is in the preconditioner norm, relative to the
    first residual.  A bad `source` raises ValueError before any factor
    is built, a `preconditioner` of other `operators` or `basis` before
    any solve.  A velocity whose divergence strays from the source by
    more than `_divergence_bound` raises RuntimeError, and so does a CG
    that stops at `max_iter` short of `rel_tol`.
    """
    source = check_source(grid, source)
    if preconditioner is None:
        preconditioner = build_preconditioner(grid, operators, basis, settings)
    elif (preconditioner.operators is not operators
          or preconditioner.coarse.basis is not basis):
        raise ValueError("the preconditioner was built on other operators "
                         "or another coarse basis")
    pre = preprocess(operators, preconditioner.coarse, source)

    A = operators.A
    rhs = -(A @ pre.velocity)
    # when the preprocessed field already solves the momentum equation,
    # the rhs is a pure discrete gradient and its natural norm is all
    # roundoff; CG then returns the zero correction without iterating
    energy = max(float(-(pre.velocity @ rhs)), 0.0)
    floor = 4.0 * np.sqrt(np.finfo(float).eps * energy)
    try:
        w, report = pcg(lambda x: A @ x, preconditioner.apply, rhs,
                        rel_tol=settings.rel_tol, max_iter=settings.max_iter,
                        abs_floor=floor)
    except PcgBreakdownError as exc:
        iterate = getattr(exc, "iterate", None)
        if iterate is not None:
            div = float(np.max(np.abs(operators.B @ iterate)))
            raise PcgBreakdownError(
                f"{exc}; iterate divergence norm {div:.3e}") from exc
        raise
    v = pre.velocity + w
    result = SolveResult(v, report)
    result.divergence_error = float(np.max(np.abs(operators.B @ v - source)))
    if result.divergence_error > _divergence_bound(source):
        raise RuntimeError(
            f"CG left divergence error {result.divergence_error:.3e} after "
            f"{report.iterations} iterations")
    if not report.converged:
        raise RuntimeError(
            f"solve stalled after {report.iterations} iterations at "
            f"relative residual {report.residuals[-1]:.3e}")
    if with_pressure:
        result.pressure = recover_pressure(operators, preconditioner.coarse, v)
    return result


def recover_pressure(operators: MixedOperators, coarse: CoarseOperator,
                     v: np.ndarray) -> np.ndarray:
    """Zero-mean cell pressures from the momentum balance  B^T p = -A v.

    The exact box saddles of the coarse blocks, with right-hand side
    -A v, give p inside each block up to its mean; the `coarse` saddle
    on the momentum residual left gives the block means.  Exact for a
    converged v, otherwise a least-squares fit weighted by those solves.
    """
    B, basis, batch = operators.B, coarse.basis, operators.batch()
    Av = operators.A @ v
    p = np.zeros(B.shape[0])
    _, p_box, _ = batch.solve_core(-Av[batch.velocity_idx, None], 0, 0)
    p[batch.pressure_idx] = p_box[:, 0]
    _, p_H = coarse.solve(-(coarse.P_v_T @ (Av + B.T @ p)), None)
    p += basis.P_p @ p_H
    p -= p.mean()
    momentum = np.linalg.norm(Av + B.T @ p) / max(np.linalg.norm(Av), 1e-300)
    if momentum > 1e-5:
        warnings.warn(f"pressure recovery relative momentum residual "
                      f"{momentum:.3e} exceeds 1e-5; the velocity is "
                      f"probably not converged", RuntimeWarning)
    return p
