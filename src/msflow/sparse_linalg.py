"""Sparse direct and iterative kernels used across the solver stack.

`factor` is the one sparse factorization, and every matrix it gets is
symmetric positive definite: the coarse saddle's velocity block and the
pinned cell Laplacians of pressure recovery and of the smoother boxes.
No saddle system is factored whole; callers reduce it through its Schur
complement.  The exact per-block saddle solves are dense, in `mixed_fem`.

The conjugate gradient solver measures convergence in the natural norm
sqrt(r' M^{-1} r).  With an identity preconditioner this is the plain
Euclidean residual norm; with the two-grid preconditioner it is the
correct residual measure on the divergence-free subspace, where the
unprojected residual stalls at a gradient component by design.  The CG
coefficients feed a Lanczos tridiagonal whose extreme eigenvalues
estimate the condition number of the preconditioned operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal, solve_triangular
from scipy.sparse.linalg import splu


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot too small to trust."""


class PcgBreakdownError(RuntimeError):
    """CG observed curvature or preconditioner output incompatible with
    a symmetric positive definite pair.

    When an iterate exists at the point of failure it is attached as
    the `iterate` attribute.
    """


@dataclass
class SpdFactorization:
    """Sparse LU of an SPD `matrix` scaled to unit diagonal by `scale`
    (diag^-1/2), with refined solves."""

    matrix: sparse.csc_matrix
    scale: np.ndarray
    lu: object

    def solve(self, rhs, refine: int = 1) -> np.ndarray:
        """Solve to LU accuracy, then polish with `refine` residual
        correction passes (cheap: one triangular solve each)."""
        rhs = np.asarray(rhs, dtype=float)
        s = self.scale.reshape((-1,) + (1,) * (rhs.ndim - 1))
        x = s * self.lu.solve(s * rhs)
        for _ in range(refine):
            x += s * self.lu.solve(s * (rhs - self.matrix @ x))
        return x


def factor(matrix) -> SpdFactorization:
    """Factor a symmetric positive definite sparse matrix, scaled to
    unit diagonal, with diagonal pivots in a minimum-degree order of
    A^T + A: the fill depends on the sparsity pattern only.  A pivot
    below 1e-14 of the unit diagonal (a negative one too) and a NaN or
    non-positive diagonal entry, checked before SuperLU runs, raise
    SingularMatrixError.  Symmetry is not checked."""
    matrix = sparse.csc_matrix(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or n == 0:
        raise ValueError(f"matrix is {matrix.shape}, expected square and "
                         "not empty")
    diagonal = matrix.diagonal()
    bad = np.flatnonzero(~(diagonal > 0))
    if len(bad):
        k = int(bad[0])
        raise SingularMatrixError(f"diagonal entry {k} of {n} is "
                                  f"{float(diagonal[k])!r}, not positive")
    scale = 1.0 / np.sqrt(diagonal)
    scaled = matrix.copy()
    scaled.data *= scale[scaled.indices] * np.repeat(scale, np.diff(scaled.indptr))
    try:
        lu = splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as err:
        raise SingularMatrixError(f"sparse LU failed: {err}") from err
    pivots = lu.U.diagonal()
    bad = np.flatnonzero(~(pivots >= 1e-14))
    if len(bad):
        k = int(bad[0])
        raise SingularMatrixError(f"pivot {k} of {n} is {pivots[k]:.3e}, "
                                  "below 1e-14 of the unit diagonal")
    return SpdFactorization(matrix=matrix, scale=scale, lu=lu)


@dataclass
class PcgReport:
    """Iteration record of one preconditioned CG run."""

    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    condition_estimate: float = 1.0
    lanczos: tuple = ()


def condition_estimate(alphas, betas) -> float:
    """Spectral condition estimate from CG coefficients.

    Builds the Lanczos tridiagonal T with T[0,0] = 1/a0,
    T[j,j] = 1/a_j + b_j/a_{j-1} and off-diagonal sqrt(b_j)/a_{j-1};
    its extreme eigenvalues approximate those of the preconditioned
    operator.  Fewer than two iterations give 1.0.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if len(alphas) < 2:
        return 1.0
    diag = np.empty(len(alphas))
    diag[0] = 1.0 / alphas[0]
    diag[1:] = 1.0 / alphas[1:] + betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    ev = eigvalsh_tridiagonal(diag, off)
    lo, hi = float(ev[0]), float(ev[-1])
    if lo <= 0:
        return float("inf")
    return hi / lo


def pcg(apply_operator, apply_preconditioner, rhs, rel_tol: float = 1e-7,
        max_iter: int = 500, abs_floor: float = 0.0):
    """Preconditioned conjugate gradients in the natural norm.

    `apply_operator` and `apply_preconditioner` are callables mapping a
    vector to a vector; both must be symmetric positive definite on the
    subspace containing the right-hand side and all iterates.  Returns
    (solution, PcgReport).  Non-positive curvature or a non-positive
    preconditioned inner product raises PcgBreakdownError, since either
    contradicts the SPD assumption.

    `abs_floor` is an absolute level for the initial natural norm.
    When the preconditioner projects onto a subspace, a right-hand side
    with no component there produces a natural norm made of pure
    roundoff; iterating on it amplifies noise instead of converging.
    Callers that know the roundoff level of their data pass it here and
    such systems stop immediately with the zero solution, whatever the
    sign of the roundoff in the first preconditioned inner product.
    Once CG iterates, it stops only on `rel_tol`.
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    alphas, betas = [], []
    history = []

    z = apply_preconditioner(r)
    rho = float(r @ z)
    if abs(rho) <= abs_floor ** 2:
        report = PcgReport(iterations=0, converged=True,
                           residuals=[1.0 if rho else 0.0])
        return x, report
    if rho < 0:
        raise PcgBreakdownError(
            f"initial preconditioned inner product {rho:.3e} is negative"
        )
    norm0 = np.sqrt(rho)
    history.append(1.0)
    p = z.copy()
    converged = False
    for it in range(1, max_iter + 1):
        Ap = apply_operator(p)
        curvature = float(p @ Ap)
        if curvature <= 0:
            err = PcgBreakdownError(
                f"non-positive curvature {curvature:.3e} at iteration {it}; "
                "operator is not SPD on the iterate subspace"
            )
            err.iterate = x
            raise err
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * Ap
        z = apply_preconditioner(r)
        rho_next = float(r @ z)
        if rho_next < 0:
            err = PcgBreakdownError(
                f"preconditioned inner product {rho_next:.3e} turned "
                f"negative at iteration {it}"
            )
            err.iterate = x
            raise err
        alphas.append(alpha)
        sqrt_rho = np.sqrt(max(rho_next, 0.0))
        history.append(sqrt_rho / norm0)
        if history[-1] <= rel_tol:
            converged = True
            rho = rho_next
            break
        if history[-1] > 1e8:
            err = PcgBreakdownError(
                f"natural-norm residual grew {history[-1]:.1e}-fold by "
                f"iteration {it}; the operator/preconditioner pair is not "
                "behaving as SPD on this right-hand side")
            err.iterate = x
            raise err
        beta = rho_next / rho
        betas.append(beta)
        p = z + beta * p
        rho = rho_next
    report = PcgReport(
        iterations=len(alphas),
        converged=converged,
        residuals=history,
        condition_estimate=condition_estimate(alphas, betas[: len(alphas) - 1]),
        lanczos=(tuple(alphas), tuple(betas)),
    )
    return x, report


def generalized_symmetric_eig(a, s):
    """Dense generalized symmetric eigensolve a x = lambda s x, for one
    pencil (n, n) or a stack (..., n, n).

    `a` must be symmetric positive semidefinite and `s` symmetric
    positive definite; eigenvalues come back ascending with
    s-orthonormal eigenvectors.  Mismatched shapes raise ValueError; an
    `s` that is not numerically positive definite is a numerical
    failure and raises SingularMatrixError.  The reduction is LAPACK's
    sygv, done on the whole stack at once: s = L L^T by Cholesky, the
    standard problem L^-1 a L^-T y = lambda y, and x = L^-T y.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if a.shape != s.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"shape mismatch: a {a.shape}, s {s.shape}")
    try:
        L = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(
            "metric matrix is not positive definite; cannot reduce the "
            "generalized problem"
        ) from err
    L_inv = solve_triangular(L, np.broadcast_to(np.eye(s.shape[-1]), s.shape),
                             lower=True)
    L_inv_T = np.swapaxes(L_inv, -1, -2)
    w, y = np.linalg.eigh(L_inv @ a @ L_inv_T)
    return w, L_inv_T @ y
