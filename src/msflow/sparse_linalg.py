"""Direct and iterative kernels used across the solver stack.

One factorization per role.  `factor`, banded, serves the lumped boxes:
the pinned cell Laplacian of each color of boxes, whose F-ordered cells
put its bandwidth at a box's extents multiplied over all axes but the
last.  `inverse_cholesky`, dense, serves every exact solve: the box
saddles in `mixed_fem` and the coarse saddle in `coarse_space`.  No
saddle system is factored whole; callers reduce it through its Schur
complement.

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
from scipy.linalg import eigvalsh_tridiagonal, lapack, solve_triangular
from scipy.linalg.lapack import dpbtrf, dpbtrs


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot too small to trust."""


class PcgBreakdownError(RuntimeError):
    """CG observed curvature or preconditioner output incompatible with
    a symmetric positive definite pair.

    When an iterate exists at the point of failure it is attached as
    the `iterate` attribute.
    """


class BandCholesky:
    """A = L L^T, L in LAPACK's lower band storage: band[i - j, j] is
    L[i, j].  `nnz` counts the stored entries."""

    def __init__(self, band):
        self.band, self.nnz = band, band.size

    def solve(self, b) -> np.ndarray:
        """A^-1 b for b (n,) or (n, k)."""
        return dpbtrs(self.band, b, lower=1)[0]


@dataclass
class SpdFactorization:
    """Banded Cholesky factor `lu` of an SPD matrix A scaled to unit
    diagonal by `scale` = diag(A)^-1/2: A^-1 x = scale * lu.solve(scale * x).
    A box Laplacian's band is the product of the box's extents over all
    axes but the last."""

    scale: np.ndarray
    lu: BandCholesky


def factor(matrix) -> SpdFactorization:
    """Banded Cholesky (LAPACK's pbtrf; A. George and J. Liu, *Computer
    Solution of Large Sparse Positive Definite Systems*, 1981) of an SPD
    matrix scaled to unit diagonal, in the given order, its band reaching
    the farthest entry: on a box Laplacian, the product of the box's
    extents over all axes but the last.  `matrix` is sparse or dense (its
    lower triangle is read), or that triangle as (diagonal, rows, cols,
    values) with rows > cols and no entry repeated.  A NaN or non-positive
    diagonal entry, checked before LAPACK runs, or a pivot (a squared
    diagonal entry of L) below 1e-14, raises SingularMatrixError."""
    if not isinstance(matrix, tuple):
        matrix = sparse.csr_matrix(matrix, dtype=float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix is {matrix.shape}, expected square")
        lower = sparse.tril(matrix, -1, format="coo")
        matrix = (matrix.diagonal(), lower.row, lower.col, lower.data)
    diagonal, rows, cols, values = matrix
    n = len(diagonal)
    if n == 0:
        raise ValueError("matrix is empty")
    bad = np.flatnonzero(~(diagonal > 0))
    if len(bad):
        k = int(bad[0])
        raise SingularMatrixError(f"diagonal entry {k} of {n} is "
                                  f"{float(diagonal[k])!r}, not positive")
    scale = 1.0 / np.sqrt(diagonal)
    offset = rows - cols
    band = np.zeros((int(offset.max(initial=0)) + 1, n), order="F")
    # the diagonal is scaled, not set to 1: away from the pin, the late
    # pivots are what is left of the cancelling row sums
    band[0] = diagonal * scale * scale
    band[offset, cols] = values * (scale[rows] * scale[cols])
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    pivots = band[0, :info or n] ** 2
    if info:  # LAPACK stops at the failed pivot and leaves it unrooted
        pivots[-1] = band[0, info - 1]
    bad = np.flatnonzero(~(pivots >= 1e-14))
    if len(bad):
        k = int(bad[0])
        raise SingularMatrixError(f"pivot {k} of {n} is {pivots[k]:.3e}, "
                                  "below 1e-14 of the unit diagonal")
    return SpdFactorization(scale=scale, lu=BandCholesky(band))


def inverse_cholesky(s, what: str) -> np.ndarray:
    """L^-1 for s = L L^T, s dense SPD (only its lower triangle is read).
    LAPACK's trtri inverts L: a triangular solve on the identity rounds
    worse, and raised the gmsfem divergence on 1e+-10 bands from 4.5e-11
    to 7.2e-11.  SingularMatrixError names `what`."""
    try:
        L = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"{what} is not positive definite "
                                  f"({err})") from err
    return lapack.dtrtri(L, lower=1)[0]


@dataclass
class PcgReport:
    """Iteration record of one preconditioned CG run."""

    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    condition_estimate: float = 1.0
    lanczos: tuple = ()
    fits: int = 0  # residuals the hook replaced


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
        max_iter: int = 500, abs_floor: float = 0.0, residual_hook=None):
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

    `residual_hook(x, r)`, when given, sees every update's iterate and
    residual before the preconditioner does.  It returns None, or a
    replacement residual, from which z and the natural norm are then
    computed (residual replacement: H. van der Vorst and Q. Ye, SIAM J.
    Sci. Comput. 22, 2000); `PcgReport.fits` counts the replacements.
    A replacement restarts the search direction (beta = 0): the natural
    norm of the residual it replaces can cancel in a large gradient part.
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
    fits = 0
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
        replaced = None if residual_hook is None else residual_hook(x, r)
        if replaced is not None:
            r, fits = replaced, fits + 1
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
        beta = 0.0 if replaced is not None else rho_next / rho
        betas.append(beta)
        p = z + beta * p
        rho = rho_next
    report = PcgReport(
        iterations=len(alphas),
        converged=converged,
        residuals=history,
        condition_estimate=condition_estimate(alphas, betas[: len(alphas) - 1]),
        lanczos=(tuple(alphas), tuple(betas)),
        fits=fits,
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
