import numpy as np
import pytest
import scipy.sparse as sparse

from msflow import sparse_linalg
from msflow.sparse_linalg import (PcgBreakdownError, SingularMatrixError,
                                  condition_estimate, factor,
                                  generalized_symmetric_eig, pcg)


def random_spd(rng, n=30):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_factor_matches_dense_solve(rng):
    K = random_spd(rng)
    rhs = rng.standard_normal(K.shape[0])
    fact = factor(sparse.csc_matrix(K))
    assert np.allclose(fact.solve(rhs), np.linalg.solve(K, rhs),
                       rtol=1e-10, atol=1e-10)


def test_factor_multiple_rhs(rng):
    K = random_spd(rng)
    rhs = rng.standard_normal((K.shape[0], 3))
    got = factor(sparse.csc_matrix(K)).solve(rhs)
    assert np.allclose(got, np.linalg.solve(K, rhs), rtol=1e-10, atol=1e-10)


def test_factor_rejects_singular():
    K = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        factor(K)


def grid_laplacian(n):
    """5-point Laplacian of an n x n cell grid with cell 0 pinned."""
    line = sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1])
    line = line.tolil()
    line[0, 0] = line[-1, -1] = 1.0
    eye = sparse.identity(n)
    return (sparse.kron(line, eye) + sparse.kron(eye, line)).tocsc()[1:, 1:]


def test_factor_spd_solves_with_less_fill(rng):
    L = grid_laplacian(20)
    rhs = rng.standard_normal((L.shape[0], 2))
    fact = factor(L)
    want = np.linalg.solve(L.toarray(), rhs)
    assert np.abs(fact.solve(rhs) - want).max() <= 1e-10 * np.abs(want).max()
    # diagonal pivots: one symmetric order, no row exchanges
    assert np.array_equal(fact.lu.perm_r, fact.lu.perm_c)


def test_factor_spd_rejects_singular():
    # an unpinned Laplacian is singular along the constants; the second
    # matrix leaves a pivot of 1e-15, below the relative threshold
    for K in ([[1.0, -1.0], [-1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        with pytest.raises(SingularMatrixError):
            factor(sparse.csc_matrix(np.array(K)))


def test_factor_rejects_indefinite():
    # a positive diagonal, but the second pivot is 1 - 4 = -3
    K = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="pivot 1 of 2"):
        factor(K)


def test_factor_checks_the_diagonal_before_superlu(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU ran")

    monkeypatch.setattr(sparse_linalg, "splu", no_splu)
    for bad in (np.nan, 0.0, -1.0):
        K = np.diag([2.0, 1.0, bad, 3.0])
        with pytest.raises(SingularMatrixError, match="diagonal entry 2 "):
            factor(sparse.csc_matrix(K))


def test_factor_pivot_check_is_relative_to_each_row(rng):
    # rows at 1e-8 and 1e8 scale factor together: the unit-diagonal
    # scaling makes the pivot check local, as in the smoother's boxes
    L = grid_laplacian(6)
    d = np.logspace(-4, 4, L.shape[0])
    K = (sparse.diags(d) @ L @ sparse.diags(d)).tocsc()
    rhs = rng.standard_normal(K.shape[0])
    want = np.linalg.solve(L.toarray(), rhs / d) / d
    x = factor(K).solve(rhs)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_refinement_tightens_residual(rng):
    # badly scaled system where one refinement pass visibly helps
    n = 40
    scale = np.logspace(-8, 8, n)
    M = rng.standard_normal((n, n))
    K = M @ M.T + np.diag(scale) * n
    rhs = rng.standard_normal(n)
    fact = factor(sparse.csc_matrix(K))
    raw = fact.solve(rhs, refine=0)
    refined = fact.solve(rhs, refine=1)
    assert np.linalg.norm(K @ refined - rhs) <= \
        np.linalg.norm(K @ raw - rhs) + 1e-12


def test_pcg_solves_spd_system(rng):
    n = 50
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x, report = pcg(lambda v: A @ v, lambda v: v, b, rel_tol=1e-12,
                    max_iter=200)
    assert report.converged
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-8, atol=1e-10)
    assert report.residuals[0] == 1.0
    assert report.residuals[-1] <= 1e-12


def test_pcg_zero_rhs_short_circuits():
    x, report = pcg(lambda v: v, lambda v: v, np.zeros(5))
    assert report.iterations == 0 and report.converged
    assert np.all(x == 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pcg_roundoff_floor_ignores_sign(sign):
    # the preconditioner returns a tiny multiple of r, so the first
    # preconditioned inner product is sign * 1e-31
    b = np.full(4, 0.5)
    scaled = lambda v: sign * 1e-31 * v
    x, report = pcg(lambda v: v, scaled, b, abs_floor=1e-15)
    assert report.converged and report.iterations == 0
    assert np.all(x == 0)
    # above the floor a negative product is still a breakdown
    if sign < 0:
        with pytest.raises(PcgBreakdownError, match="negative"):
            pcg(lambda v: v, scaled, b, abs_floor=1e-16)
    else:
        _, report = pcg(lambda v: v, scaled, b, abs_floor=1e-16)
        assert report.converged and report.iterations == 1


def test_pcg_perfect_preconditioner_one_iteration(rng):
    n = 30
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    inv = np.linalg.inv(A)
    b = rng.standard_normal(n)
    x, report = pcg(lambda v: A @ v, lambda v: inv @ v, b, rel_tol=1e-10)
    assert report.iterations <= 2
    assert abs(report.condition_estimate - 1.0) < 1e-8


def test_pcg_detects_indefinite_operator(rng):
    n = 10
    A = -np.eye(n)
    b = rng.standard_normal(n)
    with pytest.raises(PcgBreakdownError) as excinfo:
        pcg(lambda v: A @ v, lambda v: v, b)
    assert hasattr(excinfo.value, "iterate")
    assert excinfo.value.iterate.shape == (n,)


def test_pcg_max_iter_reports_not_converged(rng):
    n = 60
    scale = np.logspace(0, 6, n)
    A = np.diag(scale)
    b = rng.standard_normal(n)
    x, report = pcg(lambda v: A @ v, lambda v: v, b, rel_tol=1e-14, max_iter=5)
    assert not report.converged
    assert report.iterations == 5


def test_condition_estimate_tracks_spectrum(rng):
    # diagonal system: CG's Lanczos matrix reproduces the extreme
    # eigenvalues well before full convergence
    eigs = np.linspace(1.0, 50.0, 40)
    A = np.diag(eigs)
    b = rng.standard_normal(40)
    x, report = pcg(lambda v: A @ v, lambda v: v, b, rel_tol=1e-12,
                    max_iter=200)
    assert 0.8 * 50.0 <= report.condition_estimate <= 1.02 * 50.0
    alphas, betas = report.lanczos
    assert condition_estimate(alphas, betas[:len(alphas) - 1]) == \
        report.condition_estimate


def test_condition_estimate_degenerate_inputs():
    assert condition_estimate([], []) == 1.0
    assert condition_estimate([0.5], []) == 1.0


def test_generalized_eig_residuals(rng):
    n = 12
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    W = rng.standard_normal((n, n))
    S = W @ W.T + n * np.eye(n)
    vals, vecs = generalized_symmetric_eig(A, S)
    assert np.all(np.diff(vals) >= 0)
    for k in range(n):
        r = A @ vecs[:, k] - vals[k] * (S @ vecs[:, k])
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, abs(vals[k]))
    gram = vecs.T @ S @ vecs
    assert np.allclose(gram, np.eye(n), atol=1e-10)


def test_generalized_eig_stack_and_indefinite_metric(rng):
    n = 6
    M = rng.standard_normal((3, n, n))
    A = M @ M.transpose(0, 2, 1) + n * np.eye(n)
    W = rng.standard_normal((3, n, n))
    S = W @ W.transpose(0, 2, 1) + n * np.eye(n)
    vals, vecs = generalized_symmetric_eig(A, S)
    for k in range(3):
        one_vals, one_vecs = generalized_symmetric_eig(A[k], S[k])
        assert np.abs(vals[k] - one_vals).max() <= 1e-13 * one_vals[-1]
        assert np.abs(vecs[k] - one_vecs).max() <= 1e-12 * np.abs(one_vecs).max()
    # one indefinite metric fails the whole stack, as it fails alone: a
    # numerical failure, where a shape mismatch is a usage error
    S[1] = -S[1]
    for a, s in ((A, S), (A[1], S[1])):
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            generalized_symmetric_eig(a, s)
    with pytest.raises(ValueError, match="shape mismatch"):
        generalized_symmetric_eig(A, S[0])
