"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's assembly and solver
code paths: local matrices come from numerical quadrature, saddle
systems are solved densely with numpy, and divergence-free vectors are
produced by a dense normal-equations projection.  They were written
against the discretization conventions alone and then frozen; the
package is tested against them, never the other way around.
"""

import time

import numpy as np
import pytest
from scipy import sparse

from msflow import mesh, mixed_fem


# ---------------------------------------------------------------------------
# quadrature oracle for the one-cell, one-axis velocity mass block

def quadrature_mass_block(n_points: int = 2000) -> np.ndarray:
    """Integrate the two opposite-face shape functions on [0,1].

    The axis profile of the low-face function is 1-t, of the high-face
    function t; transverse directions integrate to one.  Composite
    Simpson on a fine grid nails the exact rationals to ~1e-14.
    """
    from scipy.integrate import simpson

    t = np.linspace(0.0, 1.0, n_points + 1)
    low = 1.0 - t
    high = t
    return np.array([
        [simpson(low * low, x=t), simpson(low * high, x=t)],
        [simpson(high * low, x=t), simpson(high * high, x=t)],
    ])


def oracle_velocity_mass(grid, coefficient) -> np.ndarray:
    """Dense velocity mass matrix assembled cell by cell by quadrature."""
    block = quadrature_mass_block()
    n = grid.n_velocity
    A = np.zeros((n, n))
    vol = grid.cell_volume
    for cell in range(grid.n_cells):
        w = vol / coefficient[cell]
        for axis in range(grid.dim):
            low, high = mesh.cell_face_ids(grid, axis)
            pair = [int(low.ravel(order="F")[cell]),
                    int(high.ravel(order="F")[cell])]
            for i, fi in enumerate(pair):
                if fi < 0:
                    continue
                for j, fj in enumerate(pair):
                    if fj < 0:
                        continue
                    A[fi, fj] += w * block[i, j]
    return A


def oracle_divergence(grid) -> np.ndarray:
    """Dense divergence matrix: signed face areas per cell."""
    n_v = grid.n_velocity
    B = np.zeros((grid.n_cells, n_v))
    for axis in range(grid.dim):
        area = grid.face_areas[axis]
        low, high = mesh.cell_face_ids(grid, axis)
        low = low.ravel(order="F")
        high = high.ravel(order="F")
        for cell in range(grid.n_cells):
            # outflow through the high face, inflow through the low one
            if high[cell] >= 0:
                B[cell, high[cell]] += area
            if low[cell] >= 0:
                B[cell, low[cell]] -= area
    return B


# ---------------------------------------------------------------------------
# dense saddle solver

def dense_saddle_solve(A, B, rhs_v, rhs_p):
    """Direct solve of [[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]] by LU.

    Accepts sparse or dense blocks; returns (v, p, multiplier).
    """
    A = np.asarray(A.todense()) if hasattr(A, "todense") else np.asarray(A)
    B = np.asarray(B.todense()) if hasattr(B, "todense") else np.asarray(B)
    nv, npr = A.shape[0], B.shape[0]
    K = np.zeros((nv + npr + 1, nv + npr + 1))
    K[:nv, :nv] = A
    K[:nv, nv:nv + npr] = B.T
    K[nv:nv + npr, :nv] = B
    K[nv:nv + npr, -1] = 1.0
    K[-1, nv:nv + npr] = 1.0
    rhs = np.concatenate([rhs_v, rhs_p, [0.0]])
    sol = np.linalg.solve(K, rhs)
    return sol[:nv], sol[nv:nv + npr], sol[-1]


def bordered_saddle_matrix(A, B) -> sparse.csc_matrix:
    """[[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]] from sparse blocks.

    The all-ones border on the pressure block pins the pressure mean and
    absorbs the compatibility multiplier; no dof is pinned.  It is the
    layout of `mixed_fem.BlockSolver.solve`, for dense reference solves
    of one box.
    """
    nv = A.shape[0]
    npr = B.shape[0]
    ones = sparse.csr_matrix(np.ones((npr, 1)))
    blocks = [
        [A, B.T, sparse.csr_matrix((nv, 1))],
        [B, None, ones],
        [sparse.csr_matrix((1, nv)), ones.T, None],
    ]
    return sparse.bmat(blocks, format="csc")


def neighborhood_cells(grid, face) -> np.ndarray:
    """Cells of the two blocks sharing a coarse face, ascending."""
    return np.sort(np.concatenate([mesh.block_cells(grid, face.blocks[0]),
                                   mesh.block_cells(grid, face.blocks[1])]))


# ---------------------------------------------------------------------------
# divergence-free vectors by dense projection

class DivFreeProjector:
    """Removes the range of B^T from velocity vectors.

    Solves the normal equations with the constant null space pinned by
    a rank-one shift; everything dense, nothing shared with the
    package's solvers.
    """

    def __init__(self, B):
        B = np.asarray(B.todense()) if hasattr(B, "todense") else np.asarray(B)
        self.B = B
        n = B.shape[0]
        shifted = B @ B.T + np.ones((n, n)) / n
        self.chol = np.linalg.cholesky(shifted)

    def project(self, w):
        g = self.B @ w
        y = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, g))
        return w - self.B.T @ y

    def random(self, rng, size):
        return self.project(rng.standard_normal(size))


# ---------------------------------------------------------------------------
# random fields

def random_log_field(rng, n, orders: float = 6.0):
    """Positive cell field spanning `orders` decades, log-uniform."""
    return 10.0 ** rng.uniform(-orders / 2, orders / 2, size=n)


def uniform_field(grid, value=1.0) -> mixed_fem.PermeabilityField:
    return mixed_fem.PermeabilityField(np.full(grid.n_cells, float(value)))


def band_values(grid, exponent):
    """x-bands of 1e+e, 1 and 1e-e, split at x < 11 and x < 22."""
    x = mesh.cell_multi(grid, np.arange(grid.n_cells))[:, 0]
    return np.select([x < 11, x < 22], [10.0 ** exponent, 1.0],
                     10.0 ** -exponent)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary

ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        outcome = ACCEPTANCE_RESULTS[name].upper()
        terminalreporter.write_line(f"{name}: {outcome}")


class StopWatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False
