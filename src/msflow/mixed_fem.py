"""Lowest-order mixed discretization of Darcy flow on two-scale grids.

The velocity space uses one dof per interior fine face holding the
(constant) normal velocity; pressures are cell-wise constants.  With a
cell-wise coefficient the velocity mass matrix integrates exactly: per
cell and axis the two opposing face dofs couple through the block

    volume / coeff * [[1/3, 1/6], [1/6, 1/3]]

and faces of different axes never couple.  The divergence matrix has one
row per cell with signed face measures, so constant fields are exactly
divergence free and column sums vanish (interior faces only).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from . import mesh
from .sparse_linalg import SingularMatrixError


@dataclass
class PermeabilityField:
    """Cell-wise permeability with an optional mobility multiplier.

    `values` is the rock permeability per cell; `mobility`, when present,
    scales it cell by cell (two-phase total mobility).  The product is
    what enters the discretization, always through its inverse.
    """

    values: np.ndarray
    mobility: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            bad = int(np.argmin(self.values))
            raise ValueError(
                f"permeability must be positive and finite; cell {bad} has "
                f"value {self.values[bad]!r}"
            )
        if self.mobility is not None:
            self.mobility = np.asarray(self.mobility, dtype=float).ravel()
            if self.mobility.shape != self.values.shape:
                raise ValueError("mobility and permeability sizes differ")
            if np.any(self.mobility <= 0):
                raise ValueError("mobility must be positive")

    def coefficient(self) -> np.ndarray:
        """Effective cell coefficient (permeability times mobility)."""
        if self.mobility is None:
            return self.values
        return self.values * self.mobility


@dataclass
class MixedOperators:
    """Assembled fine-scale operators A (velocity mass), B (divergence)
    and the source functional F.

    `coefficient` keeps the cell coefficient the mass matrix was built
    from; the structured block solvers rebuild their local systems from
    it instead of slicing A.
    """

    grid: mesh.CartesianTwoScaleGrid
    A: sparse.csr_matrix
    B: sparse.csr_matrix
    F: np.ndarray
    coefficient: np.ndarray | None = None


def uniform_field(grid, value=1.0) -> PermeabilityField:
    return PermeabilityField(np.full(grid.n_cells, float(value)))


def assemble_velocity_mass(grid, field: PermeabilityField) -> sparse.csr_matrix:
    """Velocity mass matrix weighted by the inverse cell coefficient."""
    coeff = field.coefficient()
    if coeff.size != grid.n_cells:
        raise ValueError(
            f"field has {coeff.size} cells, grid has {grid.n_cells}"
        )
    inv = grid.cell_volume / coeff
    rows, cols, vals = [], [], []
    for axis in range(grid.dim):
        low, high = mesh.cell_face_ids(grid, axis)
        both = (low >= 0) & (high >= 0)
        only_low = (low >= 0) & ~both
        only_high = (high >= 0) & ~both
        l, h, w = low[both], high[both], inv[both]
        rows += [l, h, l, h]
        cols += [l, h, h, l]
        vals += [w / 3.0, w / 3.0, w / 6.0, w / 6.0]
        for sel, ids in ((only_low, low), (only_high, high)):
            rows.append(ids[sel])
            cols.append(ids[sel])
            vals.append(inv[sel] / 3.0)
    n = grid.n_velocity
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


def assemble_divergence(grid) -> sparse.csr_matrix:
    """Row per cell: +area on high faces, -area on low faces."""
    rows, cols, vals = [], [], []
    cells = np.arange(grid.n_cells)
    for axis in range(grid.dim):
        low, high = mesh.cell_face_ids(grid, axis)
        area = grid.face_area(axis)
        has_low = low >= 0
        has_high = high >= 0
        rows += [cells[has_low], cells[has_high]]
        cols += [low[has_low], high[has_high]]
        vals += [np.full(has_low.sum(), -area), np.full(has_high.sum(), area)]
    B = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_cells, grid.n_velocity),
    )
    return B.tocsr()


def assemble_source(grid, density=None, wells=None) -> np.ndarray:
    """Source functional: cell average of a density field plus point
    rates, rejected unless it integrates to zero (pure Neumann flow)."""
    F = np.zeros(grid.n_cells)
    if density is not None:
        density = np.asarray(density, dtype=float).ravel()
        if density.size != grid.n_cells:
            raise ValueError(f"density has {density.size} values for "
                             f"{grid.n_cells} cells")
        F += density * grid.cell_volume
    if wells is not None:
        for cell, rate in wells:
            F[int(cell)] += float(rate)
    total = abs(F.sum())
    scale = np.abs(F).sum()
    if total > 1e-12 * max(1.0, scale):
        raise ValueError(
            f"source does not balance: net rate {F.sum():.3e} "
            f"(gross {scale:.3e}); a compatible Neumann problem needs zero net"
        )
    return F


def assemble_operators(grid, field, density=None, wells=None) -> MixedOperators:
    return MixedOperators(
        grid=grid,
        A=assemble_velocity_mass(grid, field),
        B=assemble_divergence(grid),
        F=assemble_source(grid, density=density, wells=wells),
        coefficient=field.coefficient(),
    )


def bordered_saddle_matrix(A, B) -> sparse.csc_matrix:
    """[[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]].

    The all-ones border on the pressure block pins the pressure mean and
    absorbs the compatibility multiplier; no dof is pinned.
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


def _block_product(M, x):
    """Apply the matrices M (..., nblocks, m, m) to x (..., m, k).

    Column j of x goes with block j when nblocks = k, and every column
    with the single block when nblocks = 1, so both cases are one
    `matmul`: k matrix-vector products or one matrix-matrix product.
    """
    shape = x.shape
    x = x.reshape(*shape[:-1], M.shape[-3], -1).swapaxes(-2, -3)
    return np.matmul(M, x).swapaxes(-2, -3).reshape(shape)


class _BoxFactor:
    """Direct solver of the bordered saddle on a box of cells.

    On a tensor grid the velocity mass matrix decouples into independent
    tridiagonal systems along grid lines, one per axis and transverse
    position.  They are short (box length minus one), so each is kept
    with its dense inverse.  Eliminating the velocities leaves the
    pressure Schur complement S, a cell Laplacian that is dense along
    lines and fills nearly completely under any elimination order.  S is
    singular along the constants only, so S + c 1 1^T is positive
    definite; it is kept as the inverse L^-1 of its Cholesky factor, and
    a Schur solve is the two products L^-T (L^-1 r).  Unlike an explicit
    inverse of S, this stays backward stable at high contrast, which the
    divergence rows need.

    Instances depend on the box shape and cell coefficients only, so
    identical blocks (uniform background) share one factor.

    The line matrices carry a block axis, shaped (lines, nblocks, len,
    len), and L^-1 is (nblocks, n_cells, n_cells).  Right-hand sides are
    (rows, k) with column j solved on block j.  A factor built for one
    box has nblocks = 1 and solves any number of columns together;
    `stack` joins same-shape factors so that one `solve_core` call
    solves one column per box.  Either way each line and Schur product
    is one `matmul` (`_block_product`).  The smoother and preprocessing
    run one such batched solve per box shape.
    """

    def __init__(self, grid, shape, coeff_box: np.ndarray):
        self.shape = tuple(int(s) for s in shape)
        self.dim = grid.dim
        self.n_cells = int(np.prod(self.shape))
        vol = grid.cell_volume
        self.areas = [grid.face_area(a) for a in range(grid.dim)]
        w = (vol / np.asarray(coeff_box, dtype=float)).reshape(
            self.shape, order="F")

        # per axis: local (cell, velocity) indices laid out as
        # (lines, len), velocities numbered axis by axis in F order, and
        # the line matrices with their inverses
        self._lines = []
        self._tri = []
        cell_idx = np.arange(self.n_cells).reshape(self.shape, order="F")
        n = self.n_cells
        schur = np.zeros((n, n))
        start = 0
        for a in range(self.dim):
            s = self.shape[a]
            if s < 2:
                self._lines.append(None)
                self._tri.append(None)
                continue
            w_lines = np.moveaxis(w, a, -1).reshape(-1, s)
            j = np.arange(s - 1)
            T = np.zeros((len(w_lines), 1, s - 1, s - 1))
            T[:, 0, j, j] = (w_lines[:, :-1] + w_lines[:, 1:]) / 3.0
            T[:, 0, j[1:], j[:-1]] = T[:, 0, j[:-1], j[1:]] = \
                w_lines[:, 1:-1] / 6.0
            T_inv = np.linalg.inv(T)
            self._tri.append((T, T_inv))
            ids = np.moveaxis(cell_idx, a, -1).reshape(-1, s)
            face_shape = self.shape[:a] + (s - 1,) + self.shape[a + 1:]
            n_a = int(np.prod(face_shape))
            faces = start + np.arange(n_a).reshape(face_shape, order="F")
            faces = np.moveaxis(faces, a, -1).reshape(-1, s - 1)
            self._lines.append((ids, faces))
            start += n_a

            # Schur contribution G T^-1 G^T, a dense (s x s) block per
            # line; the lines of one axis are disjoint, so no entry of
            # the fancy-indexed sum repeats
            G = np.zeros((s, s - 1))
            G[j, j] = self.areas[a]
            G[j + 1, j] = -self.areas[a]
            schur[ids[:, :, None], ids[:, None, :]] += G @ T_inv[:, 0] @ G.T

        self.n_velocity = start
        # c = trace / n^2 puts the constant mode of S + c 1 1^T among the
        # others, at the mean diagonal entry
        shift = np.trace(schur) / n ** 2 or 1.0
        try:
            chol = np.linalg.cholesky(schur + shift)
        except np.linalg.LinAlgError as err:
            raise SingularMatrixError(
                f"box {self.shape}: pressure Schur complement is not "
                f"positive definite ({err})") from err
        self._chol_inv = lapack.dtrtri(chol, lower=1)[0][None]

    @classmethod
    def stack(cls, factors):
        """One factor solving column j on the box of `factors[j]`.

        The factors are single-box ones of one shape; their line
        matrices and Schur factors are concatenated along the block
        axis.
        """
        first = factors[0]
        if any(f.shape != first.shape for f in factors):
            raise ValueError("stacked box factors must share one shape")
        out = copy.copy(first)
        out._tri = [None if tri is None else tuple(
            np.concatenate([f._tri[a][i] for f in factors], axis=1)
            for i in range(len(tri))) for a, tri in enumerate(first._tri)]
        out._chol_inv = np.concatenate([f._chol_inv for f in factors])
        return out

    def _axes(self):
        """(area, cell lines, velocity lines, line matrices) per axis
        that has velocity dofs; line arrays are (lines, len)."""
        return [(self.areas[a], *self._lines[a], self._tri[a])
                for a in range(self.dim) if self._lines[a] is not None]

    def _mass_solve(self, rhs):
        out = np.empty_like(rhs)
        for _, _, faces, (_, T_inv) in self._axes():
            out[faces] = _block_product(T_inv, rhs[faces])
        return out

    def _mass_apply(self, v):
        out = np.empty_like(v)
        for _, _, faces, (T, _) in self._axes():
            out[faces] = _block_product(T, v[faces])
        return out

    def _div_apply(self, v):
        out = np.zeros((self.n_cells, v.shape[1]))
        for area, cells, faces, _ in self._axes():
            flux = area * v[faces]
            net = np.zeros(cells.shape + (v.shape[1],))
            net[:, :-1] += flux
            net[:, 1:] -= flux
            # each axis' cell lines hold every cell once
            out[cells] += net
        return out

    def _grad_apply(self, p):
        out = np.empty((self.n_velocity, p.shape[1]))
        for area, cells, faces, _ in self._axes():
            lines = p[cells]
            out[faces] = area * (lines[:, :-1] - lines[:, 1:])
        return out

    def _pass(self, a, b, tau):
        g = self._div_apply(self._mass_solve(a)) - b
        # bordered Schur system S p - mu 1 = g, 1^T p = tau: 1^T S = 0
        # gives mu = -mean(g), and as S 1 = 0 the zero-mean part of p
        # solves (S + c 1 1^T) p0 = g + mu
        mu = -g.mean(axis=0)
        y = _block_product(self._chol_inv, g + mu)
        p = (_block_product(self._chol_inv.transpose(0, 2, 1), y)
             + tau / self.n_cells)
        v = self._mass_solve(a - self._grad_apply(p))
        return v, p, mu

    def solve_core(self, a, b, tau):
        """One Schur pass, then one refinement pass on its residual."""
        v, p, mu = self._pass(a, b, tau)
        ra = a - self._mass_apply(v) - self._grad_apply(p)
        rb = b - self._div_apply(v) - mu[None, :]
        # summed along contiguous rows: each column then adds up in
        # the same order whatever the number of columns
        rt = tau - np.ascontiguousarray(p.T).sum(axis=1)
        dv, dp, dmu = self._pass(ra, rb, rt)
        return v + dv, p + dp, mu + dmu


class BlockSolver:
    """Bordered saddle solver on one coarse block, optionally oversampled.

    Thin wrapper pairing the global index sets with a `_BoxFactor`.
    Right-hand sides and solutions are laid out as in
    `bordered_saddle_matrix`: [velocity; pressure; border].  Sweeps over all blocks go through
    `BlockBatch` instead, one batched solve per box shape.
    """

    def __init__(self, block: int, velocity_idx, pressure_idx,
                 factor: _BoxFactor):
        self.block = block
        self.velocity_idx = velocity_idx
        self.pressure_idx = pressure_idx
        self.factor = factor
        if len(velocity_idx) != factor.n_velocity:
            raise ValueError(
                f"block {block}: {len(velocity_idx)} interior dofs but the "
                f"box factor expects {factor.n_velocity}")

    @property
    def n_velocity(self) -> int:
        return len(self.velocity_idx)

    @property
    def n_pressure(self) -> int:
        return len(self.pressure_idx)

    @property
    def size(self) -> int:
        return self.n_velocity + self.n_pressure + 1

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        if single:
            rhs = rhs[:, None]
        nv = self.n_velocity
        v, p, mu = self.factor.solve_core(rhs[:nv], rhs[nv:-1], rhs[-1])
        out = np.vstack([v, p, mu[None, :]])
        return out[:, 0] if single else out


class _ShapeGroup:
    """Blocks of one box shape; column j of a local array is block
    `blocks[j]`, and the index arrays are (nblocks, n_velocity) and
    (nblocks, n_cells)."""

    def __init__(self, solvers):
        self.blocks = np.array([bs.block for bs in solvers])
        self.velocity_idx = np.stack([bs.velocity_idx for bs in solvers])
        self.pressure_idx = np.stack([bs.pressure_idx for bs in solvers])
        self.factor = _BoxFactor.stack([bs.factor for bs in solvers])


class BlockBatch:
    """Block solvers grouped by box shape for batched local solves.

    A 2D decomposition has at most 9 box shapes and a 3D one at most 27,
    so a pass over all blocks is that many `solve_core` calls, whatever
    the number of blocks.
    """

    def __init__(self, solvers, n_velocity: int):
        by_shape = {}
        for bs in solvers:
            by_shape.setdefault(bs.factor.shape, []).append(bs)
        self.groups = [_ShapeGroup(group) for group in by_shape.values()]
        self.n_velocity = n_velocity
        # local values come group by group as (n_velocity, nblocks);
        # taken block by block instead, every dof adds up its shares in
        # block order, exactly as a loop over the solvers does
        idx = np.concatenate([g.velocity_idx.T.ravel() for g in self.groups])
        owner = np.concatenate([np.tile(g.blocks, g.velocity_idx.shape[1])
                                for g in self.groups])
        self._scatter_order = np.argsort(owner, kind="stable")
        self._scatter_idx = idx[self._scatter_order]

    def solve(self, velocity_rhs, pressure_rhs=None) -> list:
        """Local velocities of every block saddle, one (n_velocity,
        nblocks) array per group.

        Each block's right-hand side is gathered from the global vectors
        (`pressure_rhs` None is zero; the border entry is zero), solved
        with one refinement pass like `BlockSolver.solve`.
        """
        out = []
        for g in self.groups:
            a = velocity_rhs[g.velocity_idx.T]
            if pressure_rhs is None:
                b = np.zeros(g.pressure_idx.T.shape)
            else:
                b = pressure_rhs[g.pressure_idx.T]
            v, _, _ = g.factor.solve_core(a, b, np.zeros(len(g.blocks)))
            out.append(v)
        return out

    def scatter(self, local) -> np.ndarray:
        """Sum the local velocities into a global vector; dofs shared
        by overlapping blocks add up."""
        weights = np.concatenate([v.ravel() for v in local])
        return np.bincount(self._scatter_idx,
                           weights=weights[self._scatter_order],
                           minlength=self.n_velocity)


def block_solvers(grid, operators: MixedOperators,
                  overlap: int = 0) -> list:
    """Factorized solvers for every coarse block, oversampled by
    `overlap` fine layers (clipped at the domain boundary).

    Blocks whose region shape and coefficients coincide share one
    factorization, which collapses the setup cost on fields with a
    uniform background.
    """
    if operators.coefficient is None:
        raise ValueError("operators carry no cell coefficient; assemble "
                         "them with assemble_operators")
    coeff = operators.coefficient
    solvers = []
    cache: dict = {}
    for b in range(grid.n_blocks):
        cells = mesh.oversample(grid, b, overlap)
        lo = mesh.cell_multi(grid, cells[0])
        hi = mesh.cell_multi(grid, cells[-1])
        shape = tuple(int(h - l + 1) for l, h in zip(lo, hi))
        coeff_box = coeff[cells]
        key = (shape, coeff_box.tobytes())
        factor = cache.get(key)
        if factor is None:
            factor = _BoxFactor(grid, shape, coeff_box)
            cache[key] = factor
        vidx = mesh.velocity_dofs_interior_to(grid, cells)
        solvers.append(BlockSolver(b, vidx, cells, factor))
    return solvers
