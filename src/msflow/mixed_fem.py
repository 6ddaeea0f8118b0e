"""Lowest-order mixed discretization of Darcy flow on two-scale grids.

The velocity space uses one dof per interior fine face holding the
(constant) normal velocity; pressures are cell-wise constants.  With a
cell-wise coefficient the velocity mass matrix integrates exactly: per
cell and axis the two opposing face dofs couple through the block

    volume / coeff * [[1/3, 1/6], [1/6, 1/3]]

and faces of different axes never couple.  The divergence matrix has one
row per cell with signed face measures, so constant fields are exactly
divergence free and column sums vanish (interior faces only).

Box saddles are solved directly, all boxes of a set as one
block-diagonal system.  The exact solves of the coarse blocks
(`BlockBatch`, a dense `_BoxFactor` with its inverse Cholesky factor,
held once per distinct box and applied to all its boxes at once) serve
the msfem and gmsfem basis build only, which hands them box-local
right-hand sides.  The other boxes, the smoother's and those of
preprocessing and recovery, are mass-lumped (`LumpedBatch`), and only
their velocities are summed back into global vectors:
each box's velocity mass is integrated by the trapezoidal rule, which
makes it diagonal and the mixed method equal to two-point cell fluxes
(Russell & Wheeler 1983; Arbogast, Wheeler & Yotov, SINUM 34, 1997), so
one sparse `sparse_linalg.factor` of pinned cell Laplacians serves a
set of boxes, and a lumped solve is two solves with it and four sparse
products.  `MixedOperators` owns both for its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import mesh
from .sparse_linalg import factor, inverse_cholesky


@dataclass
class PermeabilityField:
    """Cell-wise coefficient of the flow problem.

    `values` holds one positive, finite coefficient per cell: the rock
    permeability, or for two-phase flow its product with the total
    mobility (`two_phase.mobility_field`).  It enters the discretization
    through its inverse.  Held as a flat float array; the first cell that
    is not positive and finite (NaN included) raises ValueError.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        bad = np.flatnonzero(~(np.isfinite(self.values) & (self.values > 0)))
        if bad.size:
            raise ValueError(f"permeability must be positive and finite; "
                             f"cell {bad[0]} has value "
                             f"{float(self.values[bad[0]])!r}")


@dataclass
class MixedOperators:
    """The discretized problem: A (velocity mass) and B (divergence) on
    `grid`, and the cell `coefficient` A was built from.

    The structured block solvers rebuild their local systems from
    `coefficient` instead of slicing A.  Operators are never mutated
    after assembly, so they own the box factors and build them on first
    use, for every caller: `batch` the exact saddles of the coarse
    blocks for the basis build, `smoother` the lumped saddles of the
    blocks grown by an overlap (0 included), once per overlap, for
    everything else.
    """

    grid: mesh.CartesianTwoScaleGrid
    A: sparse.csr_matrix
    B: sparse.csr_matrix
    coefficient: np.ndarray

    def __post_init__(self):
        self._batch = None
        self._smoothers = {}

    def batch(self) -> BlockBatch:
        """`BlockBatch` of the `block_solvers` for overlap 0, one Schur
        factor per distinct box: the exact solves of the msfem and
        gmsfem basis build."""
        if self._batch is None:
            self._batch = BlockBatch(block_solvers(self))
        return self._batch

    def smoother(self, overlap: int) -> LumpedBatch:
        """`LumpedBatch` of the blocks grown by `overlap` fine layers."""
        if overlap not in self._smoothers:
            self._smoothers[overlap] = LumpedBatch(self, overlap)
        return self._smoothers[overlap]


def uniform_field(grid, value=1.0) -> PermeabilityField:
    return PermeabilityField(np.full(grid.n_cells, float(value)))


def assemble_velocity_mass(grid, field: PermeabilityField) -> sparse.csr_matrix:
    """Velocity mass matrix weighted by the inverse cell coefficient."""
    coeff = field.values
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


def assemble_operators(grid, field) -> MixedOperators:
    return MixedOperators(
        grid=grid,
        A=assemble_velocity_mass(grid, field),
        B=assemble_divergence(grid),
        coefficient=field.values,
    )


class _BoxLines:
    """Grid lines of a box shape, numbering its velocities line-major
    (axis by axis, line by line).  `order` picks them out of the F-order
    of `mesh.velocity_dofs_interior_to`; `axes` holds (axis, cell ids per
    line), `lens` every line's length, and velocity i joins the cells
    `cells[i]` with divergence entries `div[i]` (+area, -area)."""

    def __init__(self, grid, shape):
        self.shape = tuple(int(s) for s in shape)
        self.n_cells = int(np.prod(self.shape))
        cell_idx = np.arange(self.n_cells).reshape(self.shape, order="F")
        # the empty first part serves boxes without velocity dofs
        parts = [(np.zeros(0, int),) * 2 + (np.zeros((0, 2), int),
                                             np.zeros((0, 2)))]
        self.axes, start = [], 0
        for a, s in enumerate(self.shape):
            if s < 2:
                continue
            ids = np.moveaxis(cell_idx, a, -1).reshape(-1, s)
            face_shape = self.shape[:a] + (s - 1,) + self.shape[a + 1:]
            n_a = int(np.prod(face_shape))
            faces = start + np.arange(n_a).reshape(face_shape, order="F")
            start += n_a
            self.axes.append((a, ids))
            parts.append((np.moveaxis(faces, a, -1).ravel(),
                          np.full(len(ids), s - 1),
                          np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], 1),
                          np.tile([grid.face_area(a), -grid.face_area(a)],
                                  (n_a, 1))))
        self.n_velocity = start
        self.order, self.lens, self.cells, self.div = map(np.concatenate,
                                                          zip(*parts))


class _BoxFactor:
    """Factors of the bordered saddle on a box of cells.

    On a tensor grid the velocity mass matrix decouples into independent
    tridiagonal systems along grid lines, one per axis and transverse
    position.  They are short (box length minus one), so each is kept
    with its dense inverse.  Eliminating the velocities leaves the
    pressure Schur complement S, a cell Laplacian that is dense along
    lines and fills nearly completely under any elimination order.  S is
    singular along the constants only, so S + c 1 1^T is positive
    definite; it is kept as `sparse_linalg.inverse_cholesky`'s L^-1, and
    a Schur solve is the two products L^-T (L^-1 r), which unlike an
    explicit inverse of S stays backward stable at high contrast.

    Instances depend on the box shape and cell coefficients only, so
    identical blocks (uniform background) share one factor.  It owns its
    arrays, numbered by `lines`: the line matrices `T` and `T_inv` row
    by row and the (n, n) `L_inv`, which `BlockBatch` copies once.
    """

    def __init__(self, grid, lines: _BoxLines, coeff_box: np.ndarray):
        w = (grid.cell_volume / np.asarray(coeff_box, dtype=float)).reshape(
            lines.shape, order="F")
        parts = [(np.zeros(0), np.zeros(0))]
        schur = np.zeros((lines.n_cells,) * 2)
        for a, ids in lines.axes:
            s = ids.shape[1]
            w_lines = np.moveaxis(w, a, -1).reshape(-1, s)
            j = np.arange(s - 1)
            T = np.zeros((len(w_lines), s - 1, s - 1))
            T[:, j, j] = (w_lines[:, :-1] + w_lines[:, 1:]) / 3.0
            T[:, j[1:], j[:-1]] = T[:, j[:-1], j[1:]] = w_lines[:, 1:-1] / 6.0
            T_inv = np.linalg.inv(T)
            parts.append((T.ravel(), T_inv.ravel()))

            # Schur contribution G T^-1 G^T, a dense (s x s) block per
            # line; the lines of one axis are disjoint, so no entry of
            # the fancy-indexed sum repeats
            G = np.zeros((s, s - 1))
            G[j, j] = grid.face_area(a)
            G[j + 1, j] = -grid.face_area(a)
            schur[ids[:, :, None], ids[:, None, :]] += G @ T_inv @ G.T

        self.T, self.T_inv = map(np.concatenate, zip(*parts))
        # c = trace / n^2 puts the constant mode of S + c 1 1^T among the
        # others, at the mean diagonal entry
        schur += np.trace(schur) / schur.size or 1.0
        self.L_inv = inverse_cholesky(
            schur, f"box {lines.shape}: pressure Schur complement")


@dataclass(eq=False)
class BlockSolver:
    """One coarse block grown by an overlap: its cells, its interior
    velocities in the line order of `lines`, the box shape's lines and,
    for the exact solves of overlap 0, the `_BoxFactor` of its saddle.
    Box systems keep their boxes in block order, so box i is block i.

    `solve` is the exact saddle solve of an overlap-0 box through a
    one-box `BlockBatch`, built on the first solve, of the bordered
    system  [[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]]  with the box's mass A
    and divergence B; the all-ones border pins the pressure mean and
    absorbs the compatibility multiplier.  Right-hand sides and
    solutions, (size,) or (size, k), are [velocity; pressure; border],
    velocities in the order of `velocity_idx`.
    """

    velocity_idx: np.ndarray
    pressure_idx: np.ndarray
    lines: _BoxLines
    factor: _BoxFactor | None = None

    @property
    def n_velocity(self) -> int:
        return len(self.velocity_idx)

    @property
    def size(self) -> int:
        return self.n_velocity + len(self.pressure_idx) + 1

    @cached_property
    def _system(self):
        return BlockBatch([self])

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        cols = rhs.reshape(len(rhs), -1)
        nv = self.n_velocity
        v, p, mu = self._system.solve_core(cols[:nv], cols[nv:-1], cols[-1:])
        return np.vstack([v, p, mu]).reshape(rhs.shape)


def _boxes(grid, overlap: int) -> list:
    """The `BlockSolver` of every coarse block in block order, without a
    factor, oversampled by `overlap` fine layers and clipped at the
    domain boundary.  F-order ravels are linear, so a box is the box of
    its shape at the origin, with its `_BoxLines`, shifted by its ravelled
    corner on the cells and on each face lattice (as `mesh.coarse_faces`)."""
    lo, hi = mesh.grown_blocks(grid, np.arange(grid.n_blocks), overlap)
    shapes, kind = np.unique(hi - lo, axis=0, return_inverse=True)
    # each box corner ravelled on the cells (column 0) and on the faces
    # normal to axis a (column 1 + a), unchecked: a lattice may be empty
    lattices = [grid.fine] + [grid.axis_face_shape(a) for a in range(grid.dim)]
    shift = lo @ np.array([np.cumprod((1,) + n[:-1]) for n in lattices]).T
    boxes = [None] * grid.n_blocks
    for k, shape in enumerate(shapes):
        lines = _BoxLines(grid, shape)
        cells = mesh.box_cells(grid, np.zeros_like(shape), shape)
        faces = mesh.velocity_dofs_interior_to(grid, cells)[lines.order]
        axis = np.searchsorted(grid.face_offsets, faces, side="right")
        for b in np.flatnonzero(kind.ravel() == k):
            boxes[b] = BlockSolver(faces + shift[b, axis], cells + shift[b, 0],
                                   lines)
    return boxes


class _BoxSystem:
    """Boxes of interior velocities and cells as one block-diagonal
    system, their local unknowns concatenated in block order (box i is
    block i), so every grid line is a contiguous run of velocities.
    `velocity_idx` and `pressure_idx` give the global dof of every local
    unknown, `velocity_box` and `cell_box` its box, `counts` each box's
    cells and `velocity_cells` the two local cells of every velocity.
    D, the box divergences, is CSC with two entries per column, built
    by index arithmetic.
    """

    def __init__(self, boxes):
        lines = [box.lines for box in boxes]
        self.velocity_idx = np.concatenate([box.velocity_idx for box in boxes])
        self.pressure_idx = np.concatenate([box.pressure_idx for box in boxes])
        nv = np.array([box.n_velocity for box in lines])
        self.counts = np.array([box.n_cells for box in lines])
        self.starts = np.cumsum(self.counts) - self.counts
        self.velocity_box = np.repeat(np.arange(len(boxes)), nv)
        self.cell_box = np.repeat(np.arange(len(boxes)), self.counts)
        n_loc, n_cells = len(self.velocity_idx), len(self.pressure_idx)

        cells = np.concatenate([box.cells for box in lines])
        cells += self.starts[self.velocity_box][:, None]
        self.velocity_cells = cells
        self.D = sparse.csc_matrix(
            (np.concatenate([box.div for box in lines]).ravel(), cells.ravel(),
             np.arange(0, 2 * n_loc + 1, 2)), shape=(n_cells, n_loc))

    def box_sums(self, x):
        """Per-box sums of local cell values (rows of `x`)."""
        return np.add.reduceat(x, self.starts, axis=0)


class BlockBatch(_BoxSystem):
    """The exact box saddles of a set of `BlockSolver`s.

    Every box solves  M v + G p = a,  D v + mu 1 = b,  1^T p = tau  on
    its interior velocities and cells, with G = D^T and M the exact
    velocity mass: its line matrices `T` and their inverses `T_inv` are
    CSR on one pattern, a dense block per line (`_BoxLines.lens`).  The
    Cholesky inverses of S + c 1 1^T stay dense, one per distinct
    `_BoxFactor`: `groups` pairs a copy of each factor's `L_inv` with
    the local cells of its boxes, shape (n, boxes), so a solve is a
    dozen sparse products plus two dense ones per factor.  Its one
    solve, `solve_core`, takes and returns box-local unknowns; the boxes
    are disjoint and nothing scatters them.
    """

    def __init__(self, solvers):
        super().__init__(solvers)
        n_loc, self.G = len(self.velocity_idx), self.D.T

        # dense line blocks, stored row by row: a row of line i holds
        # columns first .. first + m[i] - 1 (int32, as scipy keeps them)
        m = np.concatenate([bs.lines.lens for bs in solvers]).astype(np.int32)
        row_len = np.repeat(m, m)
        indptr = np.cumsum(np.concatenate([[0], row_len]), dtype=np.int32)
        first = np.repeat(np.cumsum(m, dtype=np.int32) - m, m)
        indices = (np.arange(indptr[-1], dtype=np.int32)
                   + np.repeat(first - indptr[:-1], row_len))
        self.T, self.T_inv = (
            sparse.csr_matrix((np.concatenate(data), indices, indptr),
                              shape=(n_loc, n_loc))
            for data in zip(*[(bs.factor.T, bs.factor.T_inv) for bs in solvers]))

        starts = {}
        for bs, start in zip(solvers, self.starts):
            starts.setdefault(bs.factor, []).append(start)
        # copied after every factor is built: held in place, the factors'
        # arrays fragment the heap and later solves fault in fresh pages
        self.groups = [(f.L_inv.copy(), np.add.outer(np.arange(len(f.L_inv)), b))
                       for f, b in starts.items()]

    def _schur_solve(self, g):
        """(S + c 1 1^T)^-1 g on every box, as L^-T (L^-1 g); for g of
        zero box sums this is the zero-mean solution of S p = g."""
        p = np.empty_like(g)
        for L, cells in self.groups:
            x = g[cells].reshape(len(L), -1)
            p[cells] = (L.T @ (L @ x)).reshape(cells.shape + g.shape[1:])
        return p

    def _pass(self, a, b, tau):
        g = self.D @ (self.T_inv @ a) - b
        # bordered Schur system S p - mu 1 = g, 1^T p = tau per box:
        # 1^T S = 0 gives mu = -mean(g), and the zero-mean solution of
        # S p0 = g + mu is shifted to the box mean tau / n
        counts = self.counts[:, None]
        mu = -self.box_sums(g) / counts
        p = self._schur_solve(g + mu[self.cell_box])
        p += (tau / counts)[self.cell_box]
        v = self.T_inv @ (a - self.G @ p)
        return v, p, mu

    def solve_core(self, a, b, tau):
        """Every box saddle for local right-hand sides a, b and tau (one
        row per box) with k columns: one Schur pass, then one refinement
        pass on its residual.  Returns (v, p, mu) in the same layout."""
        v, p, mu = self._pass(a, b, tau)
        ra = a - self.T @ v - self.G @ p
        rb = b - self.D @ v - mu[self.cell_box]
        rt = tau - self.box_sums(p)
        dv, dp, dmu = self._pass(ra, rb, rt)
        return v + dv, p + dp, mu + dmu


class LumpedBatch(_BoxSystem):
    """Mass-lumped box saddles  M v + G p = a,  D v + mu 1 = b  of every
    coarse block grown by `overlap` fine layers: the smoother's solves,
    and at overlap 0 preprocessing's and pressure recovery's.  `solve`
    gathers its right-hand sides from global vectors, and `scatter`
    sums its local velocities back into one of `n_velocity`.

    M is the trapezoidal-rule velocity mass: the face between cells of
    weights w_l and w_h (volume / coefficient) gets the diagonal entry
    (w_l + w_h) / 2, whose inverse W is `inv_mass`.  Each box's Schur
    complement D W G is then a sparse cell Laplacian, singular along the
    box constants, which G annihilates; so pinning one cell per box, its
    most permeable (a pin in a low-permeability region would leave the
    permeable rest of the box nearly floating), gives the free rows D_f
    and one positive definite D_f W D_f^T for all boxes.  `lu` is its
    `sparse_linalg.factor`, whose scaling s to unit diagonal keeps the
    pivot check local to each box.  With s folded into `Ds` = s D_f and
    `W_DsT` = W Ds^T, a solve is the Schur pass
    v = W a - W_DsT lu^-1 (Ds W a - s b~), b~ being b less its box means
    (which is mu), then the divergence-only pass
    v -= W_DsT lu^-1 (Ds v - s b~), which keeps the box divergences at
    roundoff.
    """

    def __init__(self, operators: MixedOperators, overlap: int):
        grid = operators.grid
        super().__init__(_boxes(grid, overlap))
        self.n_velocity = grid.n_velocity
        w = grid.cell_volume / operators.coefficient[self.pressure_idx]
        low, high = self.velocity_cells.T
        self.inv_mass = 2.0 / (w[low] + w[high])
        # the least w in each box is its largest coefficient
        pinned = np.lexsort((w, self.cell_box))[self.starts]
        self.free = np.setdiff1d(np.arange(len(self.pressure_idx)), pinned)
        self.Ds = self.D.tocsr()[self.free]
        self.lu = None
        if len(self.free):  # else every box is one cell, with no velocity
            f = factor(self.Ds @ sparse.diags(self.inv_mass) @ self.Ds.T)
            self.lu, self.scale = f.lu, f.scale
            self.Ds.data *= np.repeat(f.scale, np.diff(self.Ds.indptr))
        self.W_DsT = self.Ds.T.tocsr()
        self.W_DsT.data *= np.repeat(self.inv_mass, np.diff(self.W_DsT.indptr))

    def solve(self, velocity_rhs, pressure_rhs=None) -> np.ndarray:
        """Local velocities of every box saddle for global right-hand
        sides (n,) or (n, k); `pressure_rhs` None is 0."""
        shape = (-1,) + (1,) * (velocity_rhs.ndim - 1)
        v = self.inv_mass.reshape(shape) * velocity_rhs[self.velocity_idx]
        if self.lu is None:
            return v
        b = 0.0
        if pressure_rhs is not None:
            b = pressure_rhs[self.pressure_idx]
            b = b - (self.box_sums(b) / self.counts.reshape(shape))[self.cell_box]
            b = self.scale.reshape(shape) * b[self.free]
        v -= self.W_DsT @ self.lu.solve(self.Ds @ v - b)
        v -= self.W_DsT @ self.lu.solve(self.Ds @ v - b)
        return v

    def scatter(self, local) -> np.ndarray:
        """Sum one column of local velocities into a global vector; dofs
        shared by overlapping boxes add up."""
        return np.bincount(self.velocity_idx, weights=local,
                           minlength=self.n_velocity).astype(float, copy=False)

    def pressure(self, velocity_rhs) -> np.ndarray:
        """Local cell pressures, pinned cells at 0, of D W G p = D W a
        for global a (n,): G p = a by least squares in the W norm."""
        p = np.zeros(len(self.pressure_idx))
        if self.lu is not None:
            p[self.free] = self.scale * self.lu.solve(
                self.Ds @ (self.inv_mass * velocity_rhs[self.velocity_idx]))
        return p


def block_solvers(operators: MixedOperators) -> list:
    """Exact factorized saddle solvers for every coarse block of
    `operators.grid`.

    Every block has the grid's `block_size`, so blocks whose
    coefficients coincide share one factorization, which collapses the
    setup cost on fields with a uniform background.  Solver i is block
    i; it keeps its velocity dofs in the line order of its factor.
    """
    grid, coeff = operators.grid, operators.coefficient
    solvers, factors = _boxes(grid, 0), {}
    for box in solvers:
        coeff_box = coeff[box.pressure_idx]
        key = coeff_box.tobytes()
        if key not in factors:
            factors[key] = _BoxFactor(grid, box.lines, coeff_box)
        box.factor = factors[key]
    return solvers
