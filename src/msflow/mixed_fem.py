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
block-diagonal system, their unknowns numbered by `_box_layout`.  The
exact solves of the coarse blocks (`BlockBatch`: the line matrices of
one block's `_BoxLines` template tiled over the blocks, and a dense
`_BoxFactor` with its inverse Cholesky factor, held once per distinct
block and applied to all its blocks at once) serve the msfem and gmsfem
basis build only, which hands them box-local right-hand sides.  The
other boxes, the smoother's and those of preprocessing and recovery,
are mass-lumped (`LumpedBatch`) and held color by color, so that the
boxes of one color share no velocity:
each box's velocity mass is integrated by the trapezoidal rule, which
makes it diagonal and the mixed method equal to two-point cell fluxes
(Russell & Wheeler 1983; Arbogast, Wheeler & Yotov, SINUM 34, 1997), so
one sparse `sparse_linalg.factor` of pinned cell Laplacians serves the
boxes of a color, and a lumped solve is two solves with it and four
sparse products.  `MixedOperators` owns both for its coefficient.
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
        area = grid.face_areas[axis]
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
    """Grid lines of the grid's block shape, in `_box_layout`'s numbering
    of one box: its velocities normal to axis a, F-ordered on the lattice
    of the block's extents less one along a, and its cells, F-ordered on
    the block.  `axes` holds (velocities, cells, G) of every axis the
    block is at least two cells long on: row i is line i of the lattice
    with axis a moved last, and G the divergence of a line, shape
    (cells, velocities).  `indptr` and `indices` are the CSR pattern of
    the block's line blocks, a dense block per line, and `entries` takes
    the entries of those blocks, line by line and row by row, to that
    pattern's order.  Velocity i joins the local cells `cells[i]` with
    divergence entries `div[i]` (+area, -area)."""

    def __init__(self, grid):
        shape = np.array(grid.block_size)
        self.n_cells = int(np.prod(shape))
        lattices = shape - np.eye(grid.dim, dtype=int)
        sizes = np.prod(lattices, axis=1)
        self.n_velocity = int(sizes.sum())
        self.cells = np.zeros((self.n_velocity, 2), dtype=int)
        self.div = np.zeros((self.n_velocity, 2))
        cell_ids = np.arange(self.n_cells).reshape(shape, order="F")
        # the empty first parts serve blocks without velocity dofs
        self.axes, indices, entries = [], [np.zeros(0, int)], [np.zeros(0, int)]
        first = start = 0  # the first velocity and line block entry of axis a
        for a, m in enumerate(shape - 1):
            if not m:  # a one-cell axis has no velocity normal to it
                continue
            velocities = np.moveaxis(np.arange(first, first + sizes[a]).reshape(
                lattices[a], order="F"), a, -1).reshape(-1, m)
            cells = np.moveaxis(cell_ids, a, -1).reshape(-1, m + 1)
            area = grid.face_areas[a]
            self.axes.append((velocities, cells,
                              area * (np.eye(m + 1, m) - np.eye(m + 1, m, -1))))
            self.cells[velocities] = np.stack([cells[:, :-1], cells[:, 1:]], -1)
            self.div[first:first + sizes[a]] = area, -area
            # row velocities[i, j] is row j of line i's block, in the
            # columns velocities[i]; CSR takes the rows in ascending order
            # (by a scatter: an argsort's SIMD kernels page in 0.4 MB)
            rows = np.empty(sizes[a], int)
            rows[velocities.ravel() - first] = np.arange(sizes[a])
            indices.append(np.repeat(velocities, m, axis=0)[rows].ravel())
            entries.append(start + np.arange(sizes[a] * m).reshape(
                -1, m)[rows].ravel())
            first, start = first + sizes[a], start + sizes[a] * m
        self.indptr = np.cumsum(np.append(0, np.repeat(shape - 1, sizes)),
                                dtype=np.int32)
        self.indices = np.concatenate(indices).astype(np.int32)
        self.entries = np.concatenate(entries)


class _BoxFactor:
    """Factors of the bordered saddle on a coarse block.

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

    Instances depend on the cell coefficients only, so identical blocks
    (uniform background) share one factor.  It owns its arrays, numbered
    by `lines`: the line matrices `T` and `T_inv` as the data of the
    lines' CSR pattern and the (n, n) `L_inv`, which `BlockBatch` copies
    once.
    """

    def __init__(self, grid, lines: _BoxLines, coeff_box: np.ndarray):
        self.lines = lines
        w = grid.cell_volume / np.asarray(coeff_box, dtype=float)
        parts = [(np.zeros(0), np.zeros(0))]
        schur = np.zeros((lines.n_cells,) * 2)
        for _, ids, G in lines.axes:
            w_lines = w[ids]
            j = np.arange(ids.shape[1] - 1)
            T = np.zeros((len(ids), len(j), len(j)))
            T[:, j, j] = (w_lines[:, :-1] + w_lines[:, 1:]) / 3.0
            T[:, j[1:], j[:-1]] = T[:, j[:-1], j[1:]] = w_lines[:, 1:-1] / 6.0
            T_inv = np.linalg.inv(T)
            parts.append((T.ravel(), T_inv.ravel()))
            # Schur contribution G T^-1 G^T, a dense block per line; the
            # lines of one axis are disjoint, so no entry of the
            # fancy-indexed sum repeats
            schur[ids[:, :, None], ids[:, None, :]] += G @ T_inv @ G.T

        self.T, self.T_inv = (np.concatenate(p)[lines.entries]
                              for p in zip(*parts))
        # c = trace / n^2 puts the constant mode of S + c 1 1^T among the
        # others, at the mean diagonal entry
        schur += np.trace(schur) / schur.size or 1.0
        self.L_inv = inverse_cholesky(
            schur, f"box {grid.block_size}: pressure Schur complement")


@dataclass(eq=False)
class BlockSolver:
    """One coarse block: its cells and interior velocities, numbered as
    `_box_layout` numbers a box, and the `_BoxFactor` of its saddle.

    `solve` is the exact saddle solve of the block through a one-box
    `BlockBatch`, built on the first solve, of the bordered system
    [[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]]  with the box's mass A and
    divergence B; the all-ones border pins the pressure mean and absorbs
    the compatibility multiplier.  Right-hand sides and solutions, (size,)
    or (size, k), are [velocity; pressure; border], velocities in the
    order of `velocity_idx`.
    """

    velocity_idx: np.ndarray
    pressure_idx: np.ndarray
    factor: _BoxFactor

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


def _box_layout(grid, lo, hi) -> tuple:
    """Interior velocities and cells of the boxes [lo, hi), one row per
    box, concatenated box by box, by index arithmetic on all boxes at
    once: the global cell of every local cell, F-ordered in its box, and
    of every local velocity, axis by axis and F-ordered in its box's
    face lattice, with its two box-local cells and its divergence
    entries there (+area, -area).  Returns (velocity_idx, pressure_idx,
    velocities per box, cells per box, velocity cells, velocity
    divergence entries): the first four are what `_BoxSystem` takes."""
    dim, n = grid.dim, len(lo)
    extent = hi - lo
    strides = np.cumprod(np.column_stack([np.ones(n, int), extent[:, :-1]]),
                         axis=1)
    counts = np.prod(extent, axis=1)
    box = np.repeat(np.arange(n), counts)
    t = np.arange(len(box)) - (np.cumsum(counts) - counts)[box]
    cells = 0
    for j, stride in enumerate(np.cumprod((1,) + grid.fine[:-1])):
        cells = cells + (lo[box, j] + t % extent[box, j]) * stride
        t //= extent[box, j]

    # the faces normal to axis a of a box form the lattice of its
    # extents less one along a; segment (box, a) holds them
    lattice = (extent[:, None, :] - np.eye(dim, dtype=int)).reshape(-1, dim)
    sizes = np.prod(lattice, axis=1)
    segment = np.repeat(np.arange(n * dim), sizes)
    box, axis = np.divmod(segment, dim)
    t = np.arange(len(segment)) - (np.cumsum(sizes) - sizes)[segment]
    face_strides = np.array([np.cumprod((1,) + grid.axis_face_shape(a)[:-1])
                             for a in range(dim)])
    faces = np.array(grid.face_offsets)[axis]
    low = 0
    for j in range(dim):
        m = t % lattice[segment, j]
        t //= lattice[segment, j]
        faces += (lo[box, j] + m) * face_strides[axis, j]
        low = low + m * strides[box, j]
    area = np.array(grid.face_areas)[axis]
    return (faces, cells, sizes.reshape(n, dim).sum(axis=1), counts,
            np.column_stack([low, low + strides[box, axis]]),
            np.column_stack([area, -area]))


class _BoxSystem:
    """Boxes of interior velocities and cells as one block-diagonal
    system, their local unknowns concatenated box by box.
    `velocity_idx` and `pressure_idx` give the global dof of every local
    unknown, `velocity_box` and `cell_box` its box, and `counts` each
    box's cells.
    """

    def __init__(self, velocity_idx, pressure_idx, n_velocity, counts):
        self.velocity_idx, self.pressure_idx = velocity_idx, pressure_idx
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.velocity_box = np.repeat(np.arange(len(counts)), n_velocity)
        self.cell_box = np.repeat(np.arange(len(counts)), counts)

    def _local_cells(self, box_cells):
        """The two cells of every velocity, from box-local numbers to
        the system's, in place."""
        box_cells += self.starts[self.velocity_box][:, None]
        return box_cells

    def box_sums(self, x):
        """Per-box sums of local cell values (rows of `x`)."""
        return np.add.reduceat(x, self.starts, axis=0)


class BlockBatch(_BoxSystem):
    """The exact box saddles of a set of `BlockSolver`s.

    Every box solves  M v + G p = a,  D v + mu 1 = b,  1^T p = tau  on
    its interior velocities and cells, with G = D^T and M the exact
    velocity mass.  The boxes are blocks, so they share one `_BoxLines`:
    D, the line matrices `T` and their inverses `T_inv` tile its one-box
    patterns over the boxes, the latter two CSR with each box's
    `_BoxFactor` data.  The Cholesky inverses of S + c 1 1^T stay dense,
    one per distinct `_BoxFactor`: `groups` pairs a copy of each factor's
    `L_inv` with the local cells of its boxes, shape (n, boxes), so a
    solve is a dozen sparse products plus two dense ones per factor.  Its
    one solve, `solve_core`, takes and returns box-local unknowns; the
    boxes are disjoint and nothing scatters them.
    """

    def __init__(self, solvers):
        lines = solvers[0].factor.lines
        n, nv = len(solvers), lines.n_velocity
        super().__init__(
            np.concatenate([bs.velocity_idx for bs in solvers]),
            np.concatenate([bs.pressure_idx for bs in solvers]),
            np.full(n, nv), np.full(n, lines.n_cells))
        # D is CSC with two entries per column
        n_loc = n * nv
        cells = self._local_cells(np.tile(lines.cells, (n, 1)))
        self.D = sparse.csc_matrix(
            (np.tile(lines.div.ravel(), n), cells.ravel(),
             np.arange(0, 2 * n_loc + 1, 2)),
            shape=(len(self.pressure_idx), n_loc))
        self.G = self.D.T

        # box i's rows and columns of the line blocks are shifted by i nv
        box = np.arange(n, dtype=np.int32)[:, None]
        nnz = lines.indptr[-1]
        indptr = np.append(lines.indptr[:-1] + nnz * box, n * nnz)
        indices = (lines.indices + nv * box).ravel()
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


def _box_colors(lo, hi) -> np.ndarray:
    """Greedy colors of the boxes [lo, hi), one row each, in their
    order: a box takes the least color of no earlier box it shares a
    cell with.  Boxes of one color then share no velocity, nor an entry
    of the velocity mass.  On blocks at least twice the overlap wide
    this is the parity coloring, 2**d colors; disjoint boxes get one."""
    shared = np.all((lo[:, None] < hi) & (lo < hi[:, None]), axis=-1)
    colors = []
    for b, row in enumerate(shared):
        taken = {colors[j] for j in np.flatnonzero(row[:b])}
        colors.append(min(set(range(len(taken) + 1)) - taken))
    return np.array(colors)


def _pinned_schur(velocity_cells, velocity_div, inv_mass, row, n_free):
    """The free rows D_f of the box divergences, column by column, and
    D_f W D_f^T, both by index arithmetic; `row` is the free row of every
    local cell, -1 when pinned.  Returns (indptr, rows, div, w div) of
    D_f, as CSC by velocity with the weighted entries W D_f^T alongside,
    and (indptr, rows, data) of the Laplacian, CSC by free cell."""
    rows = row[velocity_cells]
    kept = rows >= 0
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
    joins = indptr[:-1][kept.all(axis=1)]
    rows, div = rows[kept], velocity_div[kept]
    w_div = np.repeat(inv_mass, np.diff(indptr)) * div
    # each velocity adds w area^2 to the diagonal of its free cells, and
    # joins two free cells by one off-diagonal pair (two cells share at
    # most one face)
    diag = np.arange(n_free, dtype=np.int32)
    low, high = rows[joins], rows[joins + 1]
    off = w_div[joins] * div[joins + 1]
    col = np.concatenate([diag, low, high])
    entry = np.argsort(col, kind="stable")
    laplacian = (
        np.searchsorted(col[entry], np.arange(n_free + 1)).astype(np.int32),
        np.concatenate([diag, high, low])[entry],
        np.concatenate([np.bincount(rows, w_div * div, n_free), off, off])[entry])
    return (indptr, rows, div, w_div), laplacian


class _LumpedColor:
    """The boxes of one color of a `LumpedBatch`: its local velocities
    `velocities` and free cells `free` (slices of the batch's), the
    global dofs `idx` of those velocities, which never repeat, and the
    color's lumped Schur system.  `lu` is the `sparse_linalg.factor` of
    its pinned cell Laplacian (None when no cell is free, and then no
    box has a velocity), whose scaling `scale` is folded into `Ds` =
    scale D_f and `W_DsT` = W Ds^T; both share one index pattern.
    """

    def __init__(self, batch, velocities, free, d_f, laplacian):
        self.velocities, self.free = velocities, free
        self.idx = batch.velocity_idx[velocities]
        self.inv_mass = batch.inv_mass[velocities]
        self.lu = None
        n_free = free.stop - free.start
        if not n_free:
            return
        # the color's slices of the batch's D_f (by velocity) and
        # Laplacian (by free cell), renumbered from its first free cell
        indptr, rows, div, w_div = d_f
        first, last = indptr[velocities.start], indptr[velocities.stop]
        ptr = indptr[velocities.start:velocities.stop + 1] - first
        rows = rows[first:last] - free.start
        L_ptr, L_rows, L_data = laplacian
        a, b = L_ptr[free.start], L_ptr[free.stop]
        f = factor(sparse.csc_matrix(
            (L_data[a:b], L_rows[a:b] - free.start,
             L_ptr[free.start:free.stop + 1] - a), shape=(n_free, n_free)))
        self.lu, self.scale = f.lu, f.scale
        scale = f.scale[rows]
        shape = (n_free, len(self.idx))
        self.Ds = sparse.csc_matrix((scale * div[first:last], rows, ptr),
                                    shape=shape)
        self.W_DsT = sparse.csr_matrix((scale * w_div[first:last], rows, ptr),
                                       shape=shape[::-1])

    def solve(self, a, b=None):
        """Local velocities of the color's box saddles for its local
        right-hand sides: `a` on its velocities, (n,) or (n, k), and `b`
        on its free cells less the box means (None is 0)."""
        shape = (-1,) + (1,) * (a.ndim - 1)
        v = self.inv_mass.reshape(shape) * a
        if self.lu is None:
            return v
        b = 0.0 if b is None else self.scale.reshape(shape) * b
        v -= self.W_DsT @ self.lu.solve(self.Ds @ v - b)
        v -= self.W_DsT @ self.lu.solve(self.Ds @ v - b)
        return v


class LumpedBatch(_BoxSystem):
    """Mass-lumped box saddles  M v + G p = a,  D v + mu 1 = b  of every
    coarse block grown by `overlap` fine layers: the smoother's solves,
    and at overlap 0 preprocessing's and pressure recovery's.

    The boxes are colored (`_box_colors`) and held color by color, in
    block order within a color: `blocks` is the block of each box, and
    `colors` (`_LumpedColor`) cover contiguous ranges of boxes, local
    velocities and free cells.  The boxes of one color share no
    velocity, so a color's solution adds into a global vector without
    summing.  At overlap 0 the boxes are disjoint: one color, in block
    order, so box i is block i.

    M is the trapezoidal-rule velocity mass: the face between cells of
    weights w_l and w_h (volume / coefficient) gets the diagonal entry
    (w_l + w_h) / 2, whose inverse W is `inv_mass`.  Each box's Schur
    complement D W G is then a sparse cell Laplacian, singular along the
    box constants, which G annihilates; so pinning one cell per box, its
    most permeable (a pin in a low-permeability region would leave the
    permeable rest of the box nearly floating), gives the free rows D_f
    (`free`) and a positive definite D_f W D_f^T, block diagonal by
    color.  Each color factors its own block, whose scaling s to unit
    diagonal keeps the pivot check local to each box.  A solve is the
    Schur pass v = W a - W Ds^T lu^-1 (Ds W a - s b~), b~ being b less
    its box means (which is mu), then the divergence-only pass
    v -= W Ds^T lu^-1 (Ds v - s b~), which keeps the box divergences at
    roundoff.
    """

    def __init__(self, operators: MixedOperators, overlap: int):
        grid = operators.grid
        lo, hi = mesh.grown_blocks(grid, np.arange(grid.n_blocks), overlap)
        colors = _box_colors(lo, hi)
        self.blocks = np.argsort(colors, kind="stable")
        *layout, cells, div = _box_layout(grid, lo[self.blocks],
                                          hi[self.blocks])
        super().__init__(*layout)
        cells = self._local_cells(cells)
        w = grid.cell_volume / operators.coefficient[self.pressure_idx]
        low, high = cells.T
        self.inv_mass = 2.0 / (w[low] + w[high])
        # the least w in each box is its largest coefficient; every
        # local cell gets its free row, -1 when pinned
        pinned = np.lexsort((w, self.cell_box))[self.starts]
        row = np.ones(len(w), dtype=np.int32)
        row[pinned] = 0
        row = np.cumsum(row, dtype=np.int32) - 1
        row[pinned] = -1
        self.free = np.flatnonzero(row >= 0)
        d_f, laplacian = _pinned_schur(cells, div, self.inv_mass, row,
                                       len(self.free))
        del cells, div  # freed before the factors, which set the peak

        # each color's first box, local velocity and free cell
        first = np.searchsorted(colors[self.blocks], np.arange(max(colors) + 2))
        velocity = np.searchsorted(self.velocity_box, first)
        free = np.searchsorted(self.cell_box, first) - first
        self.colors = [
            _LumpedColor(self, slice(*velocity[c:c + 2]), slice(*free[c:c + 2]),
                         d_f, laplacian)
            for c in range(len(first) - 1)]

    def solve(self, velocity_rhs, pressure_rhs=None) -> np.ndarray:
        """Local velocities of every box saddle for global right-hand
        sides (n,) or (n, k); `pressure_rhs` None is 0."""
        a = velocity_rhs[self.velocity_idx]
        b = None
        if pressure_rhs is not None:
            shape = (-1,) + (1,) * (velocity_rhs.ndim - 1)
            b = pressure_rhs[self.pressure_idx]
            b = b - (self.box_sums(b) / self.counts.reshape(shape))[self.cell_box]
            b = b[self.free]
        return np.concatenate([
            color.solve(a[color.velocities],
                        None if b is None else b[color.free])
            for color in self.colors])

    def pressure(self, velocity_rhs) -> np.ndarray:
        """Local cell pressures, pinned cells at 0, of D W G p = D W a
        for global a (n,): G p = a by least squares in the W norm."""
        p = np.zeros(len(self.pressure_idx))
        a = self.inv_mass * velocity_rhs[self.velocity_idx]
        for color in self.colors:
            if color.lu is not None:
                p[self.free[color.free]] = color.scale * color.lu.solve(
                    color.Ds @ a[color.velocities])
        return p


def block_solvers(operators: MixedOperators) -> list:
    """Exact factorized saddle solvers for every coarse block of
    `operators.grid`.

    Every block has the grid's `block_size`, so blocks whose
    coefficients coincide share one factorization, which collapses the
    setup cost on fields with a uniform background.  Solver i is block
    i, its unknowns row i of `_box_layout`'s, which the one `_BoxLines`
    of the block shape indexes.
    """
    grid, coeff = operators.grid, operators.coefficient
    n = grid.n_blocks
    velocity_idx, pressure_idx = _box_layout(
        grid, *mesh.grown_blocks(grid, np.arange(n), 0))[:2]
    lines, factors, solvers = _BoxLines(grid), {}, []
    for v, cells in zip(velocity_idx.reshape(n, -1),
                        pressure_idx.reshape(n, -1)):
        coeff_box = coeff[cells]
        key = coeff_box.tobytes()
        if key not in factors:
            factors[key] = _BoxFactor(grid, lines, coeff_box)
        solvers.append(BlockSolver(v, cells, factors[key]))
    return solvers
