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
(`BlockBatch`, one dense `_BoxFactor` per distinct box) serve
preprocessing and the basis build.  The smoother's boxes, grown by an
overlap, are mass-lumped (`LumpedBatch`): each box's velocity mass is
integrated by the trapezoidal rule, which makes it diagonal and the
mixed method equal to two-point cell fluxes (Russell & Wheeler 1983;
Arbogast, Wheeler & Yotov, SINUM 34, 1997), so one sparse
`sparse_linalg.factor` of pinned cell Laplacians serves every box.
`MixedOperators` owns both for its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from . import mesh
from .sparse_linalg import SingularMatrixError, factor


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
    blocks, `smoother` the lumped saddles of the blocks grown by an
    overlap, once per overlap.
    """

    grid: mesh.CartesianTwoScaleGrid
    A: sparse.csr_matrix
    B: sparse.csr_matrix
    coefficient: np.ndarray

    def __post_init__(self):
        self._batch = None
        self._smoothers = {}

    def batch(self) -> BlockBatch:
        """`BlockBatch` of the `block_solvers` for overlap 0: the exact
        local solves of preprocessing and the basis build."""
        if self._batch is None:
            self._batch = BlockBatch(block_solvers(self),
                                     self.grid.n_velocity)
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


def bordered_saddle_matrix(A, B) -> sparse.csc_matrix:
    """[[A, B^T, 0], [B, 0, 1], [0, 1^T, 0]].

    The all-ones border on the pressure block pins the pressure mean and
    absorbs the compatibility multiplier; no dof is pinned.  It lays out
    `BlockSolver.solve` and dense reference solves; no solver factors it.
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
    definite; it is kept as the inverse L^-1 of its Cholesky factor, and
    a Schur solve is the two products L^-T (L^-1 r).  Unlike an explicit
    inverse of S, this stays backward stable at high contrast, which the
    divergence rows need.

    Instances depend on the box shape and cell coefficients only, so
    identical blocks (uniform background) share one factor.  `BlockBatch`
    solves with its arrays, numbered by `lines`: the line matrices `T`
    and `T_inv` row by row, and `L_inv` of shape (1, n, n).
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
        try:
            chol = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError as err:
            raise SingularMatrixError(
                f"box {lines.shape}: pressure Schur complement is not "
                f"positive definite ({err})") from err
        schur.T[...] = chol  # L^-1 is formed in place, in Fortran order
        self.L_inv = lapack.dtrtri(schur.T, lower=1, overwrite_c=1)[0][None]


def _held_once(factors, name):
    """Attribute `name` of the factors, concatenated; each factor keeps a
    view of its part, so the data is held once (one array: no copy)."""
    parts = [getattr(f, name) for f in factors]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    for f, part, end in zip(factors, parts, np.cumsum([len(p) for p in parts])):
        setattr(f, name, out[end - len(part):end])
    return out


@dataclass(eq=False)
class BlockSolver:
    """One coarse block grown by an overlap: its cells, its interior
    velocities in the line order of `lines`, the box shape's lines and,
    for the exact solves of overlap 0, the `_BoxFactor` of its saddle.
    Box systems keep their boxes in block order, so box i is block i.

    `solve` is the exact bordered saddle solve through a one-box
    `BlockBatch`, built on the first solve.  Right-hand sides and
    solutions are laid out as in `bordered_saddle_matrix`: [velocity;
    pressure; border], velocities in the order of `velocity_idx`.
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
        return BlockBatch([self], self.n_velocity)

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        cols = rhs.reshape(len(rhs), -1)
        nv = self.n_velocity
        v, p, mu = self._system.solve_core(cols[:nv], cols[nv:-1], cols[-1:])
        return np.vstack([v, p, mu]).reshape(rhs.shape)


def _boxes(grid, overlap: int) -> list:
    """The `BlockSolver` of every coarse block in block order, without a
    factor, oversampled by `overlap` fine layers and clipped at the
    domain boundary; boxes of one shape share their `_BoxLines`."""
    boxes, lines = [], {}
    for b in range(grid.n_blocks):
        cells = mesh.oversample(grid, b, overlap)
        lo = mesh.cell_multi(grid, cells[0])
        hi = mesh.cell_multi(grid, cells[-1])
        shape = tuple(int(h - l + 1) for l, h in zip(lo, hi))
        lines[shape] = lines.get(shape) or _BoxLines(grid, shape)
        vidx = mesh.velocity_dofs_interior_to(grid, cells)[lines[shape].order]
        boxes.append(BlockSolver(vidx, cells, lines[shape]))
    return boxes


class _BoxSystem:
    """The bordered saddles of a set of boxes as one block-diagonal system.

    Every box solves  M v + G p = a,  D v + mu 1 = b,  1^T p = tau  on
    its interior velocities and cells, where M is the box's velocity
    mass, D its divergence and G = D^T.  The local unknowns of all boxes
    are concatenated in the order of `boxes`, which is block order, so
    box i is block i, every grid line is a contiguous run of velocities
    and D is CSC with two entries per column, built by index arithmetic.
    `velocity_idx` and `pressure_idx` give the global dof of every local
    unknown, `velocity_box` and `cell_box` its box, `counts` each box's
    cells and `velocity_cells` the two local cells of every velocity.
    Subclasses supply M and M^-1 (`_mass`, `_mass_inv`) and the solve of
    the box Schur complements.
    """

    def __init__(self, boxes, n_velocity: int):
        lines = [box.lines for box in boxes]
        self.n_velocity = n_velocity
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
        self.G = self.D.T

    def box_sums(self, x):
        """Per-box sums of local cell values (rows of `x`)."""
        return np.add.reduceat(x, self.starts, axis=0)

    def _pass(self, a, b, tau):
        g = self.D @ self._mass_inv(a) - b
        # bordered Schur system S p - mu 1 = g, 1^T p = tau per box:
        # 1^T S = 0 gives mu = -mean(g), and the zero-mean solution of
        # S p0 = g + mu is shifted to the box mean tau / n
        counts = self.counts[:, None]
        mu = -self.box_sums(g) / counts
        p = self._schur_solve(g + mu[self.cell_box])
        p += (tau / counts)[self.cell_box]
        v = self._mass_inv(a - self.G @ p)
        return v, p, mu

    def solve_core(self, a, b, tau):
        """Every box saddle for local right-hand sides a, b and tau (one
        row per box) with k columns: one Schur pass, then one refinement
        pass on its residual.  Returns (v, p, mu) in the same layout."""
        v, p, mu = self._pass(a, b, tau)
        ra = a - self._mass(v) - self.G @ p
        rb = b - self.D @ v - mu[self.cell_box]
        rt = tau - self.box_sums(p)
        dv, dp, dmu = self._pass(ra, rb, rt)
        return v + dv, p + dp, mu + dmu

    def solve(self, velocity_rhs, pressure_rhs=None) -> np.ndarray:
        """Local velocities of every box saddle for global right-hand
        sides (n,) or (n, k); `pressure_rhs` None and the borders are 0."""
        a = velocity_rhs[self.velocity_idx]
        k = velocity_rhs.shape[1] if velocity_rhs.ndim > 1 else 1
        b = (np.zeros((len(self.pressure_idx), k)) if pressure_rhs is None
             else pressure_rhs[self.pressure_idx].reshape(-1, k))
        v, _, _ = self.solve_core(a.reshape(-1, k), b,
                                  np.zeros((len(self.counts), k)))
        return v.reshape(a.shape)

    def scatter(self, local) -> np.ndarray:
        """Sum one column of local velocities into a global vector; dofs
        shared by overlapping boxes add up."""
        return np.bincount(self.velocity_idx, weights=local,
                           minlength=self.n_velocity)


class BlockBatch(_BoxSystem):
    """The exact box saddles of a set of `BlockSolver`s of one shape.

    M is the exact velocity mass: its line matrices `T` and their
    inverses `T_inv` are CSR on one pattern, a dense block per line of
    length `lens`.  The Cholesky inverses of S + c 1 1^T stay dense,
    stacked as `L_inv` of shape (nboxes, n, n), and the factors keep
    views of the batch's arrays.  A solve is a dozen sparse products
    plus two `matmul`s.
    """

    def __init__(self, solvers, n_velocity: int):
        super().__init__(solvers, n_velocity)
        factors = [bs.factor for bs in solvers]
        n_loc = len(self.velocity_idx)

        # dense line blocks, stored row by row: a row of line i holds
        # columns first .. first + m[i] - 1 (int32, as scipy keeps them)
        self.lens = m = np.concatenate(
            [bs.lines.lens for bs in solvers]).astype(np.int32)
        row_len = np.repeat(m, m)
        indptr = np.cumsum(np.concatenate([[0], row_len]), dtype=np.int32)
        first = np.repeat(np.cumsum(m, dtype=np.int32) - m, m)
        indices = (np.arange(indptr[-1], dtype=np.int32)
                   + np.repeat(first - indptr[:-1], row_len))
        self.T = sparse.csr_matrix((_held_once(factors, "T"), indices, indptr),
                                   shape=(n_loc, n_loc))
        self.T_inv = sparse.csr_matrix(
            (_held_once(factors, "T_inv"), self.T.indices, self.T.indptr),
            shape=(n_loc, n_loc))
        self.L_inv = _held_once(factors, "L_inv")

    def _mass(self, v):
        return self.T @ v

    def _mass_inv(self, a):
        return self.T_inv @ a

    def _schur_solve(self, g):
        """(S + c 1 1^T)^-1 g on every box, as L^-T (L^-1 g); for g of
        zero box sums this is the zero-mean solution of S p = g."""
        L = self.L_inv
        x = g.reshape(L.shape[0], L.shape[1], -1)
        return np.matmul(L.transpose(0, 2, 1), L @ x).reshape(g.shape)


class LumpedBatch(_BoxSystem):
    """Mass-lumped box saddles of every coarse block grown by `overlap`
    fine layers: the additive smoother's local solves.

    M is the velocity mass under the trapezoidal rule: the face between
    cells of weights w_l and w_h (volume / coefficient) gets the diagonal
    entry (w_l + w_h) / 2, held as `inv_mass`.  This lumps the RT0 mass
    into the row sums of the global A, except next to the domain
    boundary, and makes the mixed method cell-centred two-point fluxes
    (Russell & Wheeler 1983; Arbogast, Wheeler & Yotov, SINUM 34, 1997):
    the Schur complement S = D M^-1 D^T of each box is a sparse 5- or
    7-point cell Laplacian.  All boxes go into one block-diagonal S with
    one cell of every box pinned, which leaves it positive definite;
    `schur_factor` is its sparse `factor`, whose scaling to unit
    diagonal makes the pivot check local to each box.  The pinned cell
    is the box's most permeable one; a pin in a low-permeability region
    would leave the permeable rest of the box nearly floating.  The
    refinement pass of `solve_core` keeps the box divergences at
    roundoff.
    """

    def __init__(self, operators: MixedOperators, overlap: int):
        grid = operators.grid
        super().__init__(_boxes(grid, overlap), grid.n_velocity)
        w = grid.cell_volume / operators.coefficient[self.pressure_idx]
        low, high = self.velocity_cells.T
        self.inv_mass = (2.0 / (w[low] + w[high]))[:, None]
        schur = (self.D @ sparse.diags(self.inv_mass[:, 0]) @ self.G).tocsr()
        # the least w in each box is its largest coefficient
        pinned = np.lexsort((w, self.cell_box))[self.starts]
        self.free = np.setdiff1d(np.arange(len(self.pressure_idx)), pinned)
        self.schur_factor = None
        if len(self.free):
            self.schur_factor = factor(schur[self.free][:, self.free])

    def _mass(self, v):
        return v / self.inv_mass

    def _mass_inv(self, a):
        return self.inv_mass * a

    def _schur_solve(self, g):
        """Zero-mean solution of S p = g on every box, for g of zero box
        sums: the pinned solve, then each box's mean removed.  The pinned
        equation holds once the others do, as 1^T S = 0."""
        p = np.zeros_like(g)
        if self.schur_factor is not None:
            p[self.free] = self.schur_factor.solve(g[self.free], refine=0)
        return p - (self.box_sums(p) / self.counts[:, None])[self.cell_box]


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
