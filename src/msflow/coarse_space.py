"""Coarse velocity spaces on the two-scale grid.

Three constructions share one layout: a prolongation column per coarse
velocity mode, each supported on the two blocks around one interior
coarse face, plus piecewise-constant coarse pressures (one indicator per
block).  Because every mode's fine-scale divergence is constant per
block, coarse divergence-free coefficient vectors prolong to exactly
divergence-free fine fields, which is what keeps the two-grid cycle on
the right subspace.

* rt0: linear normal-velocity ramp through the face, no solves; built
  by index arithmetic over all fine faces of an axis at once;
* gmsfem: a per-face spectral selection out of the snapshot family (one
  local solve per fine face on the coarse face), keeping modes whose
  trace energy is cheap relative to their neighbourhood energy;
* msfem: the unit-trace combination of the same snapshot solves, i.e.
  flux through the face distributed by local Neumann solves with unit
  normal trace and compatible constant divergence.

All faces of an axis are built together (`_FaceGroup`): their block
solves are two multi-column solves on the overlap-0 `BlockBatch`, and
the right-hand sides and S-forms come from face geometry and box data,
since a fine face couples only to its adjacent cell and to the next
velocity on that cell's grid line.  Their pencils are one stack.

The Galerkin coarse saddle (`CoarseOperator`) is small and held dense:
its velocity block and block-pressure Schur complement as inverse
Cholesky factors; no indefinite matrix is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import mesh, mixed_fem
from .sparse_linalg import (SingularMatrixError, generalized_symmetric_eig,
                            inverse_cholesky)


@dataclass(eq=False)
class SnapshotFamily:
    """All snapshots of one coarse face in compressed form.

    Column l solves the two-block Neumann problem with unit normal
    trace on fine face l of the coarse face and zero trace on the rest;
    rows are indexed by `dofs` (interior faces of the lower, then of the
    upper block, each in its box's order in `operators.batch()`, then
    the coarse-face fine faces, so the trailing J rows form an identity).
    """

    face: mesh.CoarseFace
    dofs: np.ndarray
    values: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.values.shape[1]

    def dense(self, n_velocity) -> np.ndarray:
        out = np.zeros((n_velocity, self.n_snapshots))
        out[self.dofs] = self.values
        return out


@dataclass(eq=False)
class SpectralSelection:
    """Eigenpairs of one face pencil and the retained leading block."""

    face_index: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    count: int

    @property
    def kept_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.count]


@dataclass(eq=False)
class CoarseBasis:
    """Prolongations from coarse coefficients to fine dofs."""

    kind: str
    P_v: sparse.csr_matrix
    P_p: sparse.csr_matrix
    face_mode_counts: np.ndarray | None = None
    selections: tuple = ()

    @property
    def n_velocity_modes(self) -> int:
        return self.P_v.shape[1]

    @property
    def n_pressure_modes(self) -> int:
        return self.P_p.shape[1]

    @property
    def dim(self) -> int:
        """Total coarse dimension (velocity modes plus block pressures)."""
        return self.n_velocity_modes + self.n_pressure_modes


class _FaceGroup:
    """Coarse faces of one axis and the box data of their blocks.

    The overlap-0 boxes of `operators.batch()` are the blocks, box i
    block i: one shape, disjoint, so a box is the lower (side 0) block
    of at most one face of an axis and the upper (side 1) block of at
    most one.  Per side: `boxes` of the faces, local `cells` next to
    each fine face, their mass weights `w` (cell volume / coefficient),
    and `coupled`, the local velocity beyond that cell on its grid line
    (None for blocks one cell thick along the axis).
    """

    def __init__(self, operators, faces):
        self.grid = grid = operators.grid
        self.axis, self.nf = faces[0].axis, len(faces)
        self.batch = batch = operators.batch()
        self.n_box = grid.n_blocks
        self.nv = len(batch.velocity_idx) // self.n_box
        self.nc = len(batch.pressure_idx) // self.n_box
        cell_row = np.empty(grid.n_cells, dtype=int)
        cell_row[batch.pressure_idx] = np.arange(len(batch.pressure_idx))
        self.fine = np.array([face.fine_faces for face in faces])
        adjacent = mesh.face_adjacent_cells(grid, self.fine)
        self.boxes = [np.array([face.blocks[side] for face in faces])
                      for side in (0, 1)]
        self.cells = [cell_row[c] for c in adjacent]
        self.w = [grid.cell_volume / operators.coefficient[c] for c in adjacent]
        self.coupled = None
        if grid.block_size[self.axis] > 1:
            v_row = np.empty(grid.n_velocity, dtype=int)
            v_row[batch.velocity_idx] = np.arange(len(batch.velocity_idx))
            # low face of the lower block's cell, high face of the upper's
            beyond = mesh.cell_face_ids(grid, self.axis)
            self.coupled = [v_row[beyond[side][c]]
                            for side, c in enumerate(adjacent)]

    def solve(self, trace):
        """Block solves of every face for the trace matrix (J, k), one
        `solve_core` per side: dofs and values as in `SnapshotFamily`,
        stacked to (nf, 2 nv + J) and (nf, 2 nv + J, k)."""
        batch, nv, nc, k = self.batch, self.nv, self.nc, trace.shape[1]
        area = self.grid.face_area(self.axis)
        parts = []
        for side, sign in ((0, 1.0), (1, -1.0)):
            a = np.zeros((len(batch.velocity_idx), k))
            b = np.zeros((len(batch.pressure_idx), k))
            if self.coupled is not None:
                a[self.coupled[side]] = -(self.w[side] / 6.0)[..., None] * trace
            # the compatible divergence spreads the net flux over the block
            b.reshape(self.n_box, nc, k)[self.boxes[side]] = \
                sign * area * trace.sum(axis=0) / nc
            b[self.cells[side]] -= sign * area * trace
            v, _, _ = batch.solve_core(a, b, np.zeros((self.n_box, k)))
            parts.append(v.reshape(self.n_box, nv, k)[self.boxes[side]])
        vidx = batch.velocity_idx.reshape(self.n_box, nv)
        dofs = np.concatenate([vidx[self.boxes[0]], vidx[self.boxes[1]],
                               self.fine], axis=1)
        parts.append(np.broadcast_to(trace, (self.nf,) + trace.shape))
        return dofs, np.concatenate(parts, axis=1)

    def bilinear_s(self, values):
        """`face_bilinear_s` of every face from stacked snapshot values:
        `batch.T` on the interior parts, the face-face mass diagonal, the
        1/6 couplings of the trace to the velocities beyond it, and the
        compatible divergence constants the block solves satisfy."""
        grid, nv = self.grid, self.nv
        trace = values[:, 2 * nv:]
        k = trace.shape[2]
        face_mass = (self.w[0] + self.w[1])[..., None] / 3.0
        S = trace.transpose(0, 2, 1) @ (face_mass * trace)
        # each block's nc cells diverge by +-area * (net trace) / nc
        net = trace.sum(axis=1)
        S += (2.0 * grid.face_area(self.axis) ** 2 / (self.nc * grid.cell_volume)
              * net[:, :, None] * net[:, None])
        for side in (0, 1):
            V = values[:, side * nv:(side + 1) * nv]
            full = np.zeros((self.n_box, nv, k))
            full[self.boxes[side]] = V
            full = full.reshape(-1, k)
            TV = (self.batch.T @ full).reshape(self.n_box, nv, k)
            S += V.transpose(0, 2, 1) @ TV[self.boxes[side]]
            if self.coupled is not None:
                Y = (self.w[side] / 6.0)[..., None] * full[self.coupled[side]]
                C = Y.transpose(0, 2, 1) @ trace
                S += C + C.transpose(0, 2, 1)
        return 0.5 * (S + S.transpose(0, 2, 1))


def _faces_by_axis(grid):
    faces = mesh.coarse_faces(grid)
    groups = [[f for f in faces if f.axis == axis] for axis in range(grid.dim)]
    return [group for group in groups if group]


def snapshot_face(operators, face) -> SnapshotFamily:
    """Snapshot family of one coarse face: unit trace per fine face,
    glued from the two independent block solves."""
    dofs, values = _FaceGroup(operators, [face]).solve(
        np.eye(face.n_fine))
    return SnapshotFamily(face=face, dofs=dofs[0], values=values[0])


def _trace_weights(operators, axis, fine_faces):
    """|e_l| / kappa_face(e_l) per fine face, kappa_face the harmonic
    mean across e_l."""
    grid, coeff = operators.grid, operators.coefficient
    lo, hi = mesh.face_adjacent_cells(grid, fine_faces)
    return grid.face_area(axis) * 0.5 * (1.0 / coeff[lo] + 1.0 / coeff[hi])


def face_bilinear_a(operators, face) -> np.ndarray:
    """Trace bilinear form in snapshot coordinates: diagonal with entry
    |e_l| / kappa_face(e_l), kappa_face the harmonic mean across e_l."""
    return np.diag(_trace_weights(operators, face.axis, face.fine_faces))


def face_bilinear_s(operators, family: SnapshotFamily) -> np.ndarray:
    """Neighbourhood bilinear form in snapshot coordinates: weighted
    velocity mass over the two blocks plus the divergence Gram with
    inverse cell-volume weights.

    Unscaled on purpose.  Against the trace form this puts the whole
    zero-net-flux branch of the pencil above ~H/h while net-flux and
    high-permeability channel modes stay far below, so a tolerance of
    order 10 keeps exactly the dominant modes.
    """
    group = _FaceGroup(operators, [family.face])
    return group.bilinear_s(family.values[None])[0]


def face_eigenpairs(operators, family: SnapshotFamily):
    """Ascending eigenpairs of the trace-vs-neighbourhood pencil; both
    forms see the coefficient of `operators`."""
    a = face_bilinear_a(operators, family.face)
    s = face_bilinear_s(operators, family)
    return generalized_symmetric_eig(a, s)


def select_modes(eigenvalues, eigenvectors, tol: float,
                 face_index: int = -1) -> SpectralSelection:
    """Keep ascending eigenpairs with eigenvalue <= tol, at least one."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    count = max(1, int(np.count_nonzero(eigenvalues <= tol)))
    return SpectralSelection(face_index=face_index,
                             eigenvalues=eigenvalues,
                             vectors=np.asarray(eigenvectors),
                             count=count)


def _pressure_prolongation(grid) -> sparse.csr_matrix:
    cells = np.arange(grid.n_cells)
    blocks = mesh.block_ids(grid, mesh.cell_multi(grid, cells) // grid.block_size)
    return sparse.csr_matrix((np.ones(grid.n_cells), (cells, blocks)),
                             shape=(grid.n_cells, grid.n_blocks))


def _assemble_velocity_prolongation(grid, columns):
    """columns: (dof_ids, values) per coarse face, `values` (n_dofs, k)
    with one column per coarse mode."""
    rows, cols, vals = [], [], []
    col = 0
    for dofs, values in columns:
        k = values.shape[1]
        rows.append(np.repeat(dofs, k))
        cols.append(np.tile(np.arange(col, col + k), len(dofs)))
        vals.append(values.ravel())
        col += k
    if col == 0:
        return sparse.csr_matrix((grid.n_velocity, 0))
    P = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_velocity, col),
    )
    return P.tocsr()


def build_rt0_space(grid) -> CoarseBasis:
    """Coarse-mesh lowest-order space prolonged by its linear normal
    ramp; the workhorse non-adaptive baseline.

    A fine face at layer j = (low cell + 1) mod m of its block carries 1
    on the coarse face it lies on (j = 0), else j/m toward the coarse
    face above its block and 1 - j/m toward the one below.
    """
    faces = mesh.coarse_faces(grid)
    # face_of[0 / 1, axis, b]: the coarse face above / below block b
    face_of = np.full((2, grid.dim, grid.n_blocks), -1)
    for face in faces:
        face_of[0, face.axis, face.blocks[0]] = face.index
        face_of[1, face.axis, face.blocks[1]] = face.index
    rows, cols, vals = [], [], []
    for axis in range(grid.dim):
        m = grid.block_size[axis]
        ids = np.arange(grid.axis_face_count(axis))
        low = np.stack(np.unravel_index(ids, grid.axis_face_shape(axis),
                                        order="F"), axis=-1)
        ids += grid.face_offsets[axis]
        j = (low[:, axis] + 1) % m
        block = mesh.block_ids(grid, low // grid.block_size)
        up, down = face_of[:, axis, block]
        has_up = up >= 0
        has_down = (j > 0) & (down >= 0)
        rows += [ids[has_up], ids[has_down]]
        cols += [up[has_up], down[has_down]]
        vals += [np.where(j == 0, 1.0, j / m)[has_up],
                 1.0 - j[has_down] / m]
    P_v = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_velocity, len(faces))).tocsr()
    return CoarseBasis(kind="rt0", P_v=P_v,
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.ones(len(faces), dtype=int))


def build_msfem_space(operators) -> CoarseBasis:
    """One flux mode per coarse face from unit-trace local solves.

    The all-ones combination of the snapshot family, solved as one
    right-hand side; with a uniform coefficient the local solution is
    the linear ramp, i.e. the rt0 prolongation.
    """
    grid = operators.grid
    columns = []
    for faces in _faces_by_axis(grid):
        group = _FaceGroup(operators, faces)
        columns += zip(*group.solve(np.ones((faces[0].n_fine, 1))))
    return CoarseBasis(kind="msfem",
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.ones(len(columns), dtype=int))


def build_gmsfem_space(operators, tol: float = 10.0) -> CoarseBasis:
    """Spectrally enriched space: per face keep the pencil modes with
    eigenvalue at most `tol` (at least one).  The faces of an axis share
    one size, so their snapshots, S-forms and pencils are computed as
    stacks.  A `tol` that is not positive and finite raises ValueError
    before any solve."""
    check_space("gmsfem", tol)
    grid = operators.grid
    columns = []
    selections = []
    for faces in _faces_by_axis(grid):
        group = _FaceGroup(operators, faces)
        J = faces[0].n_fine
        dofs, values = group.solve(np.eye(J))
        a = _trace_weights(operators, group.axis,
                           group.fine)[..., None] * np.eye(J)
        w, X = generalized_symmetric_eig(a, group.bilinear_s(values))
        for face, d, V, w_f, X_f in zip(faces, dofs, values, w, X):
            sel = select_modes(w_f, X_f, tol, face_index=face.index)
            selections.append(sel)
            columns.append((d, V @ sel.vectors[:, : sel.count]))
    return CoarseBasis(kind="gmsfem",
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.array([s.count for s in selections]),
                       selections=tuple(selections))


SPACE_KINDS = ("gmsfem", "msfem", "rt0")


def check_space(kind, tol: float = 10.0) -> str:
    """`kind` in lower case; ValueError unless it is in `SPACE_KINDS` (any
    case) and the gmsfem tolerance `tol` is positive and finite."""
    if not (isinstance(kind, str) and kind.lower() in SPACE_KINDS):
        raise ValueError(f"unknown coarse space kind {kind!r}; expected "
                         f"one of {', '.join(SPACE_KINDS)}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"eigenvalue tolerance tol must be positive and "
                         f"finite, got {tol!r}")
    return kind.lower()


def build_space(kind, grid, field, operators=None, tol: float = 10.0) -> CoarseBasis:
    """The coarse space `kind` on `grid`, after `check_space`.  msfem
    and gmsfem read the coefficient of `operators`; `field` serves only
    to assemble them when none are given."""
    kind = check_space(kind, tol)
    if kind == "rt0":
        return build_rt0_space(grid)
    if operators is None:
        operators = mixed_fem.assemble_operators(grid, field)
    if kind == "msfem":
        return build_msfem_space(operators)
    return build_gmsfem_space(operators, tol)


@dataclass(eq=False)
class CoarseOperator:
    """Galerkin coarse saddle  A_H v + B_H^T p = a,  B_H v = b,  held
    dense.  M_A = L_A^-1 D_A for D_A A_H D_A = L_A L_A^T, D_A =
    diag(A_H)^-1/2, gives A_H^-1 = M_A^T M_A and X = A_H^-1 B_H^T; a
    pivot L_A,kk^2 below 1e-14 (`sparse_linalg.factor`'s bound) means
    dependent basis columns.  S = B_H X is singular along the constants
    only, so with D = diag(S)^-1/2 and u = D^-1 1 / |D^-1 1|,  D S D +
    u u^T = L L^T,  and M = L^-1 D gives  p = M^T M g,  the solution of
    S p = g (g of zero sum) with w^T p = 0, w = diag(S) / trace(S).  The
    most permeable blocks, whose columns of X are the largest, so keep
    pressures near 0, and X p and B_H^T p keep their digits: only the
    returned p is shifted to zero mean, and `residual` shifts it back.
    An unscaled shift S + c 1 1^T loses the block balance on 1e+-8 bands.
    """

    basis: CoarseBasis
    A_H: sparse.csr_matrix
    B_H: sparse.csr_matrix

    def __post_init__(self):
        self.n_pressure, self.n_velocity = nb, nv = self.B_H.shape
        self.P_v_T = self.basis.P_v.T  # restricts every fine residual
        self._B = self.B_H.toarray()
        # one block: M = 0 gives p = 0; no coarse face: v is empty
        self._M_A, self._X = np.zeros((nv, nv)), np.zeros((nv, nb))
        self._M, self._w = np.zeros((nb, nb)), np.zeros(nb)
        try:
            if nv:
                A = self.A_H.toarray()
                D = A.diagonal() ** -0.5
                L_inv = inverse_cholesky(D[:, None] * A * D, "A_H")
                if not np.all(L_inv.diagonal() <= 1e7):  # NaN too
                    raise SingularMatrixError("a pivot of A_H is below 1e-14")
                self._M_A = L_inv * D
                self._X = self._M_A.T @ (self._M_A @ self._B.T)
            if nb > 1:
                S = self._B @ self._X
                d = S.diagonal()
                if not np.all(d > 0):
                    raise SingularMatrixError("a block has no coarse flux")
                r, self._w = np.sqrt(np.outer(d, d)), d / d.sum()
                L_inv = inverse_cholesky(0.5 * (S + S.T) / r + r / d.sum(),
                                         "the coarse Schur complement")
                self._M = L_inv * d ** -0.5
        except SingularMatrixError as err:
            raise SingularMatrixError(
                "coarse operator is rank deficient beyond the pressure "
                f"constant; basis columns are likely dependent ({err})"
            ) from err

    def residual(self, v, p, rhs_v, rhs_p):
        """The saddle residuals (rhs_v - A_H v - B_H^T p, rhs_p - B_H v)."""
        p = p - self._w @ p  # B_H^T 1 = 0 only to roundoff times |p|
        return rhs_v - self.A_H @ v - self._B.T @ p, rhs_p - self._B @ v

    def _pass(self, a, b):
        x = self._M_A.T @ (self._M_A @ a)
        p = self._M.T @ (self._M @ (self._B @ x - b))
        return x - self._X @ p, p

    def solve(self, rhs_v, rhs_p):
        """Coarse saddle solve -> (velocity, zero-mean pressure): one
        Schur pass, then one on the saddle residual.  `rhs_p` must sum
        to zero; either right-hand side may be None for zero."""
        a = np.zeros(self.n_velocity) if rhs_v is None else rhs_v
        b = np.zeros(self.n_pressure) if rhs_p is None else rhs_p
        v, p = self._pass(a, b)
        dv, dp = self._pass(*self.residual(v, p, a, b))
        p += dp
        return v + dv, p - p.mean()


def coarse_operator(basis: CoarseBasis, operators) -> CoarseOperator:
    """Re-Galerkinize the fine operators onto a coarse basis.

    Cheap relative to basis construction, so a frozen basis can be
    re-projected whenever the coefficient moves (two-phase mobility).
    """
    A_H = (basis.P_v.T @ (operators.A @ basis.P_v)).tocsr()
    B_H = (basis.P_p.T @ (operators.B @ basis.P_v)).tocsr()
    return CoarseOperator(basis=basis, A_H=A_H, B_H=B_H)
