"""Coarse velocity spaces on the two-scale grid.

Three constructions share one layout: a prolongation column per coarse
velocity mode, each supported on the two blocks around one interior
coarse face, plus piecewise-constant coarse pressures (one indicator per
block).  Because every mode's fine-scale divergence is constant per
block, coarse divergence-free coefficient vectors prolong to exactly
divergence-free fine fields, which is what keeps the two-grid cycle on
the right subspace.

* rt0: linear normal-velocity ramp through the face, no solves;
* msfem: flux through the face distributed by local Neumann solves with
  unit normal trace and compatible constant divergence;
* gmsfem: a per-face spectral selection out of the snapshot family (one
  local solve per fine face on the coarse face), keeping modes whose
  trace energy is cheap relative to their neighbourhood energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import mesh, mixed_fem
from .sparse_linalg import (SingularMatrixError, factor,
                            generalized_symmetric_eig)


@dataclass(eq=False)
class SnapshotFamily:
    """All snapshots of one coarse face in compressed form.

    Column l solves the two-block Neumann problem with unit normal
    trace on fine face l of the coarse face and zero trace on the rest;
    rows are indexed by `dofs` (interior faces of both blocks, then the
    coarse-face fine faces, so the trailing J rows form an identity).
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
    grid: mesh.CartesianTwoScaleGrid
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


def _block_trace_solve(grid, operators, solver, e_ids, trace):
    """Solve one block's Neumann problem with prescribed normal trace.

    `trace` is (J, k): prescribed dof values on the coarse-face fine
    faces for k right-hand sides.  The compatible constant divergence is
    determined by the net trace flux over the block boundary; its sign
    is resolved by whether the block sits below or above the face.
    """
    nv, npr = solver.n_velocity, solver.n_pressure
    area = grid.face_area(_face_axis(grid, e_ids))
    block_volume = npr * grid.cell_volume
    lo_cells, _ = mesh.face_adjacent_cells(grid, e_ids)
    in_block = np.isin(lo_cells, solver.pressure_idx)
    sign = 1.0 if in_block.all() else -1.0
    net_flux = sign * area * trace.sum(axis=0)
    rhs = np.zeros((solver.size, trace.shape[1]))
    if nv:
        rhs[:nv] = -(operators.A[solver.velocity_idx][:, e_ids] @ trace)
    rhs[nv:-1] = (net_flux / block_volume) * grid.cell_volume \
        - operators.B[solver.pressure_idx][:, e_ids] @ trace
    sol = solver.solve(rhs)
    return sol[:nv]


def _face_axis(grid, e_ids):
    for axis in range(grid.dim):
        start = grid.face_offsets[axis]
        if start <= e_ids[0] < start + grid.axis_face_count(axis):
            return axis
    raise ValueError("face id out of range")


def snapshot_face(grid, operators, face, block_solvers=None) -> SnapshotFamily:
    """Snapshot family of one coarse face: unit trace per fine face,
    glued from the two independent block solves."""
    e_ids = face.fine_faces
    J = len(e_ids)
    eye = np.eye(J)
    dof_parts, val_parts = [], []
    if block_solvers is None:
        block_solvers = mixed_fem.block_solvers(grid, operators)
    for block in face.blocks:
        solver = block_solvers[block]
        v = _block_trace_solve(grid, operators, solver, e_ids, eye)
        dof_parts.append(solver.velocity_idx)
        val_parts.append(v)
    dof_parts.append(e_ids)
    val_parts.append(eye)
    return SnapshotFamily(face=face, dofs=np.concatenate(dof_parts),
                          values=np.vstack(val_parts))


def face_bilinear_a(grid, field, face) -> np.ndarray:
    """Trace bilinear form in snapshot coordinates: diagonal with entry
    |e_l| / kappa_face(e_l), kappa_face the harmonic mean across e_l."""
    coeff = field.coefficient()
    lo, hi = mesh.face_adjacent_cells(grid, face.fine_faces)
    inv_face = 0.5 * (1.0 / coeff[lo] + 1.0 / coeff[hi])
    return np.diag(grid.face_area(face.axis) * inv_face)


def face_bilinear_s(grid, operators, family: SnapshotFamily) -> np.ndarray:
    """Neighbourhood bilinear form in snapshot coordinates: weighted
    velocity mass over the two blocks plus the divergence Gram with
    inverse cell-volume weights.

    Unscaled on purpose.  Against the trace form this puts the whole
    zero-net-flux branch of the pencil above ~H/h while net-flux and
    high-permeability channel modes stay far below, so a tolerance of
    order 10 keeps exactly the dominant modes.
    """
    sup = family.dofs
    V = family.values
    A_sub = operators.A[sup][:, sup]
    term_mass = V.T @ (A_sub @ V)
    cells = mesh.neighborhood_cells(grid, family.face)
    BV = operators.B[cells][:, sup] @ V
    term_div = (BV.T @ BV) / grid.cell_volume
    S = term_mass + term_div
    return 0.5 * (S + S.T)


def face_eigenpairs(grid, field, operators, family: SnapshotFamily):
    """Ascending eigenpairs of the trace-vs-neighbourhood pencil."""
    a = face_bilinear_a(grid, field, family.face)
    s = face_bilinear_s(grid, operators, family)
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
    rows = []
    cols = []
    for b in range(grid.n_blocks):
        cells = mesh.block_cells(grid, b)
        rows.append(cells)
        cols.append(np.full(len(cells), b))
    P = sparse.coo_matrix(
        (np.ones(grid.n_cells), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_cells, grid.n_blocks),
    )
    return P.tocsr()


def _assemble_velocity_prolongation(grid, columns):
    """columns: list of (dof_ids, values[, values...]) per coarse face,
    values possibly a matrix whose columns are separate modes."""
    rows, cols, vals = [], [], []
    col = 0
    for dofs, block in columns:
        block = np.atleast_2d(block.T).T  # (n_dofs, k)
        k = block.shape[1]
        for j in range(k):
            rows.append(dofs)
            cols.append(np.full(len(dofs), col))
            vals.append(block[:, j])
            col += 1
    if col == 0:
        return sparse.csr_matrix((grid.n_velocity, 0))
    P = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_velocity, col),
    )
    return P.tocsr()


def build_rt0_space(grid) -> CoarseBasis:
    """Coarse-mesh lowest-order space prolonged by its linear normal
    ramp; the workhorse non-adaptive baseline."""
    columns = []
    for face in mesh.coarse_faces(grid):
        m = grid.block_size[face.axis]
        dofs = [face.fine_faces]
        vals = [np.ones(len(face.fine_faces))]
        for side, block in enumerate(face.blocks):
            bmul = mesh.block_multi(grid, block)
            for j in range(1, m):
                ids = _block_layer_faces(grid, face.axis, bmul, j)
                frac = j / m if side == 0 else 1.0 - j / m
                dofs.append(ids)
                vals.append(np.full(len(ids), frac))
        columns.append((np.concatenate(dofs), np.concatenate(vals)))
    counts = np.ones(len(columns), dtype=int)
    return CoarseBasis(kind="rt0", grid=grid,
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=counts)


def _block_layer_faces(grid, axis, block_multi_idx, offset):
    """Faces normal to `axis` at fine-layer `offset` inside a block
    (offset counted from the block's low side, 0 < offset < m)."""
    m = grid.block_size
    ranges = []
    for a in range(grid.dim):
        base = block_multi_idx[a] * m[a]
        if a == axis:
            ranges.append(np.array([base + offset - 1]))
        else:
            ranges.append(np.arange(base, base + m[a]))
    meshed = np.meshgrid(*ranges, indexing="ij")
    multi = np.stack([mm.ravel(order="F") for mm in meshed], axis=-1)
    return np.asarray(mesh.face_id_from_low_cell(grid, axis, multi))


def build_msfem_space(grid, field, operators=None) -> CoarseBasis:
    """One flux mode per coarse face from unit-trace local solves.

    Equals the all-ones combination of the snapshot family; with a
    uniform coefficient the local solution is the linear ramp, i.e. the
    rt0 prolongation.
    """
    if operators is None:
        operators = mixed_fem.assemble_operators(grid, field)
    solvers = mixed_fem.block_solvers(grid, operators)
    columns = []
    for face in mesh.coarse_faces(grid):
        e_ids = face.fine_faces
        ones = np.ones((len(e_ids), 1))
        dofs = [e_ids]
        vals = [np.ones(len(e_ids))]
        for block in face.blocks:
            solver = solvers[block]
            v = _block_trace_solve(grid, operators, solver, e_ids, ones)
            dofs.append(solver.velocity_idx)
            vals.append(v[:, 0])
        columns.append((np.concatenate(dofs), np.concatenate(vals)))
    counts = np.ones(len(columns), dtype=int)
    return CoarseBasis(kind="msfem", grid=grid,
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=counts)


def build_gmsfem_space(grid, field, operators=None, tol: float = 10.0) -> CoarseBasis:
    """Spectrally enriched space: per face keep the pencil modes with
    eigenvalue at most `tol` (at least one)."""
    if operators is None:
        operators = mixed_fem.assemble_operators(grid, field)
    solvers = mixed_fem.block_solvers(grid, operators)
    columns = []
    selections = []
    counts = []
    for face in mesh.coarse_faces(grid):
        family = snapshot_face(grid, operators, face, block_solvers=solvers)
        w, X = face_eigenpairs(grid, field, operators, family)
        sel = select_modes(w, X, tol, face_index=face.index)
        selections.append(sel)
        counts.append(sel.count)
        modes = family.values @ sel.vectors[:, : sel.count]
        columns.append((family.dofs, modes))
    return CoarseBasis(kind="gmsfem", grid=grid,
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.asarray(counts),
                       selections=tuple(selections))


def build_space(kind, grid, field, operators=None, tol: float = 10.0) -> CoarseBasis:
    kind = kind.lower()
    if kind == "rt0":
        return build_rt0_space(grid)
    if kind == "msfem":
        return build_msfem_space(grid, field, operators)
    if kind == "gmsfem":
        return build_gmsfem_space(grid, field, operators, tol)
    raise ValueError(f"unknown coarse space kind {kind!r}")


@dataclass(eq=False)
class CoarseOperator:
    """Galerkin coarse saddle operator with its bordered factorization."""

    basis: CoarseBasis
    A_H: sparse.csr_matrix
    B_H: sparse.csr_matrix
    factorization: object

    @property
    def n_velocity(self) -> int:
        return self.A_H.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.B_H.shape[0]

    def solve(self, rhs_v, rhs_p):
        """Bordered coarse solve -> (velocity coeffs, pressure coeffs,
        multiplier).  Either right-hand side may be None for zero."""
        if rhs_v is None:
            rhs_v = np.zeros(self.n_velocity)
        if rhs_p is None:
            rhs_p = np.zeros(self.n_pressure)
        rhs = np.concatenate([rhs_v, rhs_p, [0.0]])
        sol = self.factorization.solve(rhs)
        nv = self.n_velocity
        return sol[:nv], sol[nv:-1], float(sol[-1])


def coarse_operator(basis: CoarseBasis, operators) -> CoarseOperator:
    """Re-Galerkinize the fine operators onto a coarse basis.

    Cheap relative to basis construction, so a frozen basis can be
    re-projected whenever the coefficient moves (two-phase mobility).
    """
    A_H = (basis.P_v.T @ (operators.A @ basis.P_v)).tocsr()
    B_H = (basis.P_p.T @ (operators.B @ basis.P_v)).tocsr()
    bordered = mixed_fem.bordered_saddle_matrix(A_H, B_H)
    try:
        fact = factor(bordered)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            "coarse operator is rank deficient beyond the pressure "
            f"constant; basis columns are likely dependent ({err})"
        ) from err
    return CoarseOperator(basis=basis, A_H=A_H, B_H=B_H, factorization=fact)
