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

The snapshot family and msfem share one gluing of the two block solves
of a face (`_face_solve`), with the identity and the all-ones trace
matrix respectively.
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


def _block_trace_solve(grid, operators, solver, face, side, trace):
    """Solve one block's Neumann problem with prescribed normal trace.

    `trace` is (J, k): prescribed dof values on the coarse-face fine
    faces for k right-hand sides.  The compatible constant divergence is
    determined by the net trace flux over the block boundary; its sign
    is resolved by whether the block sits below (`side` 0) or above
    (`side` 1) the face.
    """
    e_ids = face.fine_faces
    nv, npr = solver.n_velocity, solver.n_pressure
    block_volume = npr * grid.cell_volume
    sign = 1.0 if side == 0 else -1.0
    net_flux = sign * grid.face_area(face.axis) * trace.sum(axis=0)
    rhs = np.zeros((solver.size, trace.shape[1]))
    if nv:
        rhs[:nv] = -(operators.A[solver.velocity_idx][:, e_ids] @ trace)
    rhs[nv:-1] = (net_flux / block_volume) * grid.cell_volume \
        - operators.B[solver.pressure_idx][:, e_ids] @ trace
    sol = solver.solve(rhs)
    return sol[:nv]


def _face_solve(grid, operators, face, trace):
    """Glue the two block solves of a coarse face for the trace matrix
    `trace` (J, k): (dofs, values) with one column of values per trace
    column, the interior dofs of both blocks first, then the face's."""
    dof_parts, val_parts = [], []
    for side, block in enumerate(face.blocks):
        solver = operators.solvers(0)[block]
        dof_parts.append(solver.velocity_idx)
        val_parts.append(_block_trace_solve(grid, operators, solver, face,
                                            side, trace))
    dof_parts.append(face.fine_faces)
    val_parts.append(trace)
    return np.concatenate(dof_parts), np.vstack(val_parts)


def snapshot_face(grid, operators, face) -> SnapshotFamily:
    """Snapshot family of one coarse face: unit trace per fine face,
    glued from the two independent block solves."""
    dofs, values = _face_solve(grid, operators, face, np.eye(face.n_fine))
    return SnapshotFamily(face=face, dofs=dofs, values=values)


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
    return CoarseBasis(kind="rt0", grid=grid, P_v=P_v,
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.ones(len(faces), dtype=int))


def build_msfem_space(grid, field, operators=None) -> CoarseBasis:
    """One flux mode per coarse face from unit-trace local solves.

    The all-ones combination of the snapshot family, solved as one
    right-hand side; with a uniform coefficient the local solution is
    the linear ramp, i.e. the rt0 prolongation.
    """
    if operators is None:
        operators = mixed_fem.assemble_operators(grid, field)
    faces = mesh.coarse_faces(grid)
    columns = [_face_solve(grid, operators, face, np.ones((face.n_fine, 1)))
               for face in faces]
    return CoarseBasis(kind="msfem", grid=grid,
                       P_v=_assemble_velocity_prolongation(grid, columns),
                       P_p=_pressure_prolongation(grid),
                       face_mode_counts=np.ones(len(faces), dtype=int))


def build_gmsfem_space(grid, field, operators=None, tol: float = 10.0) -> CoarseBasis:
    """Spectrally enriched space: per face keep the pencil modes with
    eigenvalue at most `tol` (at least one)."""
    if operators is None:
        operators = mixed_fem.assemble_operators(grid, field)
    columns = []
    selections = []
    counts = []
    for face in mesh.coarse_faces(grid):
        family = snapshot_face(grid, operators, face)
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
