"""Fine-scale operator assembly checked against the dense oracles, plus
the structured per-block direct solver against plain dense factorization."""

import numpy as np
import pytest
from scipy import sparse

from msflow import mesh, mixed_fem
from msflow.sparse_linalg import SingularMatrixError
from msflow.bench_cli import FieldSpec, synth_field

from conftest import (
    dense_saddle_solve,
    oracle_divergence,
    oracle_velocity_mass,
    quadrature_mass_block,
    random_log_field,
)


def test_reference_mass_block_quadrature():
    # [DERIVED] numeric quadrature of the two hat-profile products
    block = quadrature_mass_block()
    assert np.allclose(block, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-9)


@pytest.mark.parametrize("fine,coarse", [((6, 4), (3, 2)), ((4, 4, 2), (2, 2, 1))])
def test_velocity_mass_matches_oracle(fine, coarse, rng):
    grid = mesh.build_grid(fine, coarse)
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    A = mixed_fem.assemble_velocity_mass(grid, field).toarray()
    # [DERIVED] independent dense assembly from cell_face_ids
    expected = oracle_velocity_mass(grid, field.values)
    assert np.allclose(A, expected, rtol=1e-13, atol=0)
    assert np.allclose(A, A.T, atol=0)
    assert np.linalg.eigvalsh(expected).min() > 0


@pytest.mark.parametrize("fine,coarse", [((5, 3), (1, 1)), ((3, 4, 2), (1, 2, 1))])
def test_divergence_matches_oracle(fine, coarse):
    grid = mesh.build_grid(fine, coarse, domain_lengths=(2.0, 1.0, 3.0)[: len(fine)])
    B = mixed_fem.assemble_divergence(grid).toarray()
    assert np.allclose(B, oracle_divergence(grid), atol=0)
    # every interior face has one low and one high cell, so columns cancel
    assert np.abs(B.sum(axis=0)).max() == 0.0


def test_field_validation():
    with pytest.raises(ValueError, match="cell 2"):
        mixed_fem.PermeabilityField(np.array([1.0, 2.0, -3.0]))
    with pytest.raises(ValueError):
        mixed_fem.PermeabilityField(np.array([1.0, np.nan]))
    # non-finite values fail at construction, naming the first bad cell
    with pytest.raises(ValueError, match="cell 1 has value inf"):
        mixed_fem.PermeabilityField(np.array([1.0, np.inf]))
    field = mixed_fem.PermeabilityField(np.full(4, 2.0))
    assert np.array_equal(field.values, np.full(4, 2.0))


def test_bordered_solve_is_a_neumann_solution(rng):
    grid = mesh.build_grid((6, 4), (3, 2))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    F = np.zeros(grid.n_cells)
    F[0], F[-1] = 1.0, -1.0
    v, p, mu = dense_saddle_solve(ops.A.toarray(), ops.B.toarray(),
                                  np.zeros(grid.n_velocity), F)
    assert np.abs(ops.A @ v + ops.B.T @ p).max() < 1e-12
    assert np.abs(ops.B @ v - F).max() < 1e-12
    assert abs(p.sum()) < 1e-10
    assert abs(mu) < 1e-12  # compatible data leaves the border inactive


def test_bordered_matrix_blocks():
    grid = mesh.build_grid((3, 3), (1, 1))
    ops = mixed_fem.assemble_operators(grid, mixed_fem.uniform_field(grid))
    K = mixed_fem.bordered_saddle_matrix(ops.A, ops.B).toarray()
    nv, nc = grid.n_velocity, grid.n_cells
    assert K.shape == (nv + nc + 1, nv + nc + 1)
    assert np.allclose(K, K.T, atol=0)
    assert np.allclose(K[nv:nv + nc, -1], 1.0)
    assert K[-1, -1] == 0.0
    assert np.abs(K[:nv, -1]).max() == 0.0
    # a single-cell block has no interior velocity: only the mean border
    lone = mixed_fem.bordered_saddle_matrix(sparse.csr_matrix((0, 0)),
                                            sparse.csr_matrix((1, 0)))
    assert np.array_equal(lone.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def local_bordered_matrix(ops, velocity_idx, pressure_idx):
    """Dense bordered saddle of the operators restricted to one block."""
    A = ops.A[velocity_idx][:, velocity_idx]
    B = ops.B[pressure_idx][:, velocity_idx]
    return mixed_fem.bordered_saddle_matrix(A, B).toarray()


def trapezoidal_mass(ops, velocity_idx):
    """Diagonal of the trapezoidal-rule velocity mass: half the summed
    volume / coefficient of the two cells of each face."""
    w = ops.grid.cell_volume / ops.coefficient
    return 0.5 * ((ops.B[:, velocity_idx] != 0).T @ w)


def lumped_box_solve(ops, velocity_idx, pressure_idx, rhs):
    """Dense solve of a box's bordered saddle with the trapezoidal mass
    in place of A, refined once: the plain dense solve is off by up to
    1e-14 relative on boxes of condition 1e6."""
    A = sparse.diags(trapezoidal_mass(ops, velocity_idx))
    B = ops.B[pressure_idx][:, velocity_idx]
    K = mixed_fem.bordered_saddle_matrix(A, B).toarray()
    x = np.linalg.solve(K, rhs)
    return x + np.linalg.solve(K, rhs - K @ x)


@pytest.mark.parametrize("fine, coarse", [
    ((40, 40), (4, 4)), ((6, 9), (3, 3)), ((8, 8, 8), (2, 2, 2)),
    ((4, 1), (2, 1)), ((1, 1), (1, 1)),
])
def test_boxes_match_the_per_block_layouts(fine, coarse):
    # one template per box shape, shifted by the ravelled box corners,
    # is what each block's own oversampled box gives; a singleton axis
    # and a one-cell grid have face lattices with an empty axis
    grid = mesh.build_grid(fine, coarse)
    for overlap in range(4):
        boxes = mixed_fem._boxes(grid, overlap)
        assert len(boxes) == grid.n_blocks
        for block, box in enumerate(boxes):
            cells = mesh.oversample(grid, block, overlap)
            vidx = mesh.velocity_dofs_interior_to(grid, cells)
            assert np.array_equal(box.pressure_idx, cells)
            assert np.array_equal(box.velocity_idx, vidx[box.lines.order])
        shapes = {box.lines.shape: id(box.lines) for box in boxes}
        assert len({id(box.lines) for box in boxes}) == len(shapes)


@pytest.mark.parametrize("fine,coarse,overlap", [
    ((12, 8), (4, 2), 0),
    ((12, 8), (4, 2), 1),
    ((12, 8), (4, 2), 2),
    ((6, 6, 4), (3, 3, 2), 0),
    ((6, 6, 4), (3, 3, 2), 1),
])
def test_block_solver_matches_dense(fine, coarse, overlap, rng):
    # the box solves at each overlap: exact saddles on the coarse blocks,
    # lumped saddles (trapezoidal mass) on the blocks grown by an overlap
    grid = mesh.build_grid(fine, coarse)
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    if overlap:
        batch = ops.smoother(overlap)
        assert len(batch.counts) == grid.n_blocks
        r = rng.standard_normal((grid.n_velocity, 2))
        q = rng.standard_normal((grid.n_cells, 2))
        local = batch.solve(r, q)
        # box i is block i
        for box in range(grid.n_blocks):
            vidx = batch.velocity_idx[batch.velocity_box == box]
            cells = mesh.oversample(grid, box, overlap)
            assert np.array_equal(batch.pressure_idx[batch.cell_box == box],
                                  cells)
            rhs = np.vstack([r[vidx], q[cells], np.zeros((1, 2))])
            want = lumped_box_solve(ops, vidx, cells, rhs)[:len(vidx)]
            got = local[batch.velocity_box == box]
            assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
        return
    solvers = mixed_fem.block_solvers(ops)
    assert len(solvers) == grid.n_blocks
    for bs in solvers[:: max(1, grid.n_blocks // 5)]:
        local = local_bordered_matrix(ops, bs.velocity_idx, bs.pressure_idx)
        rhs = rng.standard_normal(bs.size)
        got = bs.solve(rhs)
        want = np.linalg.solve(local, rhs)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-10 * max(scale, 1.0)
        # multi-rhs path returns the stacked single solves
        many = bs.solve(np.column_stack([rhs, 2 * rhs]))
        assert np.abs(many[:, 0] - got).max() < 1e-12 * max(scale, 1.0)
        assert np.abs(many[:, 1] - 2 * got).max() < 1e-11 * max(scale, 1.0)


def test_block_solver_singleton_axis(rng):
    # blocks one cell wide along axis 0 exercise the empty-axis branch
    grid = mesh.build_grid((4, 4), (4, 2))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    for bs in mixed_fem.block_solvers(ops):
        local = local_bordered_matrix(ops, bs.velocity_idx, bs.pressure_idx)
        rhs = rng.standard_normal(bs.size)
        want = np.linalg.solve(local, rhs)
        assert np.abs(bs.solve(rhs) - want).max() < 1e-11


@pytest.mark.parametrize("fine", [(12, 12), (7, 7, 7)])
def test_block_solver_high_contrast(fine):
    # one box, cell coefficients log-uniform over 1e-6..1e6: the dense
    # line and Schur factors keep the accuracy of a dense direct solve
    rng = np.random.default_rng(20)
    grid = mesh.build_grid(fine, (1,) * len(fine))
    coeff = 10.0 ** rng.uniform(-6.0, 6.0, grid.n_cells)
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(coeff))
    [bs] = mixed_fem.block_solvers(ops)
    local = local_bordered_matrix(ops, bs.velocity_idx, bs.pressure_idx)
    rhs = rng.standard_normal((bs.size, 4))
    got = bs.solve(rhs)
    want = np.linalg.solve(local, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # divergence rows B v + mu = b, against the larger of |b| and the
    # summed absolute fluxes of each cell; a backward-stable Schur solve
    # leaves ~1e-16 here, an explicit inverse of the Schur complement
    # ~1e-13 (2D) and ~1e-14 (3D)
    nv = bs.n_velocity
    B = ops.B[bs.pressure_idx][:, bs.velocity_idx]
    b = rhs[nv:-1]
    scale = max(np.abs(b).max(), (abs(B) @ np.abs(got[:nv])).max())
    assert np.abs(B @ got[:nv] + got[-1] - b).max() <= 1e-14 * scale


def test_block_solver_rejects_unresolvable_contrast():
    # 1e10 against 1e-10: the shifted Schur complement is positive
    # definite only in exact arithmetic
    grid = mesh.build_grid((12, 12), (1, 1))
    coeff = np.where(np.random.default_rng(0).random(grid.n_cells) < 0.3,
                     1e10, 1e-10)
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(coeff))
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        mixed_fem.block_solvers(ops)


def test_block_factor_cache_on_uniform_field():
    grid = mesh.build_grid((12, 12), (4, 4))
    ops = mixed_fem.assemble_operators(grid, mixed_fem.uniform_field(grid, 3.0))
    solvers = mixed_fem.block_solvers(ops)
    assert len({id(s.factor) for s in solvers}) == 1
    # the cache keys on the box coefficients too: doubling them on two
    # blocks adds one factor, shared by both
    values = np.full(grid.n_cells, 3.0)
    values[np.concatenate([mesh.block_cells(grid, b) for b in (1, 5)])] = 6.0
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(values))
    solvers = mixed_fem.block_solvers(ops)
    assert len({id(s.factor) for s in solvers}) == 2
    assert solvers[1].factor is solvers[5].factor
    # the exact batch holds the Schur inverse of each distinct factor
    # once, not one per block
    n = int(np.prod(grid.block_size))
    held = [L_inv.nbytes for L_inv, _ in ops.batch().groups]
    assert len(held) == 2 and sum(held) == 2 * n * n * 8


def batch_case(name, rng):
    """(grid, field) pairs covering the shape-grouped batched solves."""
    if name == "synth-2d":
        # random inclusions of two contrasts: no two blocks coincide
        grid = mesh.build_grid((12, 12), (3, 3))
        spec = FieldSpec(exponent=3.0, n_random=6, random_size=0.25)
        values = synth_field(5, grid.fine, spec).values
        values *= synth_field(6, grid.fine, FieldSpec(
            exponent=-2.0, n_random=6, random_size=0.25)).values
        return grid, mixed_fem.PermeabilityField(values)
    if name == "uniform-2d":
        grid = mesh.build_grid((12, 12), (3, 3))
        return grid, mixed_fem.uniform_field(grid, 3.0)
    if name == "log-3d":
        grid = mesh.build_grid((6, 6, 4), (3, 3, 2))
    else:  # "singleton-axis": one-cell-wide blocks have no axis-0 lines
        grid = mesh.build_grid((4, 4), (4, 2))
    return grid, mixed_fem.PermeabilityField(
        random_log_field(rng, grid.n_cells))


BATCH_CASES = ["synth-2d", "uniform-2d", "log-3d", "singleton-axis"]


def assert_relative_close(got, want, rtol=1e-14):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def block_loop_rhs(bs, r, q=None):
    """Bordered right-hand side of one block gathered from global r, q."""
    rhs = np.zeros(bs.size)
    rhs[:bs.n_velocity] = r[bs.velocity_idx]
    if q is not None:
        rhs[bs.n_velocity:-1] = q[bs.pressure_idx]
    return rhs


@pytest.mark.parametrize("overlap", [0, 2])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_block_batch_matches_block_loop(case, overlap, rng):
    # the exact batch of the coarse blocks against its per-block solvers,
    # the lumped batch of the grown blocks against dense per-box solves
    grid, field = batch_case(case, rng)
    ops = mixed_fem.assemble_operators(grid, field)
    if overlap == 0:
        solvers = mixed_fem.block_solvers(ops)
        unique = len({id(bs.factor) for bs in solvers})
        if case == "synth-2d":
            assert unique == grid.n_blocks
        if case == "uniform-2d":
            assert unique < grid.n_blocks
        if case == "singleton-axis":
            # one-cell-wide boxes: every line runs along axis 1
            assert solvers[0].lines.shape[0] == 1
            assert np.all(solvers[0].lines.lens
                          == grid.block_size[1] - 1)
        batch = mixed_fem.BlockBatch(solvers, grid.n_velocity)
        # one Schur inverse per distinct factor, equal to that factor's,
        # with the local cells of its boxes; every box is in one group
        n = int(np.prod(grid.block_size))
        assert len(batch.groups) == unique
        grouped = []
        for L_inv, cells in batch.groups:
            boxes = batch.cell_box[cells[0]]
            factor = solvers[boxes[0]].factor
            assert L_inv.shape == (n, n)
            assert np.array_equal(L_inv, factor.L_inv)
            assert all(solvers[box].factor is factor for box in boxes)
            assert np.array_equal(
                cells, batch.starts[boxes] + np.arange(n)[:, None])
            grouped += list(boxes)
        assert sorted(grouped) == list(range(grid.n_blocks))

        def loop_solve(box, r, q):
            bs = solvers[box]
            return bs.solve(block_loop_rhs(bs, r, q))[:bs.n_velocity]
    else:
        batch = ops.smoother(overlap)

        def loop_solve(box, r, q):
            vidx = batch.velocity_idx[batch.velocity_box == box]
            cells = batch.pressure_idx[batch.cell_box == box]
            rhs = np.zeros(len(vidx) + len(cells) + 1)
            rhs[:len(vidx)] = r[vidx]
            if q is not None:
                rhs[len(vidx):-1] = q[cells]
            return lumped_box_solve(ops, vidx, cells, rhs)[:len(vidx)]

    assert len(batch.counts) == grid.n_blocks
    for box in range(grid.n_blocks):
        # box i is block i; its interior dofs, in line order
        cells = batch.pressure_idx[batch.cell_box == box]
        assert np.array_equal(cells, mesh.oversample(grid, box, overlap))
        assert np.array_equal(
            np.sort(batch.velocity_idx[batch.velocity_box == box]),
            mesh.velocity_dofs_interior_to(grid, cells))
    r = rng.standard_normal(grid.n_velocity)
    q = rng.standard_normal(grid.n_cells)
    for pressure_rhs in (None, q):
        local = batch.solve(r, pressure_rhs)
        want = np.zeros(grid.n_velocity)
        for box in range(grid.n_blocks):
            ref = loop_solve(box, r, pressure_rhs)
            vidx = batch.velocity_idx[batch.velocity_box == box]
            want[vidx] += ref
            assert_relative_close(local[batch.velocity_box == box], ref)
        assert_relative_close(batch.scatter(local), want)


@pytest.mark.parametrize("case", BATCH_CASES)
def test_block_batch_columns_match_single_solves(case, rng):
    grid, field = batch_case(case, rng)
    ops = mixed_fem.assemble_operators(grid, field)
    # the exact overlap-0 batch and the lumped overlap-2 smoother
    for batch in (ops.batch(), ops.smoother(2)):
        r = rng.standard_normal((grid.n_velocity, 3))
        q = rng.standard_normal((grid.n_cells, 3))
        many = batch.solve(r, q)
        assert many.shape == (len(batch.velocity_idx), 3)
        for j in range(3):
            assert_relative_close(many[:, j], batch.solve(r[:, j], q[:, j]))

