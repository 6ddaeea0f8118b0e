"""Fine-scale operator assembly checked against the dense oracles, plus
the structured per-block direct solver against plain dense factorization."""

import numpy as np
import pytest
from scipy import sparse

from msflow import mesh, mixed_fem
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
    expected = oracle_velocity_mass(grid, field.coefficient())
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
    with pytest.raises(ValueError, match="sizes differ"):
        mixed_fem.PermeabilityField(np.ones(4), mobility=np.ones(3))
    with pytest.raises(ValueError, match="mobility"):
        mixed_fem.PermeabilityField(np.ones(4), mobility=np.zeros(4))
    field = mixed_fem.PermeabilityField(np.full(4, 2.0), mobility=np.full(4, 0.5))
    assert np.allclose(field.coefficient(), 1.0)


def test_mobility_equivalent_to_scaled_permeability(rng):
    grid = mesh.build_grid((6, 6), (2, 2))
    kappa = random_log_field(rng, grid.n_cells)
    lam = rng.uniform(0.5, 2.0, grid.n_cells)
    merged = mixed_fem.PermeabilityField(kappa * lam)
    split = mixed_fem.PermeabilityField(kappa, mobility=lam)
    A1 = mixed_fem.assemble_velocity_mass(grid, merged)
    A2 = mixed_fem.assemble_velocity_mass(grid, split)
    assert abs(A1 - A2).max() < 1e-15


def test_source_assembly():
    grid = mesh.build_grid((4, 4), (2, 2), domain_lengths=(2.0, 2.0))
    density = np.zeros(grid.n_cells)
    density[0] = 4.0
    density[-1] = -4.0
    F = mixed_fem.assemble_source(grid, density=density, wells=[(1, 0.5), (2, -0.5)])
    vol = grid.cell_volume
    assert F[0] == pytest.approx(4.0 * vol)
    assert F[1] == pytest.approx(0.5)
    assert abs(F.sum()) < 1e-14

    with pytest.raises(ValueError, match="does not balance"):
        mixed_fem.assemble_source(grid, wells=[(0, 1.0)])
    with pytest.raises(ValueError, match="cells"):
        mixed_fem.assemble_source(grid, density=np.ones(3))


def test_bordered_solve_is_a_neumann_solution(rng):
    grid = mesh.build_grid((6, 4), (3, 2))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    wells = [(0, 1.0), (grid.n_cells - 1, -1.0)]
    ops = mixed_fem.assemble_operators(grid, field, wells=wells)
    v, p, mu = dense_saddle_solve(ops.A.toarray(), ops.B.toarray(),
                                  np.zeros(grid.n_velocity), ops.F)
    assert np.abs(ops.A @ v + ops.B.T @ p).max() < 1e-12
    assert np.abs(ops.B @ v - ops.F).max() < 1e-12
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


@pytest.mark.parametrize("fine,coarse,overlap", [
    ((12, 8), (4, 2), 0),
    ((12, 8), (4, 2), 1),
    ((12, 8), (4, 2), 2),
    ((6, 6, 4), (3, 3, 2), 0),
    ((6, 6, 4), (3, 3, 2), 1),
])
def test_block_solver_matches_dense(fine, coarse, overlap, rng):
    grid = mesh.build_grid(fine, coarse)
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    solvers = mixed_fem.block_solvers(grid, ops, overlap=overlap)
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
    for bs in mixed_fem.block_solvers(grid, ops, overlap=0):
        local = local_bordered_matrix(ops, bs.velocity_idx, bs.pressure_idx)
        rhs = rng.standard_normal(bs.size)
        want = np.linalg.solve(local, rhs)
        assert np.abs(bs.solve(rhs) - want).max() < 1e-11


def test_block_factor_cache_on_uniform_field():
    grid = mesh.build_grid((12, 12), (4, 4))
    ops = mixed_fem.assemble_operators(grid, mixed_fem.uniform_field(grid, 3.0))
    solvers = mixed_fem.block_solvers(grid, ops, overlap=0)
    assert len({id(s.factor) for s in solvers}) == 1
    clipped = mixed_fem.block_solvers(grid, ops, overlap=1)
    # per axis the region is 4 cells at the boundary and 5 inside, and the
    # cache keys on shape, so {4,5}^2 regions share 4 factors
    assert len({id(s.factor) for s in clipped}) == 4


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


@pytest.mark.parametrize("overlap", [0, 2])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_block_batch_matches_block_loop(case, overlap, rng):
    grid, field = batch_case(case, rng)
    ops = mixed_fem.assemble_operators(grid, field)
    solvers = mixed_fem.block_solvers(grid, ops, overlap=overlap)
    unique = len({id(bs.factor) for bs in solvers})
    if case == "synth-2d":
        assert unique == grid.n_blocks
    if case == "uniform-2d":
        assert unique < grid.n_blocks
    if case == "singleton-axis" and overlap == 0:
        assert solvers[0].factor._tri[0] is None

    batch = mixed_fem.BlockBatch(solvers, grid.n_velocity)
    assert len(batch.groups) <= 3 ** grid.dim
    assert sorted(np.concatenate([g.blocks for g in batch.groups])) == \
        list(range(grid.n_blocks))
    r = rng.standard_normal(grid.n_velocity)
    q = rng.standard_normal(grid.n_cells)
    for pressure_rhs in (None, q):
        local = batch.solve(r, pressure_rhs)
        want = np.zeros(grid.n_velocity)
        for g, v in zip(batch.groups, local):
            assert v.shape == (g.velocity_idx.shape[1], len(g.blocks))
            for j, block in enumerate(g.blocks):
                bs = solvers[block]
                rhs = np.zeros(bs.size)
                rhs[:bs.n_velocity] = r[bs.velocity_idx]
                if pressure_rhs is not None:
                    rhs[bs.n_velocity:-1] = q[bs.pressure_idx]
                ref = bs.solve(rhs)[:bs.n_velocity]
                want[bs.velocity_idx] += ref
                assert_relative_close(v[:, j], ref)
        assert_relative_close(batch.scatter(local), want)


def test_block_solvers_need_coefficient():
    grid = mesh.build_grid((4, 4), (2, 2))
    ops = mixed_fem.assemble_operators(grid, mixed_fem.uniform_field(grid))
    stripped = mixed_fem.MixedOperators(grid=grid, A=ops.A, B=ops.B, F=ops.F)
    with pytest.raises(ValueError, match="coefficient"):
        mixed_fem.block_solvers(grid, stripped)
