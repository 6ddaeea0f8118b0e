"""Snapshot families, face spectral problems and the three coarse
velocity spaces, checked on grids small enough for dense linear algebra."""

import numpy as np
import pytest

import msflow.two_phase as tp
from msflow import coarse_space, mesh, mixed_fem
from msflow.bench_cli import (BENCH_BOXES_2D, BENCH_BOXES_3D, FieldSpec,
                              bench_field, synth_field)
from msflow.sparse_linalg import SingularMatrixError, generalized_symmetric_eig

from conftest import (band_values, dense_saddle_solve, neighborhood_cells,
                      random_log_field, uniform_field)


def _setup(fine, coarse, values=None, rng=None, orders=6.0):
    grid = mesh.build_grid(fine, coarse)
    if values is None:
        values = random_log_field(rng, grid.n_cells, orders=orders) \
            if rng is not None else np.ones(grid.n_cells)
    field = mixed_fem.PermeabilityField(values)
    ops = mixed_fem.assemble_operators(grid, field)
    return grid, field, ops


def test_snapshot_family_structure(rng):
    grid, field, ops = _setup((8, 8), (2, 2), rng=rng, orders=4.0)
    face = mesh.coarse_faces(grid)[0]
    family = coarse_space.snapshot_face(ops, face)
    J = face.n_fine
    assert family.n_snapshots == J
    # trailing rows carry the prescribed unit traces
    assert np.allclose(family.values[-J:], np.eye(J), atol=0)
    assert len(np.unique(family.dofs)) == len(family.dofs)

    dense = family.dense(grid.n_velocity)
    div = ops.B @ dense
    cells = neighborhood_cells(grid, face)
    outside = np.setdiff1d(np.arange(grid.n_cells), cells)
    assert np.abs(div[outside]).max() < 1e-10
    # inside each block the divergence is the compatible constant
    for block in face.blocks:
        block_rows = div[mesh.block_cells(grid, block)]
        assert np.abs(block_rows - block_rows[0]).max() < 1e-9
    assert np.abs(div.sum(axis=0)).max() < 1e-9


BATCHED_GRIDS = [((12, 8), (3, 2)), ((6, 6, 4), (3, 1, 2)),
                 ((6, 6), (6, 3))]


def _dense_snapshots(grid, ops, face):
    """Snapshot family of `face` by dense solves of its two block saddles
    with rows and columns sliced out of the global A and B."""
    A, B = ops.A.toarray(), ops.B.toarray()
    J = face.n_fine
    out = np.zeros((grid.n_velocity, J))
    out[face.fine_faces] = np.eye(J)
    for side, block in enumerate(face.blocks):
        cells = mesh.block_cells(grid, block)
        inner = mesh.velocity_dofs_interior_to(grid, cells)
        # unit outflow (lower block) or inflow (upper block) through
        # fine face l, balanced by a constant divergence over the block
        sign = 1.0 if side == 0 else -1.0
        const = sign * grid.face_areas[face.axis] / len(cells)
        for l, e in enumerate(face.fine_faces):
            v, _, _ = dense_saddle_solve(
                A[np.ix_(inner, inner)], B[np.ix_(cells, inner)],
                -A[inner, e], const - B[cells, e])
            out[inner, l] = v
    return out


@pytest.mark.parametrize("fine, coarse", BATCHED_GRIDS)
def test_snapshots_match_dense_block_solves(rng, fine, coarse):
    grid, field, ops = _setup(fine, coarse, rng=rng)
    for face in mesh.coarse_faces(grid):
        got = coarse_space.snapshot_face(ops, face).dense(grid.n_velocity)
        want = _dense_snapshots(grid, ops, face)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("fine, coarse", BATCHED_GRIDS)
def test_bilinear_s_matches_dense_form(rng, fine, coarse):
    grid, field, ops = _setup(fine, coarse, rng=rng)
    A, B = ops.A.toarray(), ops.B.toarray()
    for face in mesh.coarse_faces(grid):
        family = coarse_space.snapshot_face(ops, face)
        V = family.dense(grid.n_velocity)
        want = V.T @ A @ V + (B @ V).T @ (B @ V) / grid.cell_volume
        got = coarse_space.face_bilinear_s(ops, family)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stacked_pencils_meet_spectral_bounds(rng):
    # the pencils of criterion 6's grid, solved as one stack
    grid, field, ops = _setup((16, 16), (4, 4), rng=rng, orders=4.0)
    faces = mesh.coarse_faces(grid)
    families = [coarse_space.snapshot_face(ops, f) for f in faces]
    a = np.array([coarse_space.face_bilinear_a(ops, f) for f in faces])
    s = np.array([coarse_space.face_bilinear_s(ops, fam)
                  for fam in families])
    w, X = generalized_symmetric_eig(a, s)
    assert w.shape == (len(faces), faces[0].n_fine) and X.shape == a.shape
    for a_f, s_f, w_f, X_f, fam in zip(a, s, w, X, families):
        scale = np.abs(a_f).max() + np.abs(w_f).max() * np.abs(s_f).max()
        assert np.abs(a_f @ X_f - s_f @ X_f * w_f).max() <= 1e-10 * scale
        assert np.abs(X_f.T @ s_f @ X_f - np.eye(len(w_f))).max() <= 1e-10
        assert w_f.min() > 0.0 and np.all(np.diff(w_f) >= -1e-12 * w_f[-1])
        one, _ = coarse_space.face_eigenpairs(ops, fam)
        assert np.abs(one - w_f).max() <= 1e-12 * w_f[-1]


@pytest.mark.parametrize("fine, coarse", [((12, 12), (3, 3)),
                                          ((8, 8, 8), (2, 2, 2))])
def test_batched_build_call_counts(monkeypatch, rng, fine, coarse):
    grid, field, ops = _setup(fine, coarse, rng=rng)
    calls = {"solve_core": 0, "solve": 0, "overlap0": 0}
    solve_core = mixed_fem.BlockBatch.solve_core
    solve = mixed_fem.BlockSolver.solve
    block_solvers = mixed_fem.block_solvers

    def counted_core(self, *args):
        calls["solve_core"] += 1
        return solve_core(self, *args)

    def counted_solve(self, *args):
        calls["solve"] += 1
        return solve(self, *args)

    def counted_solvers(operators):
        calls["overlap0"] += 1
        return block_solvers(operators)

    monkeypatch.setattr(mixed_fem.BlockBatch, "solve_core", counted_core)
    monkeypatch.setattr(mixed_fem.BlockSolver, "solve", counted_solve)
    monkeypatch.setattr(mixed_fem, "block_solvers", counted_solvers)
    coarse_space.build_gmsfem_space(ops)
    assert calls == {"solve_core": 2 * grid.dim, "solve": 0, "overlap0": 1}
    coarse_space.build_msfem_space(ops)
    assert calls == {"solve_core": 4 * grid.dim, "solve": 0, "overlap0": 1}


def _bench_2d_operators(exponent, mobility=False):
    """The 40^2 / 4^2 bench field at 1e`exponent` (seed 424242); with
    `mobility`, as the IMPES bench holds it: its inclusions 0.05 wide and
    scaled by the total mobility at s = 0."""
    grid = mesh.build_grid((40, 40), (4, 4))
    if mobility:
        kappa = synth_field(424242, grid.fine, FieldSpec(
            exponent=exponent, boxes=BENCH_BOXES_2D, n_random=3,
            random_size=0.05))
        field = tp.mobility_field(kappa, tp.FluidModel(),
                                  np.zeros(grid.n_cells))
    else:
        field = bench_field(grid.fine, exponent, seed=424242)
    return grid, mixed_fem.assemble_operators(grid, field)


def _count_passes(monkeypatch):
    """Every `BlockBatch._pass` call, by the number of boxes it solves."""
    boxes = []
    one_pass = mixed_fem.BlockBatch._pass

    def counted(self, *args):
        boxes.append(len(self.counts))
        return one_pass(self, *args)

    monkeypatch.setattr(mixed_fem.BlockBatch, "_pass", counted)
    return boxes


def test_refinement_only_where_the_first_pass_misses(monkeypatch):
    # the IMPES bench's t=0 field: the first pass leaves every box within
    # 1e-13 of its divergence, so each side and axis makes one pass
    grid, ops = _bench_2d_operators(2.0, mobility=True)
    passes = _count_passes(monkeypatch)
    coarse_space.build_gmsfem_space(ops)
    assert passes == [grid.n_blocks] * 2 * grid.dim

    # bands of 1e8, 1 and 1e-8: the boxes the first pass misses refine,
    # and every box then meets its divergence to 1e-14 of max |b|, as
    # when every box refined
    orig = mixed_fem.BlockBatch.solve_core
    worst = []

    def checked(self, a, b, tau):
        v, p, mu = orig(self, a, b, tau)
        rb = b - self.D @ v - mu[self.cell_box]
        r, scale = (np.maximum.reduceat(np.abs(x), self.starts, axis=0)
                    for x in (rb, b))
        live = scale > 0  # the boxes with a face on this side
        worst.append(np.max(r[live] / scale[live]))
        return v, p, mu

    monkeypatch.setattr(mixed_fem.BlockBatch, "solve_core", checked)
    grid = mesh.build_grid((24, 24), (4, 4))
    for exponent in (8, -8):
        ops = mixed_fem.assemble_operators(
            grid, mixed_fem.PermeabilityField(band_values(grid, exponent)))
        passes.clear()
        worst.clear()
        coarse_space.build_gmsfem_space(ops)
        assert len(passes) > 2 * grid.dim
        assert max(worst) <= 1e-14


def _face_spans(basis):
    """An orthonormal basis of each face's velocity modes."""
    P = basis.P_v.tocsc()
    ends = np.cumsum(basis.face_mode_counts)
    return [np.linalg.qr(P[:, end - k:end].toarray())[0]
            for end, k in zip(ends, basis.face_mode_counts)]


@pytest.mark.parametrize("case", ["impes-2d", "2d-1e-6", "3d-1e-4"])
def test_refinement_on_demand_keeps_the_basis(monkeypatch, case):
    # against a build that refines every box: the same modes per face,
    # spanning the same spaces; the sine is |Q_B - Q_A Q_A^T Q_B|, since
    # sqrt(1 - sigma_min^2) cannot resolve it below 1.5e-8.  On the 3D
    # field a box refined on some of its columns only left a sine of
    # 2.2e-10 on one face
    if case == "3d-1e-4":
        grid = mesh.build_grid((16, 16, 16), (4, 4, 4))
        ops = mixed_fem.assemble_operators(grid, synth_field(
            424242, grid.fine, FieldSpec(exponent=-4.0, boxes=BENCH_BOXES_3D,
                                         n_random=3, random_size=0.125)))
    else:
        grid, ops = _bench_2d_operators(*{"impes-2d": (2.0, True),
                                          "2d-1e-6": (-6.0, False)}[case])
    basis = coarse_space.build_gmsfem_space(ops)
    monkeypatch.setattr(mixed_fem, "REFINE_TOL", 0.0)
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(
        ops.coefficient))
    reference = coarse_space.build_gmsfem_space(ops)
    assert np.array_equal(basis.face_mode_counts, reference.face_mode_counts)
    for Q_A, Q_B in zip(_face_spans(basis), _face_spans(reference)):
        assert np.linalg.norm(Q_B - Q_A @ (Q_A.T @ Q_B), 2) <= 1e-10


def test_msfem_equals_rt0_on_uniform_field():
    grid, field, ops = _setup((12, 8), (3, 2))
    rt0 = coarse_space.build_rt0_space(grid)
    ms = coarse_space.build_msfem_space(ops)
    assert np.abs((rt0.P_v - ms.P_v).toarray()).max() < 1e-10
    assert (rt0.P_p != ms.P_p).nnz == 0
    assert rt0.dim == ms.dim == len(mesh.coarse_faces(grid)) + grid.n_blocks


def test_rt0_ramp_profile():
    grid = mesh.build_grid((6, 3), (2, 1))
    basis = coarse_space.build_rt0_space(grid)
    face = mesh.coarse_faces(grid)[0]
    col = basis.P_v[:, 0].toarray().ravel()
    assert np.allclose(col[face.fine_faces], 1.0)
    # support is exactly the two adjacent blocks; values stay in [0, 1]
    cells = neighborhood_cells(grid, face)
    interior = mesh.velocity_dofs_interior_to(grid, cells)
    support = np.flatnonzero(col)
    assert set(support) <= set(interior) | set(face.fine_faces)
    assert col.min() >= 0.0 and col.max() == 1.0
    # one third / two thirds of the way across a 3-cell block
    vals = np.unique(np.round(col[col > 0], 12))
    assert np.allclose(vals, [1 / 3, 2 / 3, 1.0])


@pytest.mark.parametrize("fine, coarse", [((12, 8), (4, 2)),
                                          ((6, 6, 4), (3, 1, 2)),
                                          ((4, 4), (4, 2))])
def test_rt0_columns_by_layer(fine, coarse):
    # one-block axes and one-cell blocks included; the oracle walks each
    # block's cells and their upper faces
    grid = mesh.build_grid(fine, coarse)
    basis = coarse_space.build_rt0_space(grid)
    P_v = basis.P_v.toarray()
    faces = mesh.coarse_faces(grid)
    assert P_v.shape == (grid.n_velocity, len(faces))
    for face in faces:
        m = grid.block_size[face.axis]
        _, upper_face = mesh.cell_face_ids(grid, face.axis)
        expected = np.zeros(grid.n_velocity)
        expected[face.fine_faces] = 1.0
        for side, block in enumerate(face.blocks):
            cells = mesh.block_cells(grid, block)
            j = mesh.cell_multi(grid, cells)[:, face.axis] % m + 1
            inner = j < m
            ramp = j[inner] / m
            expected[upper_face[cells[inner]]] = ramp if side == 0 else 1.0 - ramp
        assert np.array_equal(P_v[:, face.index], expected)
    expected_p = np.zeros((grid.n_cells, grid.n_blocks))
    for block in range(grid.n_blocks):
        expected_p[mesh.block_cells(grid, block), block] = 1.0
    assert np.array_equal(basis.P_p.toarray(), expected_p)


@pytest.mark.parametrize("fine, coarse", [((12, 8), (3, 2)),
                                          ((6, 6, 4), (3, 1, 2))])
def test_msfem_is_all_ones_combination_of_snapshots(rng, fine, coarse):
    grid, field, ops = _setup(fine, coarse, rng=rng)
    P_v = coarse_space.build_msfem_space(ops).P_v.toarray()
    for face in mesh.coarse_faces(grid):
        family = coarse_space.snapshot_face(ops, face)
        expected = family.dense(grid.n_velocity).sum(axis=1)
        error = np.abs(P_v[:, face.index] - expected).max()
        assert error <= 1e-12 * np.abs(expected).max()


def test_eigenpairs_residual_and_orthonormality(rng):
    grid, field, ops = _setup((12, 12), (3, 3), rng=rng)
    for face in mesh.coarse_faces(grid)[:4]:
        family = coarse_space.snapshot_face(ops, face)
        a = coarse_space.face_bilinear_a(ops, face)
        s = coarse_space.face_bilinear_s(ops, family)
        w, X = coarse_space.face_eigenpairs(ops, family)
        assert np.all(np.diff(w) >= -1e-12 * max(1.0, abs(w[-1])))
        scale = np.abs(a).max() + np.abs(w).max() * np.abs(s).max()
        assert np.abs(a @ X - s @ X @ np.diag(w)).max() < 1e-10 * scale
        gram = X.T @ s @ X
        assert np.abs(gram - np.eye(len(w))).max() < 1e-10


def test_mode_selection_nesting():
    w = np.array([0.01, 0.5, 3.0, 20.0, 400.0])
    picks = [coarse_space.select_modes(w, tol).count
             for tol in (1e-6, 0.2, 1.0, 10.0, 1e4)]
    assert picks == [1, 1, 2, 3, 5]
    assert np.all(np.diff(picks) >= 0)
    sel = coarse_space.select_modes(w, 1.0, face_index=7)
    assert sel.face_index == 7
    assert np.allclose(sel.kept_eigenvalues, [0.01, 0.5])


def test_uniform_field_minimal_space():
    # with a constant coefficient one eigenvalue per face sits far below
    # the rest; a tolerance in the gap keeps exactly the net-flux mode
    grid, field, ops = _setup((12, 12), (3, 3))
    face = mesh.coarse_faces(grid)[0]
    family = coarse_space.snapshot_face(ops, face)
    w, _ = coarse_space.face_eigenpairs(ops, family)
    tol = 0.5 * (w[0] + w[1])
    basis = coarse_space.build_gmsfem_space(ops, tol=tol)
    n_faces = len(mesh.coarse_faces(grid))
    assert basis.dim == n_faces + grid.n_blocks
    assert np.all(basis.face_mode_counts == 1)
    for sel in basis.selections:
        assert sel.count == 1
        assert sel.kept_eigenvalues[0] <= tol
        # the basis keeps no eigenvectors alive
        assert vars(sel).keys() == {"face_index", "eigenvalues", "count"}


def test_gmsfem_reads_the_coefficient_of_its_operators():
    # the field is only a recipe for operators: with operators given,
    # build_space ignores a different field (uniform here: dim 101, not 55)
    grid, field, ops = _setup((16, 16), (4, 4),
                              rng=np.random.default_rng(0), orders=6.0)
    want = coarse_space.build_gmsfem_space(ops)
    got = coarse_space.build_space("gmsfem", grid,
                                   uniform_field(grid), ops)
    assert want.dim == 55
    assert np.array_equal(got.face_mode_counts, want.face_mode_counts)
    assert (got.P_v != want.P_v).nnz == 0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -5.0, 0.0])
def test_gmsfem_rejects_bad_tolerance_before_any_solve(monkeypatch, tol):
    grid, field, ops = _setup((8, 8), (2, 2))

    def no_solve(*args):
        raise AssertionError("a block solve ran")

    monkeypatch.setattr(mixed_fem.BlockBatch, "solve_core", no_solve)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        coarse_space.build_gmsfem_space(ops, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        coarse_space.build_space("gmsfem", grid, field, tol=tol)


def test_gmsfem_metric_failure_is_numerical():
    # 28 orders across 32x32/4x4: a face metric loses positive
    # definiteness in roundoff, which is a numerical failure of the
    # input, not a usage error
    grid = mesh.build_grid((32, 32), (4, 4))
    field = mixed_fem.PermeabilityField(band_values(grid, 14))
    ops = mixed_fem.assemble_operators(grid, field)
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        coarse_space.build_space("gmsfem", grid, field, ops)


def test_default_tolerance_keeps_one_mode_per_face():
    # blocks of 10x10 cells with h = 0.01: the net-flux eigenvalue sits
    # near 0.05 and the next one near 15.7, so the default 10 keeps one
    grid = mesh.build_grid((20, 20), (2, 2), domain_lengths=(0.2, 0.2))
    field = uniform_field(grid)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    assert np.all(basis.face_mode_counts == 1)
    w = basis.selections[0].eigenvalues
    assert w[0] == pytest.approx(0.0498, abs=0.02)
    assert w[1] == pytest.approx(15.65, rel=0.05)


def test_channels_enrich_the_space():
    grid = mesh.build_grid((16, 16), (2, 2))
    values = np.ones(grid.n_cells)
    cells = np.arange(grid.n_cells).reshape(16, 16, order="F")
    values[cells[:, 3]] = 1e6
    values[cells[:, 11]] = 1e6
    field = mixed_fem.PermeabilityField(values)
    ops = mixed_fem.assemble_operators(grid, field)
    enriched = coarse_space.build_gmsfem_space(ops)
    floor = coarse_space.build_msfem_space(ops)
    assert enriched.dim > floor.dim
    assert enriched.face_mode_counts.max() >= 2
    assert enriched.n_velocity_modes == enriched.face_mode_counts.sum()


def test_coarse_operator_is_galerkin_projection(rng):
    grid, field, ops = _setup((12, 12), (3, 3), rng=rng)
    basis = coarse_space.build_gmsfem_space(ops)
    coarse = coarse_space.coarse_operator(basis, ops)
    A_H = (basis.P_v.T @ ops.A @ basis.P_v).toarray()
    B_H = (basis.P_p.T @ ops.B @ basis.P_v).toarray()
    assert np.abs(coarse.A_H.toarray() - A_H).max() < 1e-12 * np.abs(A_H).max()
    assert np.abs(coarse.B_H.toarray() - B_H).max() < 1e-12 * max(np.abs(B_H).max(), 1.0)

    rhs_p = rng.standard_normal(coarse.n_pressure)
    rhs_p -= rhs_p.mean()
    y_v, y_p = coarse.solve(None, rhs_p)
    assert np.abs(A_H @ y_v + B_H.T @ y_p).max() < 1e-9
    assert np.abs(B_H @ y_v - rhs_p).max() < 1e-9
    assert abs(y_p.sum()) < 1e-9

    y_v2, _ = coarse.solve(rng.standard_normal(coarse.n_velocity), None)
    assert np.all(np.isfinite(y_v2))


def test_solve_factors_the_smoother_only(monkeypatch):
    # the coarse saddle and the exact boxes are dense: a solve with
    # pressure on the impes-2d grid makes sparse factors of lumped boxes
    # only, all banded in the cells' F-order: one per color of the
    # smoother's (four) and one of the overlap-0 boxes of preprocessing
    # and recovery
    from msflow import bench_cli, preconditioner as pc, sparse_linalg, \
        two_phase
    grid = mesh.build_grid((40, 40), (4, 4))
    ops = mixed_fem.assemble_operators(
        grid, bench_cli.bench_field((40, 40), 2.0, seed=424242))
    basis = coarse_space.build_gmsfem_space(ops)

    factors = []

    def recording(matrix):
        factors.append(sparse_linalg.factor(matrix))
        return factors[-1]

    monkeypatch.setattr(mixed_fem, "factor", recording)
    source = two_phase.five_spot_wells(grid).source_vector(grid.n_cells)
    settings = pc.SolverSettings(rel_tol=1e-10)
    pc.solve(grid, ops, basis, source, settings, with_pressure=True)
    overlap = settings.smoother_overlap(basis.kind)
    colors = ops.smoother(overlap).colors + ops.smoother(0).colors
    assert len(colors) == 5
    assert [f.lu for f in factors] == [color.lu for color in colors]
    # the bandwidth is a box's x-extent: 10 + 2 at overlap 1, 10 at 0
    for f, color, width in zip(factors, colors, [12] * 4 + [10]):
        assert f.lu.nnz == (width + 1) * (color.free.stop - color.free.start)


@pytest.mark.parametrize("kind", ["rt0", "gmsfem"])
@pytest.mark.parametrize("exponent", [8, 10])
def test_coarse_saddle_is_dense_and_balances_bands(kind, exponent,
                                                   monkeypatch):
    # x-bands of 1e+e, 1 and 1e-e across 32x32/4x4: the coarse operator
    # builds without a sparse factor, and its velocity meets the block
    # balance of the corner source to roundoff
    from msflow import sparse_linalg

    def no_pbtrf(*args, **kwargs):
        raise AssertionError("LAPACK's band Cholesky ran")

    grid = mesh.build_grid((32, 32), (4, 4))
    field = mixed_fem.PermeabilityField(band_values(grid, exponent))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    monkeypatch.setattr(sparse_linalg, "dpbtrf", no_pbtrf)
    coarse = coarse_space.coarse_operator(basis, ops)
    source = np.zeros(grid.n_cells)
    source[[0, -1]] = 1.0, -1.0
    rhs_p = basis.P_p.T @ source
    y_v, _ = coarse.solve(None, rhs_p)
    assert np.abs(coarse.B_H @ y_v - rhs_p).max() <= \
        1e-14 * np.abs(rhs_p).max()


def test_coarse_operator_rejects_dependent_columns():
    grid, field, ops = _setup((8, 8), (2, 2))
    basis = coarse_space.build_rt0_space(grid)
    doubled = coarse_space.CoarseBasis(
        kind="rt0",
        P_v=basis.P_v[:, [0, 0, 1, 2, 3]].tocsr(), P_p=basis.P_p)
    from msflow.sparse_linalg import SingularMatrixError
    with pytest.raises(SingularMatrixError, match="dependent"):
        coarse_space.coarse_operator(doubled, ops)


def test_build_space_dispatch():
    grid, field, ops = _setup((8, 8), (2, 2))
    assert coarse_space.build_space("RT0", grid, field).kind == "rt0"
    assert coarse_space.build_space("msfem", grid, field, ops).kind == "msfem"
    assert coarse_space.build_space("gmsfem", grid, field, ops, tol=5.0).kind == "gmsfem"
    with pytest.raises(ValueError, match="unknown"):
        coarse_space.build_space("amg", grid, field)
