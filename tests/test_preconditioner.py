"""V-cycle structure, preprocessing exactness and the full solve against
the dense bordered factorization."""

import numpy as np
import pytest

import msflow.preconditioner as pc
from msflow import coarse_space, mesh, mixed_fem, sparse_linalg
from msflow.bench_cli import (BENCH_BOXES_2D, FieldSpec, bench_field,
                              corner_source, synth_field)
from msflow.sparse_linalg import PcgBreakdownError
from msflow.two_phase import WellConfig

from conftest import (DivFreeProjector, band_values, dense_saddle_solve,
                      random_log_field, uniform_field)
from test_mixed_fem import (BATCH_CASES, assert_relative_close, batch_case,
                            trapezoidal_mass)


def _channel_setup(fine=(16, 16), coarse=(4, 4), contrast=1e6):
    grid = mesh.build_grid(fine, coarse)
    values = np.ones(grid.n_cells)
    cells = np.arange(grid.n_cells).reshape(fine, order="F")
    values[cells[:, fine[1] // 3]] = contrast
    values[cells[fine[0] // 2, :]] = contrast
    field = mixed_fem.PermeabilityField(values)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    return grid, ops, basis


def test_settings_defaults():
    s = pc.SolverSettings()
    assert (s.rel_tol, s.max_iter, s.overlap) == (1e-7, 500, None)
    # None: the spectral space carries the contrast at one layer
    assert pc.SMOOTHER_OVERLAP == {"gmsfem": 1, "msfem": 2, "rt0": 2}


def test_stage_outputs_are_divergence_free(rng):
    grid, ops, basis = _channel_setup()
    precond = pc.build_preconditioner(grid, ops, basis)
    B = ops.B
    for _ in range(5):
        r = rng.standard_normal(grid.n_velocity)
        for stage in (precond.smooth, lambda r: precond.smooth(r, True),
                      precond.coarse_correct, precond.apply):
            z = stage(r)
            tol = 1e-10 * max(1.0, np.abs(z).max())
            assert np.abs(B @ z).max() < tol


def test_discrete_gradients_are_annihilated(rng):
    grid, ops, basis = _channel_setup()
    precond = pc.build_preconditioner(grid, ops, basis)
    p = rng.standard_normal(grid.n_cells)
    grad = ops.B.T @ p
    noise = rng.standard_normal(grid.n_velocity)
    noise *= np.linalg.norm(grad) / np.linalg.norm(noise)
    reference = np.linalg.norm(precond.apply(noise))
    assert np.linalg.norm(precond.apply(grad)) < 1e-8 * reference


def test_preconditioner_symmetric_and_positive(rng):
    grid, ops, basis = _channel_setup()
    precond = pc.build_preconditioner(grid, ops, basis)
    proj = DivFreeProjector(ops.B)
    for _ in range(20):
        x = proj.random(rng, grid.n_velocity)
        y = proj.random(rng, grid.n_velocity)
        Mx, My = precond.apply(x), precond.apply(y)
        gap = abs(x @ My - y @ Mx)
        assert gap <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
        assert x @ Mx > 0


def test_preconditioner_symmetric_and_positive_3d(rng):
    # criterion 3's checks on 3D boxes, where every lumped smoother box
    # is a 7-point cell Laplacian; coefficients span six orders
    grid = mesh.build_grid((8, 8, 8), (2, 2, 2))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    precond = pc.build_preconditioner(grid, ops, basis)
    proj = DivFreeProjector(ops.B)
    for _ in range(20):
        x = proj.random(rng, grid.n_velocity)
        y = proj.random(rng, grid.n_velocity)
        Mx, My = precond.apply(x), precond.apply(y)
        gap = abs(x @ My - y @ Mx)
        assert gap <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
        assert x @ Mx > 0
        assert np.abs(ops.B @ Mx).max() <= 1e-10 * max(1.0, np.abs(Mx).max())


def test_vcycle_symmetric_3d_high_contrast(rng):
    # criterion 3's setting in 3D: crossing 1e6 slabs (the x = 4 and the
    # y = 3 cell layers).  The entries of a 3D gmsfem coarse correction
    # scale with the contrast, so criterion 3's bound on |x||y| cannot
    # hold; the gap is measured against the products it compares
    grid = mesh.build_grid((8, 8, 8), (2, 2, 2))
    ijk = mesh.cell_multi(grid, np.arange(grid.n_cells))
    field = mixed_fem.PermeabilityField(
        np.where((ijk[:, 0] == 4) | (ijk[:, 1] == 3), 1e6, 1.0))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    precond = pc.build_preconditioner(grid, ops, basis)
    proj = DivFreeProjector(ops.B)
    for _ in range(10):
        x = proj.random(rng, grid.n_velocity)
        y = proj.random(rng, grid.n_velocity)
        for stage in (precond.coarse_correct, precond.apply):
            Cx, Cy = stage(x), stage(y)
            scale = max(np.linalg.norm(Cx) * np.linalg.norm(y),
                        np.linalg.norm(Cy) * np.linalg.norm(x))
            assert abs(x @ Cy - y @ Cx) <= 1e-10 * scale
        assert x @ precond.apply(x) > 0


@pytest.mark.parametrize("kind", ["rt0", "gmsfem"])
def test_solve_across_sixteen_orders_between_boxes(kind):
    # bands of 1e-8, 1 and 1e8: the first and last smoother boxes are
    # uniform at 1e-8 and 1e8, the middle ones span 1e8 each.  A pivot
    # check against the largest entry of all boxes rejects this smoother,
    # and pinning each box's first cell leaves CG 0.8 off the divergence
    grid = mesh.build_grid((24, 6), (4, 1))
    x = mesh.cell_multi(grid, np.arange(grid.n_cells))[:, 0]
    field = mixed_fem.PermeabilityField(
        np.select([x < 8, x < 16], [1e-8, 1.0], 1e8))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    F = WellConfig([(0, 1.0), (grid.n_cells - 1, -1.0)]).source_vector(
        grid.n_cells)
    result = pc.solve(grid, ops, basis, F)
    assert result.report.converged
    assert result.divergence_error <= 1e-10
    batch = ops.smoother(pc.SolverSettings().smoother_overlap(basis.kind))
    r = np.random.default_rng(22).standard_normal(grid.n_velocity)
    assert_box_divergence(ops, batch, batch.solve(r), None, 1e-14)


@pytest.mark.parametrize("kind", ["rt0", "gmsfem"])
@pytest.mark.parametrize("exponent", [8, 10])
def test_band_fields_solve_or_raise(kind, exponent):
    # x-bands of 1e+e, 1 and 1e-e across 32x32/4x4: a solve either meets
    # the 1e-10 divergence gate or raises, and never returns a field
    # that misses it.  At 1e+-8 both spaces must solve; rt0 needs the
    # coarse saddle's pivot check to be local to each row for that
    grid = mesh.build_grid((32, 32), (4, 4))
    field = mixed_fem.PermeabilityField(band_values(grid, exponent))
    ops = mixed_fem.assemble_operators(grid, field)
    F = WellConfig([(0, 1.0), (grid.n_cells - 1, -1.0)]).source_vector(
        grid.n_cells)
    try:
        basis = coarse_space.build_space(kind, grid, field, ops)
        result = pc.solve(grid, ops, basis, F)
    except RuntimeError:
        if exponent == 8:
            raise
        return
    assert result.report.converged
    assert result.divergence_error <= 1e-10


@pytest.mark.parametrize("kind", ["rt0", "gmsfem"])
def test_preprocess_balances_extreme_bands(kind):
    # x-bands of 1e+10, 1 and 1e-10 across 32x32/4x4 with corner wells:
    # the lumped overlap-0 boxes give the coarse residual's divergence
    # to roundoff; the exact box solves leave 5.9e-11 (rt0) and 4.5e-11
    # (gmsfem), within a factor of 2 of the 1e-10 bound
    grid = mesh.build_grid((32, 32), (4, 4))
    field = mixed_fem.PermeabilityField(band_values(grid, 10))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    pre = pc.preprocess(ops, coarse_space.coarse_operator(basis, ops),
                        corner_source(grid))
    assert pre.divergence_error <= 1e-14


@pytest.mark.parametrize("kind", ["rt0", "msfem", "gmsfem"])
def test_preprocess_matches_source_divergence(kind, rng):
    for fine, coarse in [((12, 12), (3, 3)), ((6, 6, 4), (3, 3, 2))]:
        grid = mesh.build_grid(fine, coarse)
        field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
        ops = mixed_fem.assemble_operators(grid, field)
        basis = coarse_space.build_space(kind, grid, field, ops)
        coarse_op = coarse_space.coarse_operator(basis, ops)
        for _ in range(10):
            F = rng.standard_normal(grid.n_cells)
            F -= F.mean()
            pre = pc.preprocess(ops, coarse_op, F)
            assert np.abs(ops.B @ pre.velocity - F).max() <= 1e-10
            assert pre.divergence_error <= 1e-10
            assert pre.coarse_residual <= 1e-8
            assert pre.block_correction_norms.shape == (grid.n_blocks,)
        # the coarse part alone already balances the blocks
        sums = basis.P_p.T @ (F - ops.B @ pre.coarse_velocity)
        assert np.abs(sums).max() < 1e-9


def test_preprocess_rejects_unbalanced_coarse_space():
    grid = mesh.build_grid((8, 8), (2, 2))
    field = uniform_field(grid)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_rt0_space(grid)
    # a single global pressure mode cannot balance individual blocks
    from scipy import sparse
    lumped = coarse_space.CoarseBasis(
        kind="rt0", P_v=basis.P_v,
        P_p=sparse.csr_matrix(np.ones((grid.n_cells, 1))))
    coarse_op = coarse_space.coarse_operator(lumped, ops)
    F = np.zeros(grid.n_cells)
    F[0], F[-1] = 1.0, -1.0
    with pytest.raises(RuntimeError, match="imbalance"):
        pc.preprocess(ops, coarse_op, F)


@pytest.mark.parametrize("cell,value,size,message", [
    (0, 1.0, 64, "source does not balance"),
    (5, np.nan, 64, "source must be finite; cell 5"),
    (0, 0.0, 63, r"source has shape \(63,\)"),
])
def test_bad_sources_rejected_before_any_solve(cell, value, size, message):
    grid = mesh.build_grid((8, 8), (2, 2))
    ops = mixed_fem.assemble_operators(grid, uniform_field(grid))
    basis = coarse_space.build_rt0_space(grid)
    coarse_op = coarse_space.coarse_operator(basis, ops)
    source = np.zeros(size)
    source[cell] = value
    with pytest.raises(ValueError, match=message):
        pc.preprocess(ops, coarse_op, source)
    with pytest.raises(ValueError, match=message):
        pc.solve(grid, ops, basis, source)


def test_solve_checks_the_source_before_building_factors(monkeypatch):
    grid = mesh.build_grid((8, 8), (2, 2))
    ops = mixed_fem.assemble_operators(grid, uniform_field(grid))
    basis = coarse_space.build_rt0_space(grid)

    def unexpected(*args, **kw):
        raise AssertionError("coarse operator built for a bad source")

    monkeypatch.setattr(pc, "coarse_operator", unexpected)
    source = np.zeros(grid.n_cells)
    source[0] = 1.0
    with pytest.raises(ValueError, match="source does not balance"):
        pc.solve(grid, ops, basis, source)
    assert ops._batch is None and not ops._smoothers


def test_solve_rejects_a_preconditioner_of_other_inputs(monkeypatch):
    # a preconditioner built on the 1e2 field's operators took CG 171
    # iterations on the 1e-2 field's instead of 19, without a word
    grid = mesh.build_grid((16, 16), (4, 4))
    ops, other = (mixed_fem.assemble_operators(
        grid, bench_field((16, 16), k, seed=424242)) for k in (2.0, -2.0))
    basis = coarse_space.build_rt0_space(grid)
    precond = pc.build_preconditioner(grid, ops, basis)

    def unexpected(*args, **kw):
        raise AssertionError("preprocessing ran")

    monkeypatch.setattr(pc, "preprocess", unexpected)
    source = corner_source(grid)
    for args in ((other, basis), (ops, coarse_space.build_rt0_space(grid))):
        with pytest.raises(ValueError, match="preconditioner was built on "
                           "other operators or another coarse basis"):
            pc.solve(grid, *args, source, preconditioner=precond)


def dense_lumped_velocity(ops, cells, vidx, a, b=None):
    """Velocity of one box's mass-lumped saddle with right-hand side
    (a, b less its mean), b None is 0, by a dense solve with the box's
    first pressure pinned."""
    B = ops.B[cells][:, vidx].toarray()[1:]
    K = np.block([[np.diag(trapezoidal_mass(ops, vidx)), B.T],
                  [B, np.zeros((len(B), len(B)))]])
    b = np.zeros(len(B)) if b is None else (b - b.mean())[1:]
    return np.linalg.solve(K, np.concatenate([a, b]))[:len(vidx)]


def greedy_block_colors(grid, overlap):
    """Each block in turn takes the least color of no earlier block
    whose oversampled cells it shares."""
    cells = [set(mesh.oversample(grid, b, overlap)) for b in range(grid.n_blocks)]
    colors = []
    for b in range(grid.n_blocks):
        taken = {colors[j] for j in range(b) if cells[b] & cells[j]}
        colors.append(min(set(range(b + 1)) - taken))
    return np.array(colors)


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_sweep_and_preprocess_match_block_loop(case, rng):
    grid, field = batch_case(case, rng)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_rt0_space(grid)
    settings = pc.SolverSettings()
    precond = pc.build_preconditioner(grid, ops, basis, settings)

    # reference: one sweep from zero, color by color; every oversampled
    # block of a color adds its dense lumped saddle on the residual the
    # colors before it left
    r = rng.standard_normal(grid.n_velocity)
    overlap = settings.smoother_overlap(basis.kind)
    colors = greedy_block_colors(grid, overlap)
    assert len(precond.batch.colors) == colors.max() + 1
    for reverse in (False, True):
        want = np.zeros(grid.n_velocity)
        order = range(colors.max(), -1, -1) if reverse else range(colors.max() + 1)
        for color in order:
            residual = r - ops.A @ want
            for block in np.flatnonzero(colors == color):
                cells = mesh.oversample(grid, block, overlap)
                vidx = mesh.velocity_dofs_interior_to(grid, cells)
                want[vidx] += dense_lumped_velocity(
                    ops, cells, vidx, residual[vidx])
        assert_relative_close(precond.smooth(r, reverse), want)

    F = rng.standard_normal(grid.n_cells)
    F -= F.mean()
    pre = pc.preprocess(ops, precond.coarse, F)
    residual = F - ops.B @ pre.coarse_velocity
    Av = ops.A @ pre.coarse_velocity
    want = pre.coarse_velocity.copy()
    norms = np.zeros(grid.n_blocks)
    # reference: per block, one dense lumped saddle on the coarse
    # residual, then the damped passes with the block's exact mass
    for block in range(grid.n_blocks):
        cells = mesh.oversample(grid, block, 0)
        vidx = mesh.velocity_dofs_interior_to(grid, cells)
        mass = ops.A[vidx][:, vidx]
        correction = dense_lumped_velocity(ops, cells, vidx, -Av[vidx],
                                           residual[cells])
        for _ in range(pc.MASS_PASSES):
            correction += pc.MASS_DAMPING * dense_lumped_velocity(
                ops, cells, vidx, -Av[vidx] - mass @ correction)
        want[vidx] += correction
        norms[block] = np.linalg.norm(correction)
    # ten solves apart, with a pressure right-hand side: a lumped solve
    # of the coarse residual alone differs from the dense one by up to
    # 7e-14 relative on synth-2d
    assert_relative_close(pre.velocity, want, 1e-13)
    assert_relative_close(pre.block_correction_norms, norms, 1e-13)
    assert pre.divergence_error <= 1e-10


def assert_box_divergence(ops, batch, local, b, rtol, centred=False):
    """B_loc v = b on every box, against the box's flux scale; `centred`
    takes b less its mean on each box, which the border absorbs."""
    for box in range(len(batch.counts)):
        v = local[batch.velocity_box == box]
        cells = batch.pressure_idx[batch.cell_box == box]
        B_loc = ops.B[cells][:, batch.velocity_idx[batch.velocity_box == box]]
        want = np.zeros(len(cells)) if b is None else b[cells]
        if centred:
            want = want - want.mean()
        scale = (abs(B_loc) @ np.abs(v) + np.abs(want)).max()
        assert np.abs(B_loc @ v - want).max() <= rtol * scale, block


@pytest.mark.parametrize("fine,coarse", [((24, 24), (4, 4)),
                                         ((8, 8, 8), (2, 2, 2))])
def test_batched_solves_divergence_free_at_high_contrast(fine, coarse):
    # cell coefficients log-uniform over 1e-6..1e6.  The per-block loop
    # runs the same solve code, so only this check sees an error in it:
    # a sign error in the refinement residual leaves box divergences of
    # 1e-12..1e-7 relative here
    rng = np.random.default_rng(21)
    grid = mesh.build_grid(fine, coarse)
    coeff = 10.0 ** rng.uniform(-6.0, 6.0, grid.n_cells)
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(coeff))
    precond = pc.build_preconditioner(grid, ops,
                                      coarse_space.build_rt0_space(grid))
    # lumped smoother boxes (overlap 2), then the exact basis-build
    # boxes (overlap 0) on box-local right-hand sides
    batch = precond.batch
    r = rng.standard_normal(grid.n_velocity)
    assert_box_divergence(ops, batch, batch.solve(r), None, 1e-14)
    batch = ops.batch()
    r = rng.standard_normal(grid.n_velocity)
    local, _, _ = batch.solve_core(r[batch.velocity_idx, None], 0, 0)
    assert_box_divergence(ops, batch, local[:, 0], None, 1e-14)

    # preprocessing's lumped overlap-0 boxes: B_loc v = the coarse
    # residual, to 2.6e-16 of the flux scale here
    F = rng.standard_normal(grid.n_cells)
    F -= F.mean()
    pre = pc.preprocess(ops, precond.coarse, F)
    residual = F - ops.B @ pre.coarse_velocity
    batch = ops.smoother(0)
    local = batch.solve(-(ops.A @ pre.coarse_velocity), residual)
    assert_box_divergence(ops, batch, local, residual, 1e-14)


@pytest.mark.parametrize("case", ["bands-2d", "log-3d"])
def test_lumped_solves_divergence_free_with_pressure_rhs(case):
    # the smoother's boxes keep D v = q less its box means at roundoff,
    # with q of nonzero box sums as well as q = 0: x-bands of 1e+-10 on
    # 32x32/4x4 and cells log-uniform over 1e-6..1e6 on 8^3/2^3
    if case == "bands-2d":
        grid = mesh.build_grid((32, 32), (4, 4))
        values = band_values(grid, 10)
    else:
        grid = mesh.build_grid((8, 8, 8), (2, 2, 2))
        values = 10.0 ** np.random.default_rng(23).uniform(-6, 6,
                                                            grid.n_cells)
    ops = mixed_fem.assemble_operators(grid,
                                       mixed_fem.PermeabilityField(values))
    rng = np.random.default_rng(24)
    r = rng.standard_normal(grid.n_velocity)
    q = 1.0 + rng.standard_normal(grid.n_cells)
    for overlap in sorted(set(pc.SMOOTHER_OVERLAP.values())):
        batch = ops.smoother(overlap)
        assert np.abs(batch.box_sums(q[batch.pressure_idx])).min() > 1.0
        assert_box_divergence(ops, batch, batch.solve(r), None, 1e-14)
        assert_box_divergence(ops, batch, batch.solve(r, q), q, 1e-14,
                              centred=True)


def test_apply_makes_two_triangular_solves_per_lumped_solve(monkeypatch,
                                                           rng):
    # one V-cycle at the default settings is a forward sweep and a
    # backward one over the colors, and a lumped solve is one Schur pass
    # and one divergence-only pass, each a single solve with the
    # color's banded Cholesky factor
    grid, ops, basis = _channel_setup()
    precond = pc.build_preconditioner(grid, ops, basis)
    r = rng.standard_normal(grid.n_velocity)
    want = precond.apply(r)
    calls = []

    class Counting:
        def __init__(self, k, lu):
            self.k, self.lu = k, lu

        def solve(self, *args, **kwargs):
            calls.append((self.k, args[0].shape))
            return self.lu.solve(*args, **kwargs)

    colors = precond.batch.colors
    for k, color in enumerate(colors):
        monkeypatch.setattr(color, "lu", Counting(k, color.lu))
    assert np.array_equal(precond.apply(r), want)
    shapes = [(k, (c.free.stop - c.free.start,)) for k, c in enumerate(colors)]
    assert len(colors) == 4
    assert calls == [s for s in shapes + shapes[::-1] for _ in range(2)]


def count_box_builds(monkeypatch):
    """The number of `block_solvers` calls, and the overlap of every
    lumped smoother build, in a list."""
    built = {"exact": 0, "lumped": []}
    original = mixed_fem.block_solvers

    def counted(operators):
        built["exact"] += 1
        return original(operators)

    class Counted(mixed_fem.LumpedBatch):
        def __init__(self, operators, overlap):
            built["lumped"].append(overlap)
            super().__init__(operators, overlap)

    monkeypatch.setattr(mixed_fem, "block_solvers", counted)
    monkeypatch.setattr(mixed_fem, "LumpedBatch", Counted)
    return built


def test_operators_build_block_factors_once_per_overlap(monkeypatch, rng):
    grid = mesh.build_grid((12, 12), (3, 3))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    built = count_box_builds(monkeypatch)
    basis = coarse_space.build_gmsfem_space(ops)
    F = rng.standard_normal(grid.n_cells)
    F -= F.mean()
    first = pc.solve(grid, ops, basis, F)
    second = pc.solve(grid, ops, basis, F)
    # the basis build's exact overlap-0 batch, the lumped smoother and
    # preprocessing's lumped overlap-0 boxes, and no exact factor of an
    # overlapped box
    overlap = pc.SolverSettings().smoother_overlap(basis.kind)
    assert built == {"exact": 1, "lumped": [overlap, 0]}
    assert np.array_equal(first.velocity, second.velocity)
    # new operators for the same field build their own factors, and
    # solving on a built basis needs no exact box
    pc.solve(grid, mixed_fem.assemble_operators(grid, field), basis, F)
    assert built == {"exact": 1, "lumped": [overlap, 0, overlap, 0]}


def test_smoother_overlap_follows_the_coarse_space(rng):
    # one layer for the spectral space, two for the others, unless the
    # settings name an overlap, which then holds for every space
    grid = mesh.build_grid((12, 12), (3, 3))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    for kind, overlap in (("gmsfem", 1), ("msfem", 2), ("rt0", 2)):
        basis = coarse_space.build_space(kind, grid, field, ops)
        assert pc.build_preconditioner(grid, ops, basis).batch \
            is ops.smoother(overlap)
        forced = pc.build_preconditioner(grid, ops, basis,
                                         pc.SolverSettings(overlap=3))
        assert forced.batch is ops.smoother(3)
    for bad in (0, -1, 1.0, True):
        with pytest.raises(ValueError, match="overlap"):
            pc.SolverSettings(overlap=bad)


@pytest.mark.parametrize("kind", ["rt0", "msfem"])
def test_fixed_coarse_spaces_keep_two_smoother_layers(kind):
    # the rt0-2d input at seed 424244: with no spectral modes the V-cycle
    # goes near singular at one smoother layer (condition estimates 1.27e5
    # for rt0 and 1.19e5 for msfem), and is well conditioned at the
    # default (13.6 and 13.6)
    grid = mesh.build_grid((40, 40), (4, 4))
    field = synth_field(424244, (40, 40),
                        FieldSpec(exponent=-6.0, boxes=BENCH_BOXES_2D,
                                  n_random=3, random_size=0.05))
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    source = corner_source(grid)
    default = pc.solve(grid, ops, basis, source).report
    assert default.condition_estimate < 1e3
    thin = pc.solve(grid, ops, basis, source,
                    pc.SolverSettings(overlap=1)).report
    assert thin.condition_estimate > 1e5


@pytest.mark.parametrize("kind,exponent", [
    ("rt0", 8), ("msfem", 8), ("gmsfem", 8), ("rt0", 9), ("msfem", 9),
    ("gmsfem", 9)])
def test_gradient_fits_keep_high_contrast_solves_on_the_divergence(
        monkeypatch, kind, exponent):
    # the 2D field at 1e8 and 1e9: CG's residual is nearly all discrete
    # gradient, which the V-cycle annihilates only to roundoff, so CG's
    # corrections leaked 0.4-1.0 off the divergence and the solve raised.
    # Taking the gradient out of the residual once the leak passes 1e-13,
    # and restarting CG's direction there, keeps it at 1e-13..1e-11,
    # with one or two fits
    grid = mesh.build_grid((40, 40), (4, 4))
    field = bench_field((40, 40), exponent, seed=424242)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    fits = []
    fit = pc._gradient_fit
    monkeypatch.setattr(pc, "_gradient_fit",
                        lambda *args: fits.append(1) or fit(*args))
    result = pc.solve(grid, ops, basis, corner_source(grid))
    assert result.divergence_error <= 1e-10
    assert result.report.fits == len(fits) >= 1


@pytest.mark.parametrize("kind", ["rt0", "msfem", "gmsfem"])
def test_gradient_fits_keep_tight_tolerances_on_the_divergence(kind):
    # the 2D field at 1e6 with rel_tol 1e-10: the natural norm CG took
    # before a fit had cancelled in the residual's gradient part, and
    # carrying it into the next direction left the solve 0.66-0.98 off
    # the divergence; restarting the direction at the fit keeps 1e-12
    grid = mesh.build_grid((40, 40), (4, 4))
    field = bench_field((40, 40), 6.0, seed=424242)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_space(kind, grid, field, ops)
    result = pc.solve(grid, ops, basis, corner_source(grid),
                      pc.SolverSettings(rel_tol=1e-10))
    assert result.divergence_error <= 1e-10 and result.report.fits >= 1


def test_solves_that_do_not_drift_make_no_gradient_fit():
    # the rt0-2d input: CG's correction stays at roundoff off the
    # divergence (3e-16), far below the trigger
    grid = mesh.build_grid((40, 40), (4, 4))
    field = synth_field(424242, (40, 40),
                        FieldSpec(exponent=-6.0, boxes=BENCH_BOXES_2D,
                                  n_random=3, random_size=0.05))
    ops = mixed_fem.assemble_operators(grid, field)
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                      corner_source(grid))
    assert result.report.fits == 0 and result.divergence_error <= 1e-14


def test_solve_matches_dense_oracle(rng):
    grid = mesh.build_grid((12, 12), (3, 3))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    F = WellConfig([(0, 1.0), (grid.n_cells - 1, -1.0)]).source_vector(
        grid.n_cells)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    settings = pc.SolverSettings(rel_tol=1e-10)
    result = pc.solve(grid, ops, basis, F, settings=settings,
                      with_pressure=True)
    assert result.report.converged
    assert result.divergence_error <= 1e-10

    v_ref, p_ref, _ = dense_saddle_solve(
        ops.A.toarray(), ops.B.toarray(), np.zeros(grid.n_velocity), F)
    scale = np.abs(v_ref).max()
    assert np.abs(result.velocity - v_ref).max() <= 1e-6 * scale
    p_ref -= p_ref.mean()
    assert np.abs(result.pressure - p_ref).max() <= 1e-6 * np.abs(p_ref).max()


def test_solve_variant_settings(rng):
    grid = mesh.build_grid((12, 12), (3, 3))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells, 4.0))
    F = WellConfig([(3, 1.0), (100, -1.0)]).source_vector(grid.n_cells)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    tight = pc.solve(grid, ops, basis, F,
                     settings=pc.SolverSettings(rel_tol=1e-11)).velocity
    result = pc.solve(grid, ops, basis, F,
                      settings=pc.SolverSettings(overlap=2))
    assert result.report.converged
    scale = np.abs(tight).max()
    assert np.abs(result.velocity - tight).max() < 1e-4 * scale


def test_cg_reaches_the_requested_tolerance():
    # the rt0-2d input: CG iterates down to rel_tol, past the roundoff
    # level 4 sqrt(eps * energy) (about 1e-7 here)
    grid = mesh.build_grid((40, 40), (4, 4))
    ops = mixed_fem.assemble_operators(grid, bench_field((40, 40), -6.0))
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                      corner_source(grid), pc.SolverSettings(rel_tol=1e-9))
    assert result.report.converged and result.report.residuals[-1] <= 1e-9

    # one coarse block: CG reaches the dense velocity
    grid = mesh.build_grid((8, 8), (1, 1))
    ops = mixed_fem.assemble_operators(grid, bench_field((8, 8), -6.0))
    source = corner_source(grid)
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid), source)
    v_ref, _, _ = dense_saddle_solve(ops.A, ops.B,
                                     np.zeros(grid.n_velocity), source)
    assert np.abs(result.velocity - v_ref).max() <= 1e-10 * np.abs(v_ref).max()

    # one row of cells has no divergence-free velocity: preprocessing
    # gives the exact velocity, so the right-hand side of CG is roundoff
    # and CG returns without iterating
    grid = mesh.build_grid((8, 1), (1, 1))
    ops = mixed_fem.assemble_operators(grid, bench_field((8, 1), -6.0))
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                      corner_source(grid))
    assert result.report.converged and result.report.iterations == 0


def test_degenerate_settings_rejected():
    # uncovered dofs or no stopping rule make the V-cycle or CG
    # unusable, so the settings refuse them before any solve
    for bad in ({"overlap": 0}, {"overlap": -1}, {"rel_tol": float("nan")},
                {"rel_tol": float("inf")}, {"rel_tol": -5.0},
                {"rel_tol": 0.0},
                {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
                {"max_iter": 10.0},
                {"overlap": 1.5}, {"overlap": 1.0}, {"overlap": True},
                {"overlap": "2"}):
        with pytest.raises(ValueError):
            pc.SolverSettings(**bad)
    # the V-cycle has one schedule: unit relaxation, one sweep a side
    for removed in ({"eta": 1.0}, {"sweeps": 1}):
        with pytest.raises(TypeError):
            pc.SolverSettings(**removed)
    # numpy integers are integers
    pc.SolverSettings(max_iter=np.int64(5), overlap=np.int64(2))
    # frozen, so checked settings stay checked
    with pytest.raises(AttributeError):
        pc.SolverSettings().overlap = 0


def test_breakdown_reraised_with_divergence_norm(monkeypatch):
    grid = mesh.build_grid((8, 8), (2, 2))
    ops = mixed_fem.assemble_operators(grid, uniform_field(grid))
    basis = coarse_space.build_rt0_space(grid)
    F = np.zeros(grid.n_cells)
    F[0], F[-1] = 1.0, -1.0

    def broken_pcg(*args, **kwargs):
        err = PcgBreakdownError("non-positive curvature -1.0 at iteration 3")
        err.iterate = np.zeros(grid.n_velocity)
        raise err

    monkeypatch.setattr(pc, "pcg", broken_pcg)
    with pytest.raises(PcgBreakdownError, match="iterate divergence norm"):
        pc.solve(grid, ops, basis, F)

    def bare_pcg(*args, **kwargs):
        raise PcgBreakdownError("plain failure")

    monkeypatch.setattr(pc, "pcg", bare_pcg)
    with pytest.raises(PcgBreakdownError, match="plain failure$"):
        pc.solve(grid, ops, basis, F)


def test_solve_rejects_a_stalled_cg():
    # rt0 on the 12x12 comb needs more than 2 iterations: a CG cut off at
    # max_iter is not a solution, so solve raises instead of returning it
    grid = mesh.build_grid((12, 12), (3, 3))
    ops = mixed_fem.assemble_operators(grid, bench_field((12, 12), -6))
    # the stall is named first, with the divergence error it left
    with pytest.raises(RuntimeError,
                       match=r"^solve stalled after 2 iterations at "
                             r"relative residual \d\.\d+e[-+]\d+ "
                             r"\(divergence error \d\.\d+e[-+]\d+\)$"):
        pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                 corner_source(grid), pc.SolverSettings(max_iter=2))


def test_single_cell_grid_solves():
    # one box of one cell: the lumped smoother has no unpinned cell left
    grid = mesh.build_grid((1, 1), (1, 1))
    ops = mixed_fem.assemble_operators(grid, uniform_field(grid))
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                      np.zeros(1), with_pressure=True)
    assert result.report.converged and result.pressure.tolist() == [0.0]
    assert [color.lu for color in ops.smoother(0).colors] == [None]


def test_solve_rejects_a_velocity_off_the_divergence_constraint(monkeypatch):
    # the 2D bench field at 1e8 without gradient fits: CG drifts off the
    # divergence and reports convergence with its velocity 0.4 off the
    # source, nine orders above the bound
    monkeypatch.setattr(pc, "DRIFT_TRIGGER", np.inf)
    grid = mesh.build_grid((40, 40), (4, 4))
    ops = mixed_fem.assemble_operators(
        grid, bench_field((40, 40), 8.0, seed=424242))
    with pytest.raises(RuntimeError, match="CG left divergence error"):
        pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                 corner_source(grid))


def test_recover_pressure_single_cell():
    # no velocity dof: the one pressure is the zero mean
    grid = mesh.build_grid((1, 1), (1, 1))
    ops = mixed_fem.assemble_operators(grid, uniform_field(grid))
    coarse = coarse_space.coarse_operator(coarse_space.build_rt0_space(grid),
                                          ops)
    p = pc.recover_pressure(ops, coarse, np.zeros(grid.n_velocity))
    assert p.tolist() == [0.0]


@pytest.mark.parametrize("kind", ["rt0", "msfem", "gmsfem"])
@pytest.mark.parametrize("fine, blocks", [
    ((10, 10), (2, 2)),
    ((8, 8), (1, 1)),        # one block: no coarse velocity
    ((12, 12), (12, 3)),     # blocks one cell thick
    ((6, 6, 6), (2, 2, 2)),
], ids=["2d", "one-block", "thin-blocks", "3d"])
def test_recover_pressure_exact_on_exact_velocity(kind, fine, blocks):
    # the box and coarse saddle solves reproduce the saddle pressure of
    # an exact velocity on a 1e+-6 field
    grid = mesh.build_grid(fine, blocks)
    field = mixed_fem.PermeabilityField(
        random_log_field(np.random.default_rng(3), grid.n_cells, 12.0))
    ops = mixed_fem.assemble_operators(grid, field)
    coarse = coarse_space.coarse_operator(
        coarse_space.build_space(kind, grid, field, ops), ops)
    v_ref, p_ref, _ = dense_saddle_solve(
        ops.A.toarray(), ops.B.toarray(), np.zeros(grid.n_velocity),
        corner_source(grid))
    p = pc.recover_pressure(ops, coarse, v_ref)
    assert abs(p.mean()) < 1e-12 * np.abs(p).max()
    p_ref -= p_ref.mean()
    assert np.abs(p - p_ref).max() <= 1e-9 * np.abs(p_ref).max()


def test_rt0_solve_builds_no_box_factor(monkeypatch):
    # the exact box saddles serve the msfem and gmsfem basis builds only:
    # preprocessing and recovery run on the lumped overlap-0 boxes
    def no_factor(*args, **kwargs):
        raise AssertionError("an exact box factor was built")

    monkeypatch.setattr(mixed_fem, "_BoxFactor", no_factor)
    grid = mesh.build_grid((12, 12), (3, 3))
    ops = mixed_fem.assemble_operators(grid, bench_field((12, 12), -6.0))
    result = pc.solve(grid, ops, coarse_space.build_rt0_space(grid),
                      corner_source(grid), pc.SolverSettings(rel_tol=1e-10),
                      with_pressure=True)
    assert result.divergence_error <= 1e-10
    assert ops._batch is None


def test_solve_from_a_start_velocity(monkeypatch, rng):
    grid = mesh.build_grid((12, 12), (3, 3))
    f = WellConfig([(0, 1.0), (grid.n_cells - 1, -1.0)]).source_vector(
        grid.n_cells)
    old = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(
        random_log_field(rng, grid.n_cells, 4.0)))
    basis = coarse_space.build_gmsfem_space(old)
    start = pc.solve(grid, old, basis, f).velocity
    ops = mixed_fem.assemble_operators(grid, mixed_fem.PermeabilityField(
        random_log_field(rng, grid.n_cells, 4.0)))

    def no_factor(*args, **kwargs):
        raise AssertionError("a factor was built")

    # a bad start is rejected before the preconditioner is built
    with monkeypatch.context() as patched:
        for owner, name in ((mixed_fem, "factor"), (mixed_fem, "LumpedBatch"),
                            (pc, "coarse_operator")):
            patched.setattr(owner, name, no_factor)
        nan = start.copy()
        nan[7] = np.nan
        for bad, message in ((start[:-1], "shape"), (nan, "finite"),
                             (np.zeros_like(start), "misses the source")):
            with pytest.raises(ValueError, match=message):
                pc.solve(grid, ops, basis, f, start=bad)

    # the previous velocity meets B v = f: CG starts there, no
    # preprocessing runs, and the velocity is the cold solve's
    monkeypatch.setattr(pc, "preprocess", no_factor)
    result = pc.solve(grid, ops, basis, f, start=start)
    v_ref, _, _ = dense_saddle_solve(ops.A, ops.B, np.zeros(grid.n_velocity), f)
    diff = result.velocity - v_ref
    error = np.sqrt(diff @ (ops.A @ diff) / (v_ref @ (ops.A @ v_ref)))
    assert result.report.converged and result.divergence_error <= 1e-14
    assert error <= 1e-4


def test_recover_pressure_warns_on_bad_velocity(rng, monkeypatch):
    grid = mesh.build_grid((10, 10), (2, 2))
    field = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells))
    ops = mixed_fem.assemble_operators(grid, field)
    coarse = coarse_space.coarse_operator(coarse_space.build_rt0_space(grid),
                                          ops)
    ops.smoother(0)  # built by preprocessing before any recovery in `solve`

    def no_factor(*args, **kwargs):
        raise AssertionError("pressure recovery built a factor")

    # recovery solves with the factors the operators and coarse hold:
    # no band Cholesky and no box factor is built
    monkeypatch.setattr(sparse_linalg, "dpbtrf", no_factor)
    monkeypatch.setattr(mixed_fem, "_BoxFactor", no_factor)
    with pytest.warns(RuntimeWarning,
                      match="relative momentum residual .* exceeds 1e-5"):
        pc.recover_pressure(ops, coarse, rng.standard_normal(grid.n_velocity))
