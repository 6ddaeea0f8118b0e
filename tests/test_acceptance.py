"""Eight end-to-end gate checks over the assembled solver stack.

One test per criterion; the terminal summary prints a PASSED/FAILED
line for each.  The heavy protocol runs (criteria 4 and 7) carry
explicit wall-clock budgets and everything runs single-process.
"""

import numpy as np
import pytest
from conftest import (
    DivFreeProjector,
    StopWatch,
    dense_saddle_solve,
    random_log_field,
)

import msflow.preconditioner as pc
import msflow.two_phase as tp
from msflow import coarse_space, mesh, mixed_fem
from msflow.bench_cli import (
    bench_field,
    build_config,
    corner_source,
    read_raster,
    run_robustness_sweep,
    write_raster,
)

SMALL_GRIDS = [((12, 12), (3, 3)), ((24, 24), (4, 4)), ((8, 8, 8), (2, 2, 2))]


def _balanced_source(rng, n):
    f = rng.standard_normal(n)
    return f - f.mean()


def test_criterion_1_velocity_matches_dense_saddle_solve(rng):
    # two-grid PCG against a dense direct solve of the bordered system,
    # random coefficients spanning six orders of magnitude
    with StopWatch() as watch:
        for fine, coarse in SMALL_GRIDS:
            grid = mesh.build_grid(fine, coarse)
            field = mixed_fem.PermeabilityField(
                random_log_field(rng, grid.n_cells, orders=6.0))
            ops = mixed_fem.assemble_operators(grid, field)
            basis = coarse_space.build_gmsfem_space(ops)
            F = _balanced_source(rng, grid.n_cells)
            result = pc.solve(grid, ops, basis, F,
                              settings=pc.SolverSettings(rel_tol=1e-10))
            assert result.report.converged

            v_ref, _, _ = dense_saddle_solve(
                ops.A, ops.B, np.zeros(grid.n_velocity), F)
            scale = np.abs(v_ref).max()
            assert np.abs(result.velocity - v_ref).max() <= 1e-6 * scale
    assert watch.seconds < 120.0


def test_criterion_2_preprocessing_balances_every_source(rng):
    for fine, coarse in [((24, 24), (4, 4)), ((8, 8, 8), (2, 2, 2))]:
        grid = mesh.build_grid(fine, coarse)
        field = mixed_fem.PermeabilityField(
            random_log_field(rng, grid.n_cells, orders=6.0))
        ops = mixed_fem.assemble_operators(grid, field)
        for kind in ("gmsfem", "msfem", "rt0"):
            basis = coarse_space.build_space(kind, grid, field, ops)
            coarse_op = coarse_space.coarse_operator(basis, ops)
            for _ in range(50):
                F = _balanced_source(rng, grid.n_cells)
                pre = pc.preprocess(ops, coarse_op, F)
                assert np.abs(ops.B @ pre.velocity - F).max() <= 1e-10


def test_criterion_3_vcycle_divergence_free_and_spd(rng):
    # high-contrast crossing channels; every stage output must stay in
    # the divergence-free subspace and the V-cycle must act SPD there
    grid = mesh.build_grid((16, 16), (4, 4))
    values = np.ones(grid.n_cells)
    cells = np.arange(grid.n_cells).reshape((16, 16), order="F")
    values[cells[:, 5]] = 1e6
    values[cells[8, :]] = 1e6
    field = mixed_fem.PermeabilityField(values)
    ops = mixed_fem.assemble_operators(grid, field)
    basis = coarse_space.build_gmsfem_space(ops)
    precond = pc.build_preconditioner(grid, ops, basis)

    for _ in range(10):
        r = rng.standard_normal(grid.n_velocity)
        for stage in (precond.smooth, precond.coarse_correct, precond.apply):
            z = stage(r)
            assert np.abs(ops.B @ z).max() <= 1e-10 * max(1.0, np.abs(z).max())

    proj = DivFreeProjector(ops.B)
    for _ in range(100):
        x = proj.random(rng, grid.n_velocity)
        y = proj.random(rng, grid.n_velocity)
        Mx, My = precond.apply(x), precond.apply(y)
        assert abs(x @ My - y @ Mx) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
        assert x @ Mx > 0.0


def test_criterion_4_contrast_robustness_sweep():
    config = build_config({}, {
        "grid": (100, 100), "coarse": (10, 10),
        "spaces": ("gmsfem", "rt0"),
        "contrasts": (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0)})
    with StopWatch() as watch:
        report = run_robustness_sweep(config)
    assert watch.seconds < 300.0

    gms = {r.contrast: r.iterations for r in report.rows if r.space == "gmsfem"}
    rt0 = {r.contrast: r.iterations for r in report.rows if r.space == "rt0"}
    assert set(gms) == set(rt0) == set(config.contrasts)
    # spectral space: flat counts across twelve orders of contrast
    assert max(gms.values()) <= 40
    assert max(gms.values()) / min(gms.values()) <= 1.5
    # plain coarse space: clear degradation at strong contrast
    assert rt0[-6.0] >= 3 * rt0[0.0]


def test_criterion_5_coarse_space_ordering_3d():
    grid = mesh.build_grid((32, 32, 32), (4, 4, 4))
    field = bench_field((32, 32, 32), -4.0)
    ops = mixed_fem.assemble_operators(grid, field)
    F = corner_source(grid)
    iters, conds = {}, {}
    for kind in ("gmsfem", "msfem", "rt0"):
        basis = coarse_space.build_space(kind, grid, field, ops)
        result = pc.solve(grid, ops, basis, F)
        assert result.report.converged
        iters[kind] = result.report.iterations
        conds[kind] = result.report.condition_estimate
    assert iters["gmsfem"] < iters["msfem"] <= iters["rt0"]
    assert conds["gmsfem"] < conds["msfem"] <= conds["rt0"]


def test_criterion_6_spectral_selection(rng):
    grid = mesh.build_grid((16, 16), (4, 4))
    field = mixed_fem.PermeabilityField(
        random_log_field(rng, grid.n_cells, orders=4.0))
    ops = mixed_fem.assemble_operators(grid, field)
    for face in mesh.coarse_faces(grid)[:6]:
        family = coarse_space.snapshot_face(ops, face)
        a = coarse_space.face_bilinear_a(ops, face)
        s = coarse_space.face_bilinear_s(ops, family)
        w, X = coarse_space.face_eigenpairs(ops, family)
        # residuals, S-orthonormality, ascending (so 1/lambda decays)
        scale = np.abs(a).max() + np.abs(w).max() * np.abs(s).max()
        assert np.abs(a @ X - s @ X @ np.diag(w)).max() <= 1e-10 * scale
        assert np.abs(X.T @ s @ X - np.eye(len(w))).max() <= 1e-10
        assert w.min() > 0.0
        assert np.all(np.diff(w) >= -1e-12 * w[-1])
        # larger tolerances keep supersets of the same leading modes
        counts, kept = [], []
        for tol in (w[0] * 1.001, float(np.median(w)), w[-1] * 2.0):
            sel = coarse_space.select_modes(w, tol)
            counts.append(sel.count)
            kept.append(sel.kept_eigenvalues)
        assert counts == sorted(counts)
        for small, large in zip(kept, kept[1:]):
            assert np.array_equal(small, large[:len(small)])

    # constant coefficient: a tolerance inside the first spectral gap
    # keeps exactly the net-flux mode, one per face plus one per block
    uni = mesh.build_grid((20, 20), (2, 2), domain_lengths=(0.2, 0.2))
    ufield = mixed_fem.uniform_field(uni)
    uops = mixed_fem.assemble_operators(uni, ufield)
    face = mesh.coarse_faces(uni)[0]
    w, _ = coarse_space.face_eigenpairs(
        uops, coarse_space.snapshot_face(uops, face))
    basis = coarse_space.build_gmsfem_space(uops, tol=0.5 * (w[0] + w[1]))
    assert basis.dim == len(mesh.coarse_faces(uni)) + uni.n_blocks


def test_criterion_7_two_phase_properties():
    grid = mesh.build_grid((40, 40), (4, 4))
    kappa = mixed_fem.uniform_field(grid)
    common = dict(grid=grid, kappa=kappa, dt=1.5e-3, n_steps=60,
                  pressure_interval=15, checkpoint_steps=(15, 30, 60))
    with StopWatch() as watch:
        frozen = tp.impes_run(tp.IMPESConfig(**common))
        rebuilt = tp.impes_run(tp.IMPESConfig(**common, rebuild_basis=True))
    assert watch.seconds < 600.0

    result = frozen
    config = tp.IMPESConfig(**common)
    for state in result.states:
        assert state.s.min() >= 0.0 and state.s.max() <= 1.0
        assert state.bound_violation <= 1e-9

    wells = tp.five_spot_wells(grid)
    q_plus, q_minus = wells.split(grid.n_cells)
    for before, after in zip(result.states, result.states[1:]):
        pv = after.porosity * grid.cell_volume
        stored = float(pv @ (after.s - before.s))
        fw, _ = tp.fractional_flow(config.fluid, after.s)
        injected = config.dt * (q_plus.sum() + float(fw @ q_minus))
        assert abs(stored - injected) <= 1e-9

    # uniform rock, symmetric wells: four-fold symmetric saturation
    for s in result.checkpoints.values():
        box = s.reshape(grid.fine, order="F")
        assert np.abs(box - box[::-1, :]).max() <= 1e-8
        assert np.abs(box - box[:, ::-1]).max() <= 1e-8
        assert np.abs(box - box.T).max() <= 1e-8

    assert np.all(np.diff(result.water_cut) >= -1e-12)
    assert result.water_cut[-1] > 0.0

    # reusing the initial coarse space costs at most a few iterations
    assert len(frozen.reports) == len(rebuilt.reports) == 4
    for fr, rb in zip(frozen.reports, rebuilt.reports):
        assert fr.converged and rb.converged
        assert fr.iterations <= rb.iterations + 5


def test_criterion_8_dof_arithmetic_and_reader(tmp_path):
    # full-scale cases are asserted arithmetically, never solved
    big = mesh.build_grid((220, 60, 80), (20, 10, 10))
    n_v, n_p = mesh.count_dofs(big)
    assert n_v == 219 * 60 * 80 + 220 * 59 * 80 + 220 * 60 * 79 == 3_132_400
    assert n_p == 1_056_000
    assert n_v + n_p == 4_188_400
    assert n_v + n_p + 1 == 4_188_401  # mean-pressure constraint row

    cube = mesh.build_grid((64, 64, 64), (8, 8, 8))
    n_v, n_p = mesh.count_dofs(cube)
    assert (n_v, n_p) == (774_144, 262_144)
    assert n_v + n_p + 1 == 1_036_289

    # layered reader round trip with per-layer sentinel values
    dims = (6, 5, 4)
    plane = 30
    stored = np.array([1000.0 * layer + i + 1.0
                       for layer in range(9) for i in range(plane)])
    path = tmp_path / "stack.dat"
    write_raster(path, stored)
    field = read_raster(path, dims, layout="spe10", layers=(3, 7))
    assert np.array_equal(field.values, stored[3 * plane:7 * plane])
    for k in range(4):
        assert field.values[k * plane] == 1000.0 * (3 + k) + 1.0
        assert field.values[(k + 1) * plane - 1] == 1000.0 * (3 + k) + plane

    out = tmp_path / "slice.bin"
    write_raster(out, field.values, layout="binary")
    again = read_raster(out, dims, layout="binary")
    assert np.array_equal(again.values, field.values)
