"""Fluid model closed forms, implicit transport against scalar oracles,
and the sequential pressure/saturation loop."""

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.sparse.linalg import splu

import msflow.two_phase as tp
from msflow import mesh, mixed_fem, preconditioner as pc
from msflow.coarse_space import build_rt0_space

from conftest import random_log_field


def test_fluid_pinned_values():
    fluid = tp.FluidModel()
    # [DERIVED] s^2 + (1-s)^2/5 and its flux fraction, evaluated by hand
    assert tp.total_mobility(fluid, np.array([ 0.0]))[0] == pytest.approx(0.2)
    assert tp.total_mobility(fluid, np.array([ 0.2]))[0] == pytest.approx(0.168)
    assert tp.total_mobility(fluid, np.array([ 0.3]))[0] == pytest.approx(0.188)
    assert tp.total_mobility(fluid, np.array([ 1.0]))[0] == pytest.approx(1.0)
    fw, _ = tp.fractional_flow(fluid, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(fw, [0.0, 0.25 / 0.30, 1.0])


def test_fractional_flow_derivative_matches_finite_differences():
    fluid = tp.FluidModel(mu_w=0.7, mu_o=3.0)
    s = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    fw, dfw = tp.fractional_flow(fluid, s)
    assert np.all(dfw >= 0.0)
    h = 1e-7
    fd = (tp.fractional_flow(fluid, s + h)[0]
          - tp.fractional_flow(fluid, s - h)[0]) / (2 * h)
    assert np.abs(dfw - fd).max() < 1e-6


def test_mobility_clamps_and_warns():
    fluid = tp.FluidModel()
    with pytest.warns(RuntimeWarning, match="clamped"):
        lam = tp.total_mobility(fluid, np.array([-0.1, 0.5]))
    assert lam[0] == pytest.approx(0.2)  # treated as s = 0


def test_fluid_validation():
    with pytest.raises(ValueError, match="viscosities"):
        tp.FluidModel(mu_w=0.0)
    with pytest.raises(ValueError):
        tp.FluidModel(mu_o=-2.0)


def test_well_config():
    with pytest.raises(ValueError, match="sum to"):
        tp.WellConfig([(0, 1.0), (5, -0.5)])
    # non-finite rates used to pass the balance check
    for bad in ([(0, float("nan")), (1, -1.0)],
                [(0, float("inf")), (1, -float("inf"))]):
        with pytest.raises(ValueError, match="well 0: rate .* not finite"):
            tp.WellConfig(bad)
    wells = tp.WellConfig([(0, 1.0), (3, -0.75), (5, -0.25)])
    q_plus, q_minus = wells.split(6)
    assert q_plus.sum() == pytest.approx(1.0)
    assert q_minus.sum() == pytest.approx(-1.0)
    assert wells.producer_cells == [3, 5]
    assert tp.WellConfig([]).source_vector(4).max() == 0.0


@pytest.mark.parametrize("cell", [-1, 4, 1.0, "0", True])
def test_well_config_rejects_bad_cell_ids(cell):
    # a negative id used to wrap silently onto the last cell
    wells = tp.WellConfig([(cell, 1.0), (0, -1.0)])
    with pytest.raises(ValueError, match=r"well 0 .*not a cell id in \[0, 4\)"):
        wells.source_vector(4)
    with pytest.raises(ValueError, match="well 0"):
        wells.split(4)


def test_five_spot_layouts():
    even = mesh.build_grid((4, 4), (2, 2))
    wells = tp.five_spot_wells(even, rate=2.0)
    rates = dict(wells.wells)
    corners = [0, 3, 12, 15]
    assert all(rates[c] == pytest.approx(0.5) for c in corners)
    centre = [c for c, r in wells.wells if r < 0]
    assert sorted(centre) == [5, 6, 9, 10]
    assert all(rates[c] == pytest.approx(-0.5) for c in centre)

    odd = mesh.build_grid((5, 5), (1, 1))
    centre = [c for c, r in tp.five_spot_wells(odd).wells if r < 0]
    assert centre == [12]

    cube = mesh.build_grid((4, 4, 4), (2, 2, 2))
    wells3 = tp.five_spot_wells(cube, rate=1.0)
    assert sum(1 for _, r in wells3.wells if r > 0) == 8
    assert sum(1 for _, r in wells3.wells if r < 0) == 8


def test_transport_without_flow_is_identity():
    grid = mesh.build_grid((4, 4), (2, 2))
    state = tp.TransportState.initial(grid, s0=0.25)
    out = tp.transport_step(grid, tp.FluidModel(), state,
                            np.zeros(grid.n_velocity), tp.WellConfig([]), 0.1)
    assert np.abs(out.s - 0.25).max() == 0.0
    assert out.time == pytest.approx(0.1)


def test_transport_matches_scalar_oracle():
    # two cells, one face: the implicit equations decouple in upwind
    # order and each reduces to a scalar root find
    grid = mesh.build_grid((2, 1), (1, 1))
    fluid = tp.FluidModel()
    q, dt = 0.3, 0.05
    wells = tp.WellConfig([(0, q), (1, -q)])
    state = tp.TransportState.initial(grid, porosity=0.2, s0=0.1)
    area = grid.face_area(0)
    v = np.array([q / area])
    out = tp.transport_step(grid, fluid, state, v, wells, dt)

    pv = 0.2 * grid.cell_volume

    def fw(x):
        return tp.fractional_flow(fluid, np.array([x]))[0][0]

    s0_new = optimize.brentq(
        lambda x: pv * (x - 0.1) - dt * q * (1.0 - fw(x)), 0.0, 1.0,
        xtol=1e-14)
    s1_new = optimize.brentq(
        lambda y: pv * (y - 0.1) - dt * q * (fw(s0_new) - fw(y)), 0.0, 1.0,
        xtol=1e-14)
    assert out.s[0] == pytest.approx(s0_new, abs=1e-9)
    assert out.s[1] == pytest.approx(s1_new, abs=1e-9)


def vortex_velocity(grid, psi):
    """Face velocities of the stream function `psi` on the interior nodes.

    The stream function is zero on the boundary, so no flow leaves the
    domain, and the discrete divergence telescopes to zero: the flow
    only circulates.
    """
    nodes = np.zeros(tuple(n + 1 for n in grid.fine))
    nodes[1:-1, 1:-1] = psi
    faces = np.arange(grid.n_velocity)
    lo, _ = mesh.face_adjacent_cells(grid, faces)
    i, j = np.unravel_index(lo, grid.fine, order="F")
    along_x = faces < grid.face_offsets[1]
    return np.where(along_x,
                    (nodes[i + 1, j + 1] - nodes[i + 1, j]) / grid.h[1],
                    -(nodes[i + 1, j + 1] - nodes[i, j + 1]) / grid.h[0])


def dense_newton_transport(grid, fluid, s0, pv, v, dt):
    """Implicit upwind step without wells, face by face with a dense
    Jacobian; same stopping rule as the package."""
    faces = np.arange(grid.n_velocity)
    lo, hi = mesh.face_adjacent_cells(grid, faces)
    area = np.where(faces < grid.face_offsets[1], grid.face_area(0),
                    grid.face_area(1))
    s = s0.copy()
    for _ in range(25):
        fw, dfw = tp.fractional_flow(fluid, np.clip(s, 0.0, 1.0))
        residual = pv * (s - s0)
        jac = np.diag(pv)
        for f in faces:
            rate = v[f] * area[f]
            up = lo[f] if rate > 0 else hi[f]
            residual[lo[f]] += dt * rate * fw[up]
            residual[hi[f]] -= dt * rate * fw[up]
            jac[lo[f], up] += dt * rate * dfw[up]
            jac[hi[f], up] -= dt * rate * dfw[up]
        if np.abs(residual).max() <= 1e-10 * max(1.0, np.abs(s).max()):
            return s
        s = s - np.linalg.solve(jac, residual)
    raise AssertionError("dense Newton did not converge")


def test_transport_on_circulating_flow_matches_dense_newton(rng):
    grid = mesh.build_grid((4, 4), (2, 2))
    fluid = tp.FluidModel()
    v = vortex_velocity(grid, rng.uniform(0.5, 1.5, (3, 3)))
    assert np.abs(mixed_fem.assemble_divergence(grid) @ v).max() < 1e-12
    state = tp.TransportState(s=rng.uniform(0.05, 0.95, grid.n_cells),
                              porosity=np.full(grid.n_cells, 0.2))
    wells, dt = tp.WellConfig([]), 0.01

    # the upwind graph has cycles: the ordered Jacobian is not triangular
    flow = tp.UpwindFlow.build(grid, v, wells)
    pv = state.porosity * grid.cell_volume
    _, dfw = tp.fractional_flow(fluid, state.s)
    assert sparse.triu(flow.jacobian(dt, dfw, pv), 1).nnz > 0

    out = tp.transport_step(grid, fluid, state, v, wells, dt)
    want = dense_newton_transport(grid, fluid, state.s, pv, v, dt)
    assert out.newton_iterations > 0 and out.halvings == 0
    assert np.abs(out.s - np.clip(want, 0.0, 1.0)).max() <= 1e-12


def five_spot_velocity(orders):
    """Pressure-step velocity of a five-spot on a random log field."""
    grid = mesh.build_grid((12, 12), (3, 3))
    kappa = mixed_fem.PermeabilityField(
        random_log_field(np.random.default_rng(3), grid.n_cells, orders))
    wells = tp.five_spot_wells(grid)
    state = tp.TransportState.initial(grid, s0=0.0)
    v, _ = tp.pressure_step(grid, kappa, tp.FluidModel(), state,
                            build_rt0_space(grid), wells)
    return grid, wells, v


def ordered_jacobian(grid, flow):
    _, dfw = tp.fractional_flow(tp.FluidModel(), np.full(grid.n_cells, 0.3))
    return flow.jacobian(1e-3, dfw, np.full(grid.n_cells, 0.2))


def test_five_spot_jacobian_is_triangular_without_fill():
    grid, wells, v = five_spot_velocity(orders=1.0)
    flow = tp.UpwindFlow.build(grid, v, wells)
    assert sorted(flow.order) == list(range(grid.n_cells))
    assert np.array_equal(flow.order[flow.rank], np.arange(grid.n_cells))
    jac = ordered_jacobian(grid, flow)
    assert sparse.triu(jac, 1).nnz == 0
    lu = splu(jac, permc_spec="NATURAL")
    assert lu.L.nnz + lu.U.nnz - grid.n_cells == jac.nnz
    assert np.array_equal(lu.perm_r, np.arange(grid.n_cells))


def test_transport_with_prebuilt_flow_is_bit_identical(rng):
    # four decades of contrast: the RT0 velocity circulates in places
    grid, wells, v = five_spot_velocity(orders=4.0)
    flow = tp.UpwindFlow.build(grid, v, wells)
    assert sparse.triu(ordered_jacobian(grid, flow), 1).nnz > 0
    fluid = tp.FluidModel()
    state = tp.TransportState(s=rng.uniform(0.0, 0.5, grid.n_cells),
                              porosity=np.full(grid.n_cells, 0.2))
    own = tp.transport_step(grid, fluid, state, v, wells, 0.01)
    given = tp.transport_step(grid, fluid, state, v, wells, 0.01, flow=flow)
    assert np.array_equal(own.s, given.s)
    assert own.bound_violation == given.bound_violation
    assert own.newton_iterations == given.newton_iterations > 0


def test_transport_halves_steps_then_gives_up(monkeypatch):
    grid = mesh.build_grid((4, 4), (2, 2))
    state = tp.TransportState.initial(grid)
    wells = tp.WellConfig([])
    v = np.zeros(grid.n_velocity)
    calls = []

    def flaky(grid_, fluid_, s0, porosity, v_, wells_, dt, *rest, **kw):
        calls.append(dt)
        if dt > 0.026:
            raise tp._NewtonFailure("stuck")
        return s0 + 0.01, 1

    monkeypatch.setattr(tp, "_newton_transport", flaky)
    out = tp.transport_step(grid, tp.FluidModel(), state, v, wells, 0.1)
    # dt=0.1 and dt=0.05 fail, four quarter steps succeed
    assert calls == [0.1, 0.05, 0.025, 0.025, 0.025, 0.025]
    assert np.allclose(out.s, 0.04)
    assert out.dt == pytest.approx(0.1)
    assert out.halvings == 2
    assert out.newton_iterations == 4

    def hopeless(*args, **kw):
        raise tp._NewtonFailure("stuck")

    monkeypatch.setattr(tp, "_newton_transport", hopeless)
    with pytest.raises(RuntimeError, match="dt/16"):
        tp.transport_step(grid, tp.FluidModel(), state, v, wells, 0.1)


def test_pressure_step_reduces_to_single_phase(rng):
    # at connate conditions the mobility is constant, and a constant
    # coefficient scaling cancels from the velocity
    grid = mesh.build_grid((12, 12), (3, 3))
    kappa = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells, 4.0))
    basis = build_rt0_space(grid)
    wells = tp.five_spot_wells(grid)
    state = tp.TransportState.initial(grid, s0=0.0)
    v, report = tp.pressure_step(grid, kappa, tp.FluidModel(), state, basis,
                                 wells, pc.SolverSettings(rel_tol=1e-10))
    assert report.converged

    ops = mixed_fem.assemble_operators(grid, kappa)
    ref = pc.solve(grid, ops, basis, wells.source_vector(grid.n_cells),
                   pc.SolverSettings(rel_tol=1e-10))
    scale = np.abs(ref.velocity).max()
    assert np.abs(v - ref.velocity).max() < 1e-6 * scale


@pytest.mark.parametrize("bad", [
    {"dt": 0.0}, {"dt": -1e-3}, {"dt": float("nan")}, {"dt": float("inf")},
    {"n_steps": 0}, {"pressure_interval": 0}, {"pressure_interval": -5},
])
def test_impes_config_rejects_bad_stepping(bad):
    grid = mesh.build_grid((4, 4), (2, 2))
    with pytest.raises(ValueError):
        tp.IMPESConfig(grid=grid, kappa=mixed_fem.uniform_field(grid), **bad)


@pytest.fixture(scope="module")
def five_spot_run():
    grid = mesh.build_grid((8, 8), (2, 2))
    kappa = mixed_fem.uniform_field(grid)
    config = tp.IMPESConfig(grid=grid, kappa=kappa, dt=2e-3, n_steps=30,
                            pressure_interval=10, checkpoint_steps=(10, 30))
    return grid, config, tp.impes_run(config)


def test_impes_bookkeeping(five_spot_run):
    grid, config, result = five_spot_run
    assert len(result.states) == config.n_steps + 1
    assert len(result.reports) == 3
    assert sorted(result.checkpoints) == [10, 30]
    assert result.water_cut.shape == (config.n_steps,)


def test_impes_bounds_and_water_cut(five_spot_run):
    _, _, result = five_spot_run
    for state in result.states:
        assert state.s.min() >= 0.0 and state.s.max() <= 1.0
        assert state.bound_violation <= 1e-9
    assert np.all(np.diff(result.water_cut) >= -1e-12)
    assert result.water_cut[-1] > 0.0  # the front has reached the producer


def test_impes_mass_balance(five_spot_run):
    grid, config, result = five_spot_run
    wells = tp.five_spot_wells(grid)
    q_plus, q_minus = wells.split(grid.n_cells)
    for before, after in zip(result.states, result.states[1:]):
        pv = after.porosity * grid.cell_volume
        stored = float(pv @ (after.s - before.s))
        fw, _ = tp.fractional_flow(config.fluid, after.s)
        injected = config.dt * (q_plus.sum() + float(fw @ q_minus))
        assert abs(stored - injected) <= 1e-9


def test_impes_reflection_symmetry(five_spot_run):
    grid, _, result = five_spot_run
    for s in result.checkpoints.values():
        box = s.reshape(grid.fine, order="F")
        assert np.abs(box - box[::-1, :]).max() <= 1e-8
        assert np.abs(box - box[:, ::-1]).max() <= 1e-8
        assert np.abs(box - box.T).max() <= 1e-8


def test_frozen_basis_tracks_rebuilt(rng):
    grid = mesh.build_grid((16, 16), (4, 4))
    kappa = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells, 4.0))
    common = dict(grid=grid, kappa=kappa, dt=2e-3, n_steps=20,
                  pressure_interval=10)
    frozen = tp.impes_run(tp.IMPESConfig(**common))
    rebuilt = tp.impes_run(tp.IMPESConfig(**common, rebuild_basis=True))
    for fr, rb in zip(frozen.reports, rebuilt.reports):
        assert fr.converged and rb.converged
        assert fr.iterations <= rb.iterations + 5
    # both runs transport the same physics
    gap = np.abs(frozen.states[-1].s - rebuilt.states[-1].s).max()
    assert gap < 1e-5
