"""Fluid model closed forms, implicit transport against scalar oracles,
and the sequential pressure/saturation loop."""

import dataclasses

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.sparse.linalg import splu

import msflow.two_phase as tp
from msflow import mesh, mixed_fem, preconditioner as pc
from msflow.bench_cli import bench_field
from msflow.coarse_space import build_rt0_space, build_space

from conftest import random_log_field
from test_preconditioner import count_box_builds


def test_fluid_pinned_values():
    fluid = tp.FluidModel()
    # [DERIVED] s^2 + (1-s)^2/5 and its flux fraction, evaluated by hand
    assert tp.total_mobility(fluid, np.array([ 0.0]))[0] == pytest.approx(0.2)
    assert tp.total_mobility(fluid, np.array([ 0.2]))[0] == pytest.approx(0.168)
    assert tp.total_mobility(fluid, np.array([ 0.3]))[0] == pytest.approx(0.188)
    assert tp.total_mobility(fluid, np.array([ 1.0]))[0] == pytest.approx(1.0)
    fw, _ = tp.fractional_flow(fluid, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(fw, [0.0, 0.25 / 0.30, 1.0])
    # the pressure coefficient is one field: permeability times mobility
    field = tp.mobility_field(mixed_fem.PermeabilityField([2.0, 3.0]), fluid,
                              np.array([0.0, 1.0]))
    assert np.array_equal(field.values, [2.0 * 0.2, 3.0])


def test_fractional_flow_derivative_matches_finite_differences():
    fluid = tp.FluidModel(mu_w=0.7, mu_o=3.0)
    s = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    fw, dfw = tp.fractional_flow(fluid, s)
    assert np.all(dfw >= 0.0)
    h = 1e-7
    fd = (tp.fractional_flow(fluid, s + h)[0]
          - tp.fractional_flow(fluid, s - h)[0]) / (2 * h)
    assert np.abs(dfw - fd).max() < 1e-6


def test_fractional_flow_closed_form_matches_the_quotient_rule():
    s = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 52)[1:-1]])
    for fluid in (tp.FluidModel(), tp.FluidModel(mu_w=0.7, mu_o=3.0)):
        a, b = s * s / fluid.mu_w, (1.0 - s) * (1.0 - s) / fluid.mu_o
        da, db = 2 * s / fluid.mu_w, -2 * (1.0 - s) / fluid.mu_o
        lam = a + b
        fw, dfw = tp.fractional_flow(fluid, s)
        assert np.array_equal(fw, a / lam)
        want = (da * b - a * db) / (lam * lam)
        assert dfw[0] == dfw[1] == 0.0
        assert np.all(np.abs(dfw - want) <= 1e-14 * np.abs(want))


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
    # NaN passes a `mu <= 0` test; the message names the viscosity
    for bad in ({"mu_w": float("inf")}, {"mu_o": float("nan")},
                {"mu_w": -float("inf")}):
        [name] = bad
        with pytest.raises(ValueError, match=f"viscosities .* {name}="):
            tp.FluidModel(**bad)


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
    state = tp.TransportState.initial(grid, porosity=0.2, s0=0.25)
    flow = tp.UpwindFlow.build(grid, np.zeros(grid.n_velocity),
                               tp.WellConfig([]))
    out = tp.transport_step(grid, tp.FluidModel(), state, flow, 0.1)
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
    area = grid.face_areas[0]
    v = np.array([q / area])
    out = tp.transport_step(grid, fluid, state,
                            tp.UpwindFlow.build(grid, v, wells), dt)

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


def face_by_face(grid, fluid, s, v, wells):
    """Net water outflow of every cell and its dense saturation
    Jacobian, summed face by face and well by well."""
    faces = np.arange(grid.n_velocity)
    lo, hi = mesh.face_adjacent_cells(grid, faces)
    area = np.where(faces < grid.face_offsets[1], grid.face_areas[0],
                    grid.face_areas[1])
    q_plus, q_minus = wells.split(grid.n_cells)
    fw, dfw = tp.fractional_flow(fluid, np.clip(s, 0.0, 1.0))
    out = -q_plus - fw * q_minus
    jac = np.diag(-dfw * q_minus)
    for f in faces:
        rate = v[f] * area[f]
        up = lo[f] if rate > 0 else hi[f]
        out[lo[f]] += rate * fw[up]
        out[hi[f]] -= rate * fw[up]
        jac[lo[f], up] += rate * dfw[up]
        jac[hi[f], up] -= rate * dfw[up]
    return out, jac


def dense_newton_transport(grid, fluid, s0, pv, v, dt, wells):
    """Implicit upwind step with a dense Jacobian, face by face; same
    stopping rule as the package."""
    s = s0.copy()
    for _ in range(25):
        out, jac = face_by_face(grid, fluid, s, v, wells)
        residual = pv * (s - s0) + dt * out
        if np.abs(residual).max() <= 1e-10 * max(1.0, np.abs(s).max()):
            return s
        s = s - np.linalg.solve(np.diag(pv) + dt * jac, residual)
    raise AssertionError("dense Newton did not converge")


def recorded_solves(monkeypatch):
    """(Jacobian, right side, solution) of every Newton solve the
    transport makes, and the matrices it hands to splu."""
    solves, factored = [], []
    solve_jacobian = tp._solve_jacobian

    def solving(flow, jacobian, b):
        record = (jacobian.copy(), b.copy())
        x = solve_jacobian(flow, jacobian, b)
        solves.append(record + (x,))
        return x

    def factoring(A, **options):
        factored.append(A.copy())
        return splu(A, **options)

    monkeypatch.setattr(tp, "_solve_jacobian", solving)
    monkeypatch.setattr(tp, "splu", factoring)
    return solves, factored


def assert_solves_match_splu(solves):
    assert solves
    for jac, b, x in solves:
        want = splu(jac, permc_spec="NATURAL").solve(b)
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


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
    assert sparse.triu(flow.K, 1).nnz > 0

    out = tp.transport_step(grid, fluid, state, flow, dt)
    pv = state.porosity * grid.cell_volume
    want = dense_newton_transport(grid, fluid, state.s, pv, v, dt, wells)
    assert out.newton_iterations > 0 and out.halvings == 0
    assert np.abs(out.s - np.clip(want, 0.0, 1.0)).max() <= 1e-12


def five_spot_velocity(orders):
    """Pressure-step velocity of a five-spot on a random log field."""
    grid = mesh.build_grid((12, 12), (3, 3))
    kappa = mixed_fem.PermeabilityField(
        random_log_field(np.random.default_rng(3), grid.n_cells, orders))
    wells = tp.five_spot_wells(grid)
    state = tp.TransportState.initial(grid, porosity=0.2, s0=0.0)
    ops = mixed_fem.assemble_operators(
        grid, tp.mobility_field(kappa, tp.FluidModel(), state.s))
    v, _ = tp.pressure_step(ops, build_rt0_space(grid), wells)
    return grid, wells, v


def test_five_spot_jacobian_is_triangular_without_fill(monkeypatch):
    grid, wells, v = five_spot_velocity(orders=1.0)
    flow = tp.UpwindFlow.build(grid, v, wells)
    n = grid.n_cells
    assert sorted(flow.order) == list(range(n))
    assert np.array_equal(flow.order[flow.rank], np.arange(n))
    assert flow.acyclic and sparse.triu(flow.K, 1).nnz == 0
    assert flow.K.indices.dtype == flow.K.indptr.dtype == np.intc
    solves, factored = recorded_solves(monkeypatch)
    tp._newton_transport(grid, tp.FluidModel(), np.full(n, 0.3),
                         np.full(n, 0.2), 1e-3, flow)
    # every Newton step is a forward substitution: nothing is factored
    assert not factored
    assert all(jac.nnz == flow.K.nnz for jac, _, _ in solves)
    assert_solves_match_splu(solves)


@pytest.mark.parametrize("circulating", ["vortex", "four decades"])
def test_flows_with_cycles_are_factored(circulating, monkeypatch, rng):
    if circulating == "vortex":
        grid = mesh.build_grid((4, 4), (2, 2))
        v = vortex_velocity(grid, rng.uniform(0.5, 1.5, (3, 3)))
        wells = tp.WellConfig([])
    else:
        grid, wells, v = five_spot_velocity(orders=4.0)
    flow = tp.UpwindFlow.build(grid, v, wells)
    assert not flow.acyclic
    solves, factored = recorded_solves(monkeypatch)
    tp._newton_transport(grid, tp.FluidModel(),
                         rng.uniform(0.05, 0.95, grid.n_cells),
                         np.full(grid.n_cells, 0.2), 1e-3, flow)
    assert len(factored) == len(solves)
    assert_solves_match_splu(solves)


def test_triangular_kernel_contract(rng):
    # what _solve_jacobian relies on in scipy's private gstrs: C-int
    # indices, an empty U, a unit lower L, and b left as it was
    n = 40
    L = sparse.tril(sparse.random(n, n, density=0.1, random_state=4), -1)
    A = sparse.csc_matrix(L + sparse.diags(rng.uniform(1.0, 3.0, n)))
    A.sort_indices()
    d = A.diagonal()
    columns = np.repeat(np.arange(n), np.diff(A.indptr))
    b = rng.standard_normal(n)
    kept = b.copy()
    x, info = tp.gstrs("N", n, A.nnz, A.data / d[columns],
                       A.indices.astype(np.intc), A.indptr.astype(np.intc),
                       n, 0, np.empty(0), np.empty(0, np.intc),
                       np.zeros(n + 1, np.intc), b)
    assert info == 0
    assert np.array_equal(b, kept)
    want = splu(A, permc_spec="NATURAL").solve(b)
    assert np.abs(x / d - want).max() <= 1e-13 * np.abs(want).max()


def recorded_jacobians(monkeypatch):
    """Every Newton call as (s0, porosity, dt, flow, the dense Jacobian
    and the solution of each of its solves); every Jacobian must be
    its flow's buffer."""
    calls = []
    newton, solve_jacobian = tp._newton_transport, tp._solve_jacobian

    def newton_call(grid, fluid, s0, porosity, dt, flow):
        calls.append((s0.copy(), porosity, dt, flow, []))
        return newton(grid, fluid, s0, porosity, dt, flow)

    def solving(flow, jacobian, b):
        assert jacobian is flow.jacobian
        x = solve_jacobian(flow, jacobian, b)
        calls[-1][-1].append((jacobian.toarray(), x))
        return x

    monkeypatch.setattr(tp, "_newton_transport", newton_call)
    monkeypatch.setattr(tp, "_solve_jacobian", solving)
    return calls


def assert_jacobians_are_dense_newton_matrices(grid, fluid, calls):
    """Each recorded Jacobian is diag(pv) + dt K diag(f_w') at its
    iterate, rebuilt from `flow.K`; the iterates follow the solves."""
    assert calls and all(solves for *_, solves in calls)
    for s0, porosity, dt, flow, solves in calls:
        pv = (porosity * grid.cell_volume)[flow.order]
        K = flow.K.toarray()
        s = s0[flow.order]
        for jacobian, x in solves:
            _, dfw = tp.fractional_flow(fluid, np.clip(s, 0.0, 1.0))
            want = np.diag(pv) + dt * K * dfw
            assert np.abs(jacobian - want).max() <= 1e-14 * np.abs(want).max()
            s = s - x


@pytest.mark.parametrize("case", ["halving five-spot", "vortex"])
def test_jacobian_buffer_holds_each_newton_matrix(case, monkeypatch, rng):
    fluid = tp.FluidModel()
    if case == "vortex":
        # a circulating flow, whose Jacobian is factored
        grid = mesh.build_grid((4, 4), (2, 2))
        v = vortex_velocity(grid, rng.uniform(0.5, 1.5, (3, 3)))
        wells, dt = tp.WellConfig([]), 0.01
        state = tp.TransportState(s=rng.uniform(0.05, 0.95, grid.n_cells),
                                  porosity=np.full(grid.n_cells, 0.2))
    else:
        # an acyclic step that halves: its pieces refill the buffer
        grid = mesh.build_grid((6, 6), (2, 2))
        wells, dt = tp.five_spot_wells(grid), 0.05
        state = tp.TransportState.initial(grid, porosity=0.2, s0=0.0)
        ops = mixed_fem.assemble_operators(grid, tp.mobility_field(
            mixed_fem.uniform_field(grid), fluid, state.s))
        v, _ = tp.pressure_step(ops, build_rt0_space(grid), wells)
    flow = tp.UpwindFlow.build(grid, v, wells)
    assert flow.acyclic == (case != "vortex")
    calls = recorded_jacobians(monkeypatch)
    out = tp.transport_step(grid, fluid, state, flow, dt)
    assert (out.halvings > 0 and len(calls) > 2) == (case != "vortex")
    assert_jacobians_are_dense_newton_matrices(grid, fluid, calls)


def test_transport_on_acyclic_five_spot_matches_dense_newton(rng):
    grid, wells, v = five_spot_velocity(orders=1.0)
    fluid = tp.FluidModel()
    state = tp.TransportState(s=rng.uniform(0.0, 0.5, grid.n_cells),
                              porosity=np.full(grid.n_cells, 0.2))
    # at dt = 0.01 Newton cycles from this start: the package halves the
    # step, which the one-step oracle does not
    dt = 3e-3
    out = tp.transport_step(grid, fluid, state,
                            tp.UpwindFlow.build(grid, v, wells), dt)
    pv = state.porosity * grid.cell_volume
    want = dense_newton_transport(grid, fluid, state.s, pv, v, dt, wells)
    assert out.newton_iterations > 0 and out.halvings == 0
    assert np.abs(out.s - np.clip(want, 0.0, 1.0)).max() <= 1e-12


def test_upwind_matrix_gives_the_face_by_face_outflow(rng):
    # four decades of contrast: the RT0 velocity circulates in places
    grid, wells, v = five_spot_velocity(orders=4.0)
    flow = tp.UpwindFlow.build(grid, v, wells)
    assert sparse.triu(flow.K, 1).nnz > 0
    # every diagonal is stored, also where no flux leaves the cell
    cells = np.arange(grid.n_cells)
    assert np.array_equal(flow.K.indices[flow.diagonal], cells)
    assert np.array_equal(flow.columns[flow.diagonal], cells)
    fluid = tp.FluidModel()
    s = rng.uniform(0.0, 1.0, grid.n_cells)
    fw, _ = tp.fractional_flow(fluid, s)
    want, _ = face_by_face(grid, fluid, s, v, wells)
    got = (flow.K @ fw[flow.order] - flow.q_plus)[flow.rank]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_transport_halves_steps_then_gives_up(monkeypatch):
    grid = mesh.build_grid((4, 4), (2, 2))
    state = tp.TransportState.initial(grid, porosity=0.2)
    wells = tp.WellConfig([])
    flow = tp.UpwindFlow.build(grid, np.zeros(grid.n_velocity), wells)
    calls = []

    def flaky(grid_, fluid_, s0, porosity, dt, *rest, **kw):
        calls.append(dt)
        if dt > 0.026:
            raise tp._NewtonFailure("stuck")
        return s0 + 0.01, 1

    monkeypatch.setattr(tp, "_newton_transport", flaky)
    out = tp.transport_step(grid, tp.FluidModel(), state, flow, 0.1)
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
        tp.transport_step(grid, tp.FluidModel(), state, flow, 0.1)


def test_newton_gives_up_on_a_cycling_step(monkeypatch):
    # a five-spot from the connate state on 6x6 with dt = 0.05: the
    # residual max-norm sits at 1.25e-2 for three iterations, then cycles
    # between 1.96e-2 and 2.46e-2 without converging
    grid = mesh.build_grid((6, 6), (2, 2))
    wells = tp.five_spot_wells(grid)
    fluid = tp.FluidModel()
    state = tp.TransportState.initial(grid, porosity=0.2, s0=0.0)
    ops = mixed_fem.assemble_operators(
        grid, tp.mobility_field(mixed_fem.uniform_field(grid), fluid, state.s))
    v, _ = tp.pressure_step(ops, build_rt0_space(grid), wells)
    flow = tp.UpwindFlow.build(grid, v, wells)
    solves, _ = recorded_solves(monkeypatch)
    with pytest.raises(tp._NewtonFailure, match="stalled"):
        tp._newton_transport(grid, fluid, state.s, state.porosity, 0.05, flow)
    assert tp._NEWTON_MAX_ITER > tp._NEWTON_STALL + 1
    assert 0 < len(solves) <= tp._NEWTON_STALL + 1
    out = tp.transport_step(grid, fluid, state, flow, 0.05)
    assert out.halvings > 0 and out.bound_violation <= 1e-9


def test_pressure_step_reduces_to_single_phase(rng):
    # at connate conditions the mobility is constant, and a constant
    # coefficient scaling cancels from the velocity
    grid = mesh.build_grid((12, 12), (3, 3))
    kappa = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells, 4.0))
    basis = build_rt0_space(grid)
    wells = tp.five_spot_wells(grid)
    state = tp.TransportState.initial(grid, porosity=0.2, s0=0.0)
    mobile = mixed_fem.assemble_operators(
        grid, tp.mobility_field(kappa, tp.FluidModel(), state.s))
    v, report = tp.pressure_step(mobile, basis, wells,
                                 pc.SolverSettings(rel_tol=1e-10))
    assert report.converged

    ops = mixed_fem.assemble_operators(grid, kappa)
    ref = pc.solve(grid, ops, basis, wells.source_vector(grid.n_cells),
                   pc.SolverSettings(rel_tol=1e-10))
    scale = np.abs(ref.velocity).max()
    assert np.abs(v - ref.velocity).max() < 1e-6 * scale


def test_impes_run_rejects_a_stalled_pressure_solve():
    grid = mesh.build_grid((12, 12), (3, 3))
    config = tp.IMPESConfig(grid=grid, kappa=bench_field((12, 12), -6),
                            space="rt0", n_steps=2,
                            settings=pc.SolverSettings(max_iter=2))
    with pytest.raises(RuntimeError,
                       match=r"^step 0 \(t=0\): pressure solve failed: "
                             r"solve stalled after 2 iterations"):
        tp.impes_run(config)


@pytest.mark.parametrize("bad", [
    {"dt": 0.0}, {"dt": -1e-3}, {"dt": float("nan")}, {"dt": float("inf")},
    {"n_steps": 0}, {"pressure_interval": 0}, {"pressure_interval": -5},
    {"porosity": 0.0}, {"porosity": -0.2}, {"porosity": 1.5},
    {"porosity": float("nan")}, {"porosity": float("inf")},
    {"n_steps": 2.5}, {"n_steps": True}, {"pressure_interval": 1.5},
    {"pressure_interval": True}, {"checkpoint_steps": (0,)},
    {"checkpoint_steps": (101,)}, {"checkpoint_steps": (2, -1)},
    {"checkpoint_steps": (2.0,)}, {"checkpoint_steps": (True,)},
    {"wells": tp.WellConfig([(100, 1.0), (0, -1.0)])},
    {"space": "amg"}, {"space": None}, {"tol": -1.0}, {"tol": float("nan")},
    {"space": "rt0", "tol": -1.0},
])
def test_impes_config_rejects_bad_stepping(bad):
    grid = mesh.build_grid((4, 4), (2, 2))
    with pytest.raises(ValueError):
        tp.IMPESConfig(grid=grid, kappa=mixed_fem.uniform_field(grid), **bad)


def test_impes_config_rejects_kappa_of_another_grid():
    # a field of the wrong size fails here, not in numpy inside impes_run
    grid = mesh.build_grid((8, 8), (2, 2))
    kappa = mixed_fem.PermeabilityField(np.ones(10))
    with pytest.raises(ValueError, match="kappa has 10 cells, grid has 64"):
        tp.IMPESConfig(grid=grid, kappa=kappa)


def test_impes_config_takes_numpy_integers():
    grid = mesh.build_grid((4, 4), (2, 2))
    config = tp.IMPESConfig(grid=grid, kappa=mixed_fem.uniform_field(grid),
                            n_steps=np.int64(4),
                            pressure_interval=np.int32(2),
                            checkpoint_steps=(np.int64(4), 1))
    assert config.checkpoint_steps == (4, 1)


@pytest.mark.parametrize("key,value,message", [
    ("porosity", 0.0, "porosity"), ("dt", float("nan"), "time step"),
    ("pressure_interval", 0, "pressure interval"),
])
def test_impes_run_checks_a_config_changed_after_construction(key, value,
                                                             message):
    # a config is frozen, and a changed copy is checked when it is made
    grid = mesh.build_grid((8, 8), (2, 2))
    config = tp.IMPESConfig(grid=grid, kappa=mixed_fem.uniform_field(grid),
                            space="rt0", n_steps=2, pressure_interval=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, key, value)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(config, **{key: value})


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


def test_warm_pressure_steps_keep_the_divergence(monkeypatch):
    # every step after t=0 starts CG from the previous velocity; CG
    # corrections are divergence free, so chaining them must not drift
    grid = mesh.build_grid((12, 12), (3, 3))
    errors, preprocessed = [], []
    solve, preprocess = tp.solve, pc.preprocess

    def recorded_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        errors.append(result.divergence_error)
        return result

    def counted_preprocess(*args, **kwargs):
        preprocessed.append(len(errors))
        return preprocess(*args, **kwargs)

    monkeypatch.setattr(tp, "solve", recorded_solve)
    monkeypatch.setattr(pc, "preprocess", counted_preprocess)
    config = tp.IMPESConfig(grid=grid, kappa=bench_field((12, 12), 2.0),
                            dt=2e-3, n_steps=30, pressure_interval=1)
    assert len(tp.impes_run(config).reports) == 30
    assert len(errors) == 30 and max(errors) <= 1e-14
    assert preprocessed == [0]


def test_first_pressure_step_shares_the_basis_operators(monkeypatch, rng):
    # the t=0 basis build and the first pressure solve see one mobility,
    # so one set of operators serves both
    grid = mesh.build_grid((12, 12), (3, 3))
    kappa = mixed_fem.PermeabilityField(random_log_field(rng, grid.n_cells, 4.0))
    built = count_box_builds(monkeypatch)
    config = tp.IMPESConfig(grid=grid, kappa=kappa, dt=2e-3, n_steps=4,
                            pressure_interval=2)
    assert len(tp.impes_run(config).reports) == 2
    # two sets of operators, each with a lumped smoother; only the cold
    # t=0 step builds lumped overlap-0 boxes for preprocessing, the warm
    # one starts from its velocity.  A frozen basis builds the exact
    # overlap-0 batch once, at t=0, and a rebuilt one at every step
    overlap = config.settings.smoother_overlap(config.space)
    assert built == {"exact": 1, "lumped": [overlap, 0, overlap]}
    built["exact"] = 0
    built["lumped"].clear()
    tp.impes_run(dataclasses.replace(config, rebuild_basis=True))
    assert built == {"exact": 2, "lumped": [overlap, 0, overlap]}

    # shared factors give the velocity of freshly assembled ones, bit for bit
    state = tp.TransportState.initial(grid, porosity=0.2)
    field = tp.mobility_field(kappa, config.fluid, state.s)
    shared = mixed_fem.assemble_operators(grid, field)
    basis = build_space("gmsfem", grid, field, shared)
    wells = tp.five_spot_wells(grid)
    v_shared, _ = tp.pressure_step(shared, basis, wells)
    fresh = mixed_fem.assemble_operators(grid, field)
    v_fresh, _ = tp.pressure_step(fresh, basis, wells)
    assert np.array_equal(v_shared, v_fresh)
