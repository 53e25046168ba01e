"""Tests for the 3-D finite-difference reference solver."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.convection.flow import FlowDirection, FlowSpec
from repro.errors import SolverError
from repro.experiments.common import VALIDATION_DIE, VALIDATION_VELOCITY
from repro.validation import ReferenceFDSolver, reference_fd

L = 20e-3
T = 0.5e-3
FLOW = FlowSpec(velocity=10.0, uniform=True)


@pytest.fixture(scope="module")
def solver():
    return ReferenceFDSolver(L, L, T, FLOW, nx=24, ny=24, nz=3)


def test_uniform_power_average_rise_matches_rconv(solver):
    power = solver.uniform_power(100.0)
    rise = solver.steady_rise(power)
    rconv = FLOW.overall_resistance(L, L)
    # Energy balance pins the wetted-surface average at P * Rconv; the
    # recorded top-cell centers sit dz/2 below the surface, so add the
    # half-cell conduction drop q * (dz/2) / k.
    half_cell_drop = (100.0 / (L * L)) * (solver.dz / 2.0) / 100.0
    assert solver.surface_rise(rise).mean() == pytest.approx(
        100.0 * rconv + half_cell_drop, rel=1e-6
    )


def test_bottom_hotter_than_surface(solver):
    power = solver.uniform_power(100.0)
    rise = solver.steady_rise(power)
    assert solver.bottom_rise(rise).mean() > solver.surface_rise(rise).mean()


def test_rect_power_localizes_heat(solver):
    power = solver.rect_power(9e-3, 11e-3, 9e-3, 11e-3, 10.0)
    assert power.sum() == pytest.approx(10.0)
    rise = solver.bottom_rise(solver.steady_rise(power))
    center = rise[12, 12]
    corner = rise[0, 0]
    assert center > 5 * corner


def test_rect_power_validation(solver):
    with pytest.raises(SolverError):
        solver.rect_power(-1e-3, 1e-3, 0.0, 1e-3, 1.0)


def test_transient_approaches_steady(solver):
    power = solver.uniform_power(100.0)
    probe = solver.probe_index(L / 2, L / 2, layer=0)
    steady = solver.steady_rise(power)[probe]
    result = solver.transient_probe(power, t_end=4.0, dt=0.05, probe=probe)
    assert result.final() == pytest.approx(steady, rel=0.02)
    # monotone heating
    assert np.all(np.diff(result.values) >= -1e-9)


def test_transient_time_constant_order_a_second(solver):
    # the paper's Fig. 2 observation
    power = solver.uniform_power(100.0)
    probe = solver.probe_index(L / 2, L / 2)
    result = solver.transient_probe(power, t_end=3.0, dt=0.02, probe=probe)
    target = 0.632 * result.final()
    t63 = result.times[np.argmax(result.values >= target)]
    assert 0.1 < t63 < 1.0


def test_direction_aware_boundary():
    flow = FlowSpec(velocity=10.0, direction=FlowDirection.LEFT_TO_RIGHT)
    fd = ReferenceFDSolver(L, L, T, flow, nx=24, ny=24, nz=3)
    rise = fd.bottom_rise(fd.steady_rise(fd.uniform_power(100.0)))
    # downstream (right) edge is cooled worse -> hotter
    assert rise[:, -1].mean() > rise[:, 0].mean()


def test_film_capacity_slows_transient():
    power_w = 100.0
    probe_args = dict(t_end=1.0, dt=0.02)
    with_film = ReferenceFDSolver(
        L, L, T, FLOW, nx=12, ny=12, nz=2, include_film_capacity=True
    )
    without = ReferenceFDSolver(
        L, L, T, FLOW, nx=12, ny=12, nz=2, include_film_capacity=False
    )
    probe = with_film.probe_index(L / 2, L / 2)
    r1 = with_film.transient_probe(
        with_film.uniform_power(power_w), probe=probe, **probe_args
    )
    r2 = without.transient_probe(
        without.uniform_power(power_w), probe=probe, **probe_args
    )
    # same steady state, slower rise with the oil film's heat capacity
    mid = len(r1.times) // 2
    assert r1.values[mid] < r2.values[mid]


def test_invalid_geometry_rejected():
    with pytest.raises(SolverError):
        ReferenceFDSolver(L, L, T, FLOW, nx=0, ny=4, nz=2)


@pytest.mark.parametrize("t_end, dt", [
    (0.01, 0.05),    # shorter than one step
    (1.0, 0.3),      # 3.33 steps: would round to 3 and stop at 0.9 s
    (1.0, 0.4),      # 2.5 steps: would round to 2 and stop at 0.8 s
])
def test_transient_probe_rejects_misaligned_horizon(solver, t_end, dt):
    probe = solver.probe_index(L / 2, L / 2)
    with pytest.raises(SolverError, match="whole number"):
        solver.transient_probe(np.zeros(solver.n_cells), t_end, dt, probe)


def test_transient_probe_accepts_float_residue(solver):
    # 0.3 / 0.1 == 2.9999999999999996: residue, not a remainder
    probe = solver.probe_index(L / 2, L / 2)
    result = solver.transient_probe(np.zeros(solver.n_cells), 0.3, 0.1, probe)
    assert len(result.times) == 4
    assert result.times[-1] == pytest.approx(0.3)


# --- input validation --------------------------------------------------------


def test_non_integer_grid_count_rejected():
    with pytest.raises(SolverError, match="positive integer"):
        ReferenceFDSolver(L, L, T, FLOW, nx=2.5, ny=4, nz=2)


def test_bool_grid_count_rejected():
    with pytest.raises(SolverError, match="positive integer"):
        ReferenceFDSolver(L, L, T, FLOW, nx=True, ny=4, nz=2)


def test_steady_rise_rejects_nan_power_before_solving(solver):
    power = solver.uniform_power(1.0)
    power[0] = np.nan
    with pytest.raises(SolverError, match="not finite"):
        solver.steady_rise(power)


def test_transient_probe_rejects_nan_power(solver):
    power = solver.uniform_power(1.0)
    power[0] = np.nan
    with pytest.raises(SolverError, match="not finite"):
        solver.transient_probe(power, 0.1, 0.05, probe=0)


def test_transient_probe_rejects_wrong_length_power(solver):
    with pytest.raises(SolverError, match="shape"):
        solver.transient_probe(np.ones(5), 0.1, 0.05, probe=0)


def test_transient_probe_rejects_wrong_length_power_sample(solver):
    with pytest.raises(SolverError, match="shape"):
        solver.transient_probe(lambda _t: np.ones(5), 0.1, 0.05, probe=0)


def test_transient_probe_rejects_infinite_x0(solver):
    x0 = np.zeros(solver.n_cells)
    x0[-1] = np.inf
    with pytest.raises(SolverError, match="not finite"):
        solver.transient_probe(solver.uniform_power(1.0), 0.1, 0.05,
                               probe=0, x0=x0)


@pytest.mark.parametrize("probe", [-1, 24 * 24 * 3])
def test_transient_probe_rejects_probe_outside_grid(solver, probe):
    with pytest.raises(SolverError, match="cell index"):
        solver.transient_probe(solver.uniform_power(1.0), 0.1, 0.05, probe)


def test_probe_index_rejects_point_outside_die(solver):
    with pytest.raises(SolverError, match="outside the die"):
        solver.probe_index(-1e-3, L / 2)


@pytest.mark.parametrize("layer", [2, 7, -1, -3])
def test_probe_index_rejects_layer_outside_grid(layer):
    fd = ReferenceFDSolver(L, L, T, FLOW, nx=8, ny=8, nz=2)
    with pytest.raises(SolverError, match="probe layer"):
        fd.probe_index(L / 2, L / 2, layer=layer)


# --- the preconditioned conjugate-gradient solve -----------------------------

DIRECTED = FlowSpec(velocity=10.0, direction=FlowDirection.LEFT_TO_RIGHT)


def _small(flow, nz):
    return ReferenceFDSolver(L, L, T, flow, nx=12, ny=10, nz=nz)


@pytest.mark.parametrize("nz", [1, 2, 3])
@pytest.mark.parametrize("flow", [FLOW, DIRECTED], ids=["uniform", "directed"])
def test_steady_rise_matches_direct_solve(flow, nz):
    fd = _small(flow, nz)
    power = fd.rect_power(3e-3, 9e-3, 5e-3, 8e-3, 10.0)
    direct = splu(fd._system.tocsc()).solve(power)
    np.testing.assert_allclose(fd.steady_rise(power), direct, rtol=1e-10)


@pytest.mark.parametrize("nz", [1, 2, 3])
@pytest.mark.parametrize("flow", [FLOW, DIRECTED], ids=["uniform", "directed"])
def test_transient_probe_matches_direct_stepping(flow, nz):
    fd = _small(flow, nz)
    power = fd.rect_power(3e-3, 9e-3, 5e-3, 8e-3, 10.0)
    probe = fd.probe_index(6e-3, 6e-3)
    dt = 0.02
    rate = fd._capacitance / dt
    lhs = splu((fd._system + sparse.diags(rate)).tocsc())
    x = np.zeros(fd.n_cells)
    expected = [0.0]
    for _ in range(10):
        x = lhs.solve(rate * x + power)
        expected.append(x[probe])
    result = fd.transient_probe(power, t_end=0.2, dt=dt, probe=probe)
    np.testing.assert_allclose(result.values, expected, rtol=1e-10)


@pytest.mark.parametrize("dt", [None, 0.01], ids=["steady", "transient"])
def test_separable_inverse_is_exact_for_uniform_film(dt):
    fd = ReferenceFDSolver(L, L, T, FLOW, nx=9, ny=7, nz=4)
    layer_shift = np.zeros(fd.nz)
    if dt is not None:
        layer_shift = fd._capacitance.reshape(fd.nz, -1).mean(axis=1) / dt
    shift = np.repeat(layer_shift, fd.nx * fd.ny)
    x = np.random.default_rng(0).standard_normal(fd.n_cells)
    back = fd._separable_inverse(layer_shift)(fd._system @ x + shift * x)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-12 * np.abs(x).max())


def test_iteration_cap_raises(monkeypatch):
    fd = _small(DIRECTED, 3)
    monkeypatch.setattr(reference_fd, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverError, match="did not reach"):
        fd.steady_rise(fd.uniform_power(10.0))


def test_fig03_tmax_rises_under_refinement():
    # Fig. 3's die, flow and 10 W central 2x2 mm source at the --full FD
    # grid and at twice its resolution in every axis.
    flow = FlowSpec(velocity=VALIDATION_VELOCITY, uniform=True)
    width = VALIDATION_DIE["width"]
    lo = (width - 2e-3) / 2
    tmax = []
    for grid, layers in [(60, 5), (120, 10)]:
        fd = ReferenceFDSolver(
            width, VALIDATION_DIE["height"], VALIDATION_DIE["thickness"],
            flow, nx=grid, ny=grid, nz=layers,
        )
        rise = fd.steady_rise(fd.rect_power(lo, lo + 2e-3, lo, lo + 2e-3, 10.0))
        tmax.append(float(fd.bottom_rise(rise).max()))
    assert tmax[0] == pytest.approx(66.5026, rel=1e-6)
    assert tmax[1] == pytest.approx(67.1957, rel=1e-6)
    assert tmax[1] > tmax[0]
