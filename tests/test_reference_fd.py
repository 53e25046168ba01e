"""Tests for the 3-D finite-difference reference solver."""

import numpy as np
import pytest

from repro.convection.flow import FlowDirection, FlowSpec
from repro.errors import SolverError
from repro.validation import ReferenceFDSolver

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
