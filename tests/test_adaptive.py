"""Tests for the adaptive transient integrator."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.floorplan import uniform_grid_floorplan
from repro.package import air_sink_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import AdaptiveTransientSolver, steady_state


def single_rc(r=2.0, c=3.0):
    builder = NetworkBuilder()
    node = builder.add_node(c)
    builder.to_ambient(node, 1.0 / r)
    return builder.build()


def test_matches_analytic_exponential():
    r, c, p = 2.0, 3.0, 5.0
    net = single_rc(r, c)
    solver = AdaptiveTransientSolver(net, rtol=1e-4, atol=1e-4,
                                     dt_min=1e-4, dt_max=5.0)
    result = solver.integrate(np.array([p]), t_end=5 * r * c)
    analytic = p * r * (1 - np.exp(-result.times / (r * c)))
    np.testing.assert_allclose(result.states[:, 0], analytic,
                               atol=p * r * 5e-3)


def test_steps_grow_when_nothing_happens():
    net = single_rc(r=1.0, c=1.0)
    solver = AdaptiveTransientSolver(net, dt_min=1e-4, dt_max=2.0)
    result = solver.integrate(np.array([1.0]), t_end=20.0)
    diffs = np.diff(result.times)
    # late steps far larger than early ones
    assert diffs[-2] > 10 * diffs[0]
    # and far fewer steps than a fixed-dt run at the initial step
    assert len(result.times) < 20.0 / diffs[0] / 5


def test_multiscale_air_sink_warmup():
    # the stress case: a 4.4 ms silicon mode under an ~80 s sink mode
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    config = air_sink_package(20e-3, 20e-3, convection_resistance=1.0,
                              convection_capacitance=0.0, ambient=318.15)
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    power = model.node_power({"die": 100.0})
    solver = AdaptiveTransientSolver(
        model.network, rtol=5e-3, atol=5e-3, dt_min=1e-4, dt_max=20.0
    )
    # tau_long = Rconv * C_sink ~ 88 s; 450 s reaches ~99.4% of steady
    result = solver.integrate(power, t_end=450.0,
                              projector=model.block_rise)
    steady = model.block_rise(steady_state(model.network, power))
    np.testing.assert_allclose(result.final(), steady, rtol=0.02)
    # resolves the fast initial jump AND finishes in few steps
    assert result.times[1] < 0.05
    assert len(result.times) < 400


def test_time_varying_power():
    net = single_rc(r=1.0, c=1.0)

    def power(t):
        return np.array([1.0 if t < 1.0 else 0.0])

    solver = AdaptiveTransientSolver(net, dt_min=1e-3, dt_max=0.5)
    result = solver.integrate(power, t_end=4.0)
    peak = result.states[:, 0].max()
    assert 0.5 < peak < 0.75  # analytic peak 1 - e^-1 = 0.632
    assert result.final()[0] < 0.1


def test_projector_and_x0():
    net = single_rc()
    solver = AdaptiveTransientSolver(net, dt_min=1e-3, dt_max=1.0)
    result = solver.integrate(
        np.array([0.0]), t_end=3.0, x0=np.array([7.0]),
        projector=lambda state: state * 2.0,
    )
    assert result.states[0, 0] == pytest.approx(14.0)
    assert result.final()[0] < 14.0  # decays toward ambient


def test_validation():
    net = single_rc()
    with pytest.raises(SolverError):
        AdaptiveTransientSolver(net, dt_min=0.0, dt_max=1.0)
    with pytest.raises(SolverError):
        AdaptiveTransientSolver(net, rtol=-1.0)
    solver = AdaptiveTransientSolver(net)
    with pytest.raises(SolverError):
        solver.integrate(np.array([1.0]), t_end=-1.0)
    with pytest.raises(SolverError):
        solver.integrate(np.array([1.0, 2.0]), t_end=1.0)


# --- initial_dt validation (regression) --------------------------------------


def test_explicit_zero_initial_dt_rejected():
    """Regression: ``initial_dt or default`` swallowed an explicit 0.0.

    Falsy-or made ``initial_dt=0.0`` silently fall back to the default
    starting step instead of being diagnosed as the invalid request it
    is.
    """
    net = single_rc()
    solver = AdaptiveTransientSolver(net, dt_min=1e-3, dt_max=1.0)
    with pytest.raises(SolverError):
        solver.integrate(np.array([1.0]), t_end=1.0, initial_dt=0.0)
    with pytest.raises(SolverError):
        solver.integrate(np.array([1.0]), t_end=1.0, initial_dt=-0.5)


def test_initial_dt_above_dt_max_rejected():
    """Regression: an initial_dt above dt_max was silently clamped.

    The rung clamp hid the configuration error; the caller asked for a
    step the solver can never take.
    """
    net = single_rc()
    solver = AdaptiveTransientSolver(net, dt_min=1e-3, dt_max=1.0)
    with pytest.raises(SolverError):
        solver.integrate(np.array([1.0]), t_end=5.0, initial_dt=2.0)
    # at the boundary is fine
    result = solver.integrate(np.array([1.0]), t_end=5.0, initial_dt=1.0)
    assert result.times[-1] == pytest.approx(5.0)


# --- final partial step economics (regression) -------------------------------


def _builds_during(fn):
    from repro import obs

    before = obs.metrics().snapshot()
    result = fn()
    counters = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    return result, counters.get("solver.transient.matrix_builds", 0.0)


def test_final_partial_step_reuses_ladder_factor():
    """Regression: the final partial step always built a fresh LU.

    With dt_min=0.1, dt_max=0.2 and zero power, the run steps 0.1 then
    0.2 x 3, leaving a 0.2-residual final step whose size matches the
    rung-1 ladder factor to within float residue.  The old code
    factorized a third matrix for it anyway.
    """
    net = single_rc()
    solver = AdaptiveTransientSolver(net, dt_min=0.1, dt_max=0.2)
    result, builds = _builds_during(
        lambda: solver.integrate(np.array([0.0]), t_end=0.9, initial_dt=0.1)
    )
    assert result.times[-1] == pytest.approx(0.9)
    assert builds == 2  # rung 0 and rung 1 only; the residual reused rung 1


def test_float_sliver_residual_absorbed():
    """Regression: float accumulation residue got its own factorization.

    Accumulating 0.1 + 0.2 x 3 lands at 0.7000000000000001; asking for
    a t_end two ulps beyond that left a ~2e-12 s residual, and the old
    code built (and stepped) an LU for that sliver.  It is float noise,
    not physics: the run must absorb it and still report t_end.
    """
    net = single_rc()
    t_end = 0.1 + 0.2 + 0.2 + 0.2 + 2e-12
    solver = AdaptiveTransientSolver(net, dt_min=0.1, dt_max=0.2)
    result, builds = _builds_during(
        lambda: solver.integrate(np.array([0.0]), t_end=t_end, initial_dt=0.1)
    )
    assert builds == 2  # no sliver factorization
    assert result.times[-1] == t_end  # the horizon is reported exactly


def test_repeated_integrations_share_final_factors():
    # a genuinely new final size is cached across integrate() calls
    net = single_rc()
    solver = AdaptiveTransientSolver(net, dt_min=0.1, dt_max=0.2)
    _, first = _builds_during(
        lambda: solver.integrate(np.array([0.0]), t_end=0.65, initial_dt=0.1)
    )
    _, second = _builds_during(
        lambda: solver.integrate(np.array([0.0]), t_end=0.65, initial_dt=0.1)
    )
    assert first >= 1.0
    # everything (ladder + final) served from cache -- exact sentinel
    assert second == 0.0


# --- non-finite power (regression) -------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_constant_power_rejected_before_factorizing(bad):
    solver = AdaptiveTransientSolver(single_rc(), dt_min=1e-3, dt_max=1.0)

    def attempt():
        with pytest.raises(SolverError, match="non-finite"):
            solver.integrate(np.array([bad]), t_end=1.0)

    _, builds = _builds_during(attempt)
    assert builds == 0
    assert solver._steppers == {}


def test_non_finite_callable_power_rejected_when_returned():
    calls = []

    def power(t):
        calls.append(t)
        return np.array([np.nan if t > 0.5 else 1.0])

    solver = AdaptiveTransientSolver(single_rc(), dt_min=1e-3, dt_max=0.1)
    with pytest.raises(SolverError, match="non-finite"):
        solver.integrate(power, t_end=2.0)
    # the integration stops at the first non-finite sample
    assert calls[-1] > 0.5
    assert all(t <= 0.5 for t in calls[:-1])


def test_non_finite_x0_rejected():
    solver = AdaptiveTransientSolver(single_rc(), dt_min=1e-3, dt_max=1.0)
    with pytest.raises(SolverError, match="non-finite"):
        solver.integrate(np.array([1.0]), t_end=1.0, x0=np.array([np.nan]))
