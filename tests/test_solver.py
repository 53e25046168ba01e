"""Tests for the steady and transient solvers."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.floorplan import uniform_grid_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import (
    AdaptiveTransientSolver,
    BackwardEulerStepper,
    BatchScenario,
    PiecewiseConstantSchedule,
    TrapezoidalStepper,
    batched_simulate_schedules,
    batched_transient_simulate,
    simulate_schedule,
    steady_block_temperatures,
    steady_state,
    transient_simulate,
    transient_step_response,
)


def single_rc(r=2.0, c=3.0):
    builder = NetworkBuilder()
    node = builder.add_node(c)
    builder.to_ambient(node, 1.0 / r)
    return builder.build()


def test_steady_single_rc_ohms_law():
    net = single_rc(r=2.0)
    rise = steady_state(net, np.array([5.0]))
    assert rise[0] == pytest.approx(10.0)


def test_steady_rejects_bad_shape():
    net = single_rc()
    with pytest.raises(SolverError):
        steady_state(net, np.array([1.0, 2.0]))


def test_transient_matches_analytic_exponential():
    r, c, p = 2.0, 3.0, 5.0
    net = single_rc(r, c)
    tau = r * c
    result = transient_step_response(
        net, np.array([p]), t_end=5 * tau, dt=tau / 200
    )
    analytic = p * r * (1 - np.exp(-result.times / tau))
    np.testing.assert_allclose(
        result.states[:, 0], analytic, atol=p * r * 2e-4
    )


def test_backward_euler_converges_to_same_steady():
    net = single_rc()
    p = np.array([1.0])
    for method in ("trapezoidal", "backward_euler"):
        result = transient_simulate(net, p, t_end=60.0, dt=0.1, method=method)
        assert result.final()[0] == pytest.approx(2.0, rel=1e-3)


def test_transient_long_limit_equals_steady_full_model():
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    config = oil_silicon_package(
        20e-3, 20e-3, uniform_h=True, include_secondary=False, ambient=300.0
    )
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    power = model.node_power({"die": 100.0})
    steady = steady_state(model.network, power)
    transient = transient_simulate(model.network, power, t_end=10.0, dt=0.02)
    np.testing.assert_allclose(
        transient.final(), steady, rtol=1e-4, atol=1e-4
    )


def test_time_varying_power_callable():
    net = single_rc(r=1.0, c=1.0)

    def power(t):
        return np.array([1.0 if t < 1.0 else 0.0])

    result = transient_simulate(net, power, t_end=3.0, dt=0.01)
    peak_index = int(np.argmax(result.states[:, 0]))
    assert result.times[peak_index] == pytest.approx(1.0, abs=0.02)
    assert result.final()[0] < result.states[peak_index, 0]


def test_record_every_thins_output():
    net = single_rc()
    result = transient_simulate(
        net, np.array([1.0]), t_end=1.0, dt=0.01, record_every=10
    )
    assert len(result.times) == 11  # initial + every 10th step


def test_projector_reduces_state():
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    config = oil_silicon_package(
        20e-3, 20e-3, uniform_h=True, include_secondary=False, ambient=300.0
    )
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    result = transient_simulate(
        model.network, model.node_power({"die": 50.0}),
        t_end=0.5, dt=0.05, projector=model.block_rise,
    )
    assert result.states.shape[1] == 1  # one block


def test_stepper_reuse_stable_for_stiff_ratio():
    # widely separated capacitances (stiff) must not oscillate with the
    # A-stable steppers
    builder = NetworkBuilder()
    a = builder.add_node(1e-4)
    b = builder.add_node(1e2)
    builder.connect(a, b, 10.0)
    builder.to_ambient(b, 0.1)
    net = builder.build()
    p = np.zeros(2)
    p[0] = 1.0
    for stepper_cls in (TrapezoidalStepper, BackwardEulerStepper):
        stepper = stepper_cls(net, dt=1.0)
        x = np.zeros(2)
        values = []
        for _ in range(50):
            x = stepper.step(x, p)
            values.append(x[0])
        assert np.all(np.isfinite(values))
        assert values[-1] > 0


def test_invalid_arguments():
    net = single_rc()
    with pytest.raises(SolverError):
        transient_simulate(net, np.array([1.0]), t_end=0.0, dt=0.1)
    with pytest.raises(SolverError):
        transient_simulate(net, np.array([1.0]), t_end=1.0, dt=0.1,
                           method="rk4")
    with pytest.raises(SolverError):
        transient_simulate(net, np.array([1.0]), t_end=1.0, dt=0.1,
                           record_every=0)
    with pytest.raises(SolverError):
        TrapezoidalStepper(net, dt=-1.0)


def test_result_accessors():
    net = single_rc()
    result = transient_simulate(net, np.array([1.0]), t_end=1.0, dt=0.1)
    np.testing.assert_allclose(result.at(0.5), result.states[5])
    np.testing.assert_allclose(result.series(0), result.states[:, 0])


def test_steady_block_temperatures_helper():
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    config = oil_silicon_package(
        20e-3, 20e-3, uniform_h=True, include_secondary=False, ambient=300.0
    )
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    temps = steady_block_temperatures(model, {"die": 100.0})
    assert set(temps) == {"die"}
    assert temps["die"] > 300.0


def test_factor_cache_invalidated_when_network_mutated():
    """Regression: mutating the network after a solve must refactorize.

    The factor cache used to be a bare attribute set once per network;
    rebuilding the system matrix (e.g. after editing the ambient
    conductances in place) silently reused the stale factorization and
    returned temperatures for the *old* network.
    """
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.connect(a, b, 0.5)
    builder.to_ambient(a, 0.25)
    net = builder.build()
    power = np.array([2.0, 1.0])
    first = steady_state(net, power)

    # Double the path to ambient in place and rebuild the system matrix.
    net.ambient_conductance[a] *= 2.0
    net.invalidate()
    mutated = steady_state(net, power)

    # A fresh network with the doubled conductance is the ground truth.
    builder = NetworkBuilder()
    a2 = builder.add_node(1.0)
    b2 = builder.add_node(1.0)
    builder.connect(a2, b2, 0.5)
    builder.to_ambient(a2, 0.5)
    reference = steady_state(builder.build(), power)

    np.testing.assert_allclose(mutated, reference)
    assert not np.allclose(mutated, first)


def test_factor_cache_reused_for_unchanged_network():
    net = single_rc(r=2.0)
    steady_state(net, np.array([5.0]))
    factor_before = net._cached_lu_factor[1]
    steady_state(net, np.array([7.0]))
    assert net._cached_lu_factor[1] is factor_before


# --- horizon alignment (regression) -----------------------------------------


def _matrix_builds_during(fn):
    from repro import obs

    before = obs.metrics().snapshot()
    result = fn()
    flat = obs.flatten_snapshot(
        obs.snapshot_diff(obs.metrics().snapshot(), before)
    )
    return result, flat.get("solver.transient.matrix_builds", 0.0)


def test_misaligned_horizon_lands_exactly_on_t_end():
    """Regression: dt not dividing t_end silently rounded the horizon.

    ``int(round(t_end / dt))`` turned t_end=1.0, dt=0.3 into a 0.9 s
    simulation whose last record claimed to be the final state.  The
    fix takes one exact partial step, so the recorded horizon is
    always t_end.
    """
    r, c, p = 2.0, 3.0, 5.0
    net = single_rc(r, c)
    result, builds = _matrix_builds_during(
        lambda: transient_simulate(net, np.array([p]), t_end=1.0, dt=0.3)
    )
    assert result.times[-1] == 1.0  # repro-ok: float-equality; exact horizon
    # trapezoidal at these steps tracks the analytic charge-up closely
    analytic = p * r * (1 - np.exp(-1.0 / (r * c)))
    assert result.final()[0] == pytest.approx(analytic, rel=2e-3)
    # one full-step factorization plus one for the final partial step
    assert builds == 2


def test_horizon_shorter_than_one_step_rejected():
    net = single_rc()
    with pytest.raises(SolverError):
        transient_simulate(net, np.array([1.0]), t_end=0.05, dt=0.1)


def test_aligned_horizon_takes_no_extra_factorization():
    net = single_rc()
    result, builds = _matrix_builds_during(
        lambda: transient_simulate(net, np.array([1.0]), t_end=1.0, dt=0.1)
    )
    assert builds == 1
    assert len(result.times) == 11
    assert result.times[-1] == pytest.approx(1.0)


def test_near_aligned_ratio_treated_as_aligned():
    # 0.3 / 0.1 is 2.9999999999999996 in floats; that residue must not
    # become a 1e-17-second "partial step"
    from repro.solver.transient import plan_fixed_steps

    n_full, dt_final = plan_fixed_steps(0.3, 0.1)
    assert n_full == 3 and dt_final is None
    n_full, dt_final = plan_fixed_steps(1.0, 0.3)
    assert n_full == 3 and dt_final == pytest.approx(0.1)


def test_steady_rejects_nonfinite_power():
    """NaN/Inf in the power map must fail loudly, not propagate."""
    net = single_rc()
    for bad in (np.array([np.nan]), np.array([np.inf]), np.array([-np.inf])):
        with pytest.raises(SolverError, match="non-finite"):
            steady_state(net, bad)


def test_transient_rejects_nonfinite_inputs():
    net = single_rc()
    with pytest.raises(SolverError, match="non-finite"):
        transient_simulate(net, np.array([np.nan]), t_end=1.0, dt=0.1)
    with pytest.raises(SolverError, match="non-finite"):
        transient_simulate(net, np.array([1.0]), t_end=1.0, dt=0.1,
                          x0=np.array([np.inf]))
    with pytest.raises(SolverError, match="shape"):
        transient_simulate(net, np.ones(3), t_end=1.0, dt=0.1)


_NAN = np.array([np.nan])
_ONE = np.array([1.0])
_SCHEDULE = PiecewiseConstantSchedule((0.0, 1.0), np.array([[1.0]]))


def _nan_after_half(t):
    return _NAN if t > 0.5 else _ONE


@pytest.mark.parametrize("run", [
    lambda net: transient_simulate(net, _ONE, 1.0, 0.1, x0=_NAN),
    lambda net: simulate_schedule(net, _SCHEDULE, 0.1, x0=_NAN),
    lambda net: batched_transient_simulate(
        net, [BatchScenario(_ONE, x0=_NAN)], 1.0, 0.1),
    lambda net: batched_simulate_schedules(net, [_SCHEDULE], 0.1,
                                           x0s=[_NAN]),
    lambda net: AdaptiveTransientSolver(net).integrate(_ONE, 1.0, x0=_NAN),
    lambda net: transient_simulate(net, _NAN, 1.0, 0.1),
    lambda net: batched_transient_simulate(
        net, [BatchScenario(_NAN)], 1.0, 0.1),
    lambda net: AdaptiveTransientSolver(net).integrate(_NAN, 1.0),
    lambda net: transient_simulate(net, _nan_after_half, 1.0, 0.1),
    lambda net: batched_transient_simulate(
        net, [BatchScenario(_nan_after_half)], 1.0, 0.1),
    lambda net: AdaptiveTransientSolver(net).integrate(_nan_after_half, 1.0),
], ids=[
    "x0-serial", "x0-schedule", "x0-batched", "x0-batched-schedules",
    "x0-adaptive", "power-serial", "power-batched", "power-adaptive",
    "callable-serial", "callable-batched", "callable-adaptive",
])
def test_every_transient_entry_point_rejects_nonfinite_input(run):
    """A NaN initial state, constant power or callable sample raises
    instead of returning NaN temperatures, whichever engine runs it."""
    with pytest.raises(SolverError, match="non-finite"):
        run(single_rc())


def test_transient_rejects_nonfinite_schedule_mid_run():
    """A power callable going NaN at step k fails at step k, loudly."""
    net = single_rc()

    def schedule(t):
        return np.array([np.nan if t > 0.5 else 1.0])

    with pytest.raises(SolverError, match=r"t=0\.6.*non-finite"):
        transient_simulate(net, schedule, t_end=1.0, dt=0.1)

    def bad_shape(t):
        return np.ones(2) if t > 0.5 else np.array([1.0])

    with pytest.raises(SolverError, match="shape"):
        transient_simulate(net, bad_shape, t_end=1.0, dt=0.1)
