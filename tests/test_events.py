"""Tests for piecewise-constant power schedules."""

import numpy as np
import pytest

from repro.errors import PowerTraceError, SolverError
from repro.rcmodel import NetworkBuilder
from repro.solver import (
    PiecewiseConstantSchedule,
    simulate_schedule,
    transient_simulate,
)


def single_rc(r=1.0, c=1.0):
    builder = NetworkBuilder()
    node = builder.add_node(c)
    builder.to_ambient(node, 1.0 / r)
    return builder.build()


def two_node_rc():
    builder = NetworkBuilder()
    a, b = builder.add_node(1.0), builder.add_node(1.0)
    builder.connect(a, b, 1.0)
    builder.to_ambient(b, 1.0)
    return builder.build()


def make_pulse(on=1.0, off=2.0, power=4.0):
    return PiecewiseConstantSchedule.from_segments(
        [(on, np.array([power])), (off, np.array([0.0]))]
    )


def test_from_segments_boundaries():
    schedule = make_pulse()
    assert schedule.boundaries == (0.0, 1.0, 3.0)
    assert schedule.t_end == 3.0


def test_power_at_lookup():
    schedule = make_pulse()
    assert schedule.power_at(0.5)[0] == 4.0
    assert schedule.power_at(1.5)[0] == 0.0
    assert schedule.power_at(99.0)[0] == 0.0  # persists after the end


def test_validation():
    with pytest.raises(PowerTraceError):
        PiecewiseConstantSchedule((0.0, 1.0), (np.array([1.0]),) * 2)
    with pytest.raises(PowerTraceError):
        PiecewiseConstantSchedule.from_segments([])
    with pytest.raises(PowerTraceError):
        PiecewiseConstantSchedule.from_segments([(-1.0, np.array([1.0]))])


@pytest.mark.parametrize("powers", [
    (np.array([1.0, np.nan]),),
    (np.array([1.0, 2.0]), np.array([np.inf, 0.0])),
    (np.array([1.0, 2.0]), np.array([1.0])),
    (np.array([[1.0, 2.0]]),),
], ids=["nan", "inf-in-later-power", "one-entry-short", "not-1d"])
def test_bad_powers_rejected_at_construction(powers):
    boundaries = tuple(float(i) for i in range(len(powers) + 1))
    with pytest.raises(PowerTraceError):
        PiecewiseConstantSchedule(boundaries, powers)


def test_schedule_of_wrong_length_rejected():
    schedule = make_pulse()  # one-node powers for a two-node network
    with pytest.raises(SolverError, match="expected 2"):
        simulate_schedule(two_node_rc(), schedule, dt=0.1)


def test_non_finite_x0_rejected():
    schedule = make_pulse()
    with pytest.raises(SolverError, match="non-finite"):
        simulate_schedule(single_rc(), schedule, dt=0.1,
                          x0=np.array([np.nan]))


def test_simulation_matches_callable_power():
    net = single_rc()
    schedule = make_pulse(on=0.5, off=0.5, power=2.0)

    def power(t):
        # callable power uses step-boundary evaluation; right-continuous
        return np.array([2.0 if t < 0.5 - 1e-12 else 0.0])

    from_schedule = simulate_schedule(net, schedule, dt=0.01)
    reference = transient_simulate(net, power, t_end=1.0, dt=0.01)
    # the callable path trapezoidally averages power across the switch
    # step while the schedule switches exactly, hence the loose bound
    np.testing.assert_allclose(
        from_schedule.final(), reference.final(), rtol=2e-2
    )


def test_segment_boundaries_hit_exactly():
    # dt = 0.3 does not divide the 1.0 s segment; the schedule runner
    # must still switch power at exactly t = 1.0.
    net = single_rc(c=100.0)  # slow, so value ~ integral of power
    schedule = PiecewiseConstantSchedule.from_segments(
        [(1.0, np.array([1.0])), (1.0, np.array([0.0]))]
    )
    result = simulate_schedule(net, schedule, dt=0.3)
    # analytic: x(1) = PR(1 - e^{-1/tau}), then decay for 1 s more
    tau = 100.0
    analytic = (1.0 - np.exp(-1.0 / tau)) * np.exp(-1.0 / tau)
    assert result.final()[0] == pytest.approx(analytic, rel=1e-3)


def test_average_power_initial_condition_use():
    # the paper's Fig. 8 recipe: steady state under the average power
    net = single_rc()
    schedule = make_pulse(on=1.0, off=3.0, power=4.0)
    from repro.solver import steady_state
    durations = np.diff(schedule.boundaries)
    average = durations @ schedule.powers / durations.sum()
    x0 = steady_state(net, average)
    result = simulate_schedule(net, schedule, dt=0.01, x0=x0)
    # trajectory oscillates around the average-power level (1.0 K)
    assert result.states[:, 0].min() < 1.0 < result.states[:, 0].max()
