"""Cross-checks between independent integrators.

The repo now has four ways to integrate the same network — fixed-step
trapezoidal, fixed-step backward Euler, the adaptive step-doubling
solver, and the batched lockstep engine.  Agreement between
independently implemented paths is the cheapest strong evidence that
each is right; these tests pin the *relationships* (convergence
orders, mutual agreement on physical benchmarks) rather than isolated
values.
"""

import numpy as np
import pytest

from repro.floorplan import uniform_grid_floorplan
from repro.package import air_sink_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import (
    AdaptiveTransientSolver,
    BatchScenario,
    batched_transient_simulate,
    steady_state,
    transient_simulate,
)


def single_rc(r=2.0, c=3.0):
    builder = NetworkBuilder()
    node = builder.add_node(c)
    builder.to_ambient(node, 1.0 / r)
    return builder.build()


def _final_error(net, method, dt, r, c, p, t_end):
    exact = p * r * (1 - np.exp(-t_end / (r * c)))
    result = transient_simulate(net, np.array([p]), t_end=t_end, dt=dt,
                                method=method)
    return abs(result.final()[0] - exact)


def test_trapezoidal_is_second_order_in_dt():
    """Halving dt must shrink the trapezoidal error ~4x (order 2)."""
    r, c, p = 2.0, 3.0, 5.0
    net = single_rc(r, c)
    errors = [_final_error(net, "trapezoidal", dt, r, c, p, t_end=3.0)
              for dt in (0.3, 0.15, 0.075)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_backward_euler_is_first_order_in_dt():
    """Halving dt must shrink the backward Euler error ~2x (order 1)."""
    r, c, p = 2.0, 3.0, 5.0
    net = single_rc(r, c)
    errors = [_final_error(net, "backward_euler", dt, r, c, p, t_end=3.0)
              for dt in (0.3, 0.15, 0.075)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 < coarse / fine < 2.3
    # and at equal step the second-order method is far more accurate
    assert _final_error(net, "backward_euler", 0.15, r, c, p, 3.0) > \
        20 * _final_error(net, "trapezoidal", 0.15, r, c, p, 3.0)


def test_methods_agree_on_step_response():
    """Two independent discretizations must converge on each other."""
    net = single_rc()
    p = np.array([5.0])
    gaps = []
    for dt in (0.2, 0.05):
        trap = transient_simulate(net, p, t_end=4.0, dt=dt)
        be = transient_simulate(net, p, t_end=4.0, dt=dt,
                                method="backward_euler")
        gaps.append(float(np.max(np.abs(trap.states - be.states))))
    assert gaps[1] < gaps[0] / 3  # discrepancy vanishes with the step
    np.testing.assert_allclose(trap.final(), be.final(), rtol=5e-3)


def test_adaptive_agrees_with_fixed_step_on_air_sink_warmup():
    """The Sec. 4 stress case: adaptive and fixed-step must coincide.

    An AIR-SINK warm-up spans the ~ms silicon mode and the ~100 s sink
    mode; the adaptive solver crosses it in few steps, the fixed-step
    run brute-forces it.  Both must land on the same trajectory and on
    the analytic steady state.
    """
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    config = air_sink_package(20e-3, 20e-3, convection_resistance=1.0,
                              convection_capacitance=0.0, ambient=318.15)
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    power = model.node_power({"die": 100.0})

    adaptive = AdaptiveTransientSolver(
        model.network, rtol=1e-3, atol=1e-3, dt_min=1e-4, dt_max=10.0
    ).integrate(power, t_end=300.0, projector=model.block_rise)
    fixed = transient_simulate(model.network, power, t_end=300.0, dt=0.05,
                               projector=model.block_rise, record_every=100)
    steady = model.block_rise(steady_state(model.network, power))

    np.testing.assert_allclose(adaptive.final(), fixed.final(), rtol=5e-3)
    np.testing.assert_allclose(fixed.final(), steady, rtol=0.05)
    # mid-trajectory agreement, sampled where both recorded
    for t in (10.0, 60.0, 150.0):
        np.testing.assert_allclose(adaptive.at(t), fixed.at(t), rtol=0.03)
    # the adaptive run crosses the horizon in far fewer steps than the
    # 6000 the fixed-dt run integrates
    assert len(adaptive.times) < 300.0 / 0.05 / 10


def test_batched_agrees_with_serial_across_methods_and_x0():
    """Batch vs serial, both methods, non-uniform initial columns."""
    net = single_rc()
    rng = np.random.default_rng(2)
    powers = [np.array([5.0]), np.array([1.0]), np.array([0.0])]
    x0s = [None, np.array([3.0]), rng.uniform(0.0, 8.0, 1)]
    for method in ("trapezoidal", "backward_euler"):
        batched = batched_transient_simulate(
            net,
            [BatchScenario(power=p, x0=x0) for p, x0 in zip(powers, x0s)],
            t_end=2.0, dt=0.1, method=method,
        )
        for k, (p, x0) in enumerate(zip(powers, x0s)):
            serial = transient_simulate(net, p, t_end=2.0, dt=0.1,
                                        x0=x0, method=method)
            column = batched.scenario(k)
            assert np.array_equal(serial.times, column.times)
            assert np.array_equal(serial.states, column.states)


def test_batched_adaptive_and_fixed_agree_on_decay():
    """Three engines, one physical answer: free decay from a hot start."""
    net = single_rc(r=1.0, c=1.0)
    x0 = np.array([10.0])
    zero = np.array([0.0])
    t_end = 2.0
    exact = 10.0 * np.exp(-t_end)

    fixed = transient_simulate(net, zero, t_end=t_end, dt=0.01, x0=x0)
    adaptive = AdaptiveTransientSolver(
        net, rtol=1e-4, atol=1e-4, dt_min=1e-4, dt_max=0.5
    ).integrate(zero, t_end=t_end, x0=x0)
    batched = batched_transient_simulate(
        net, [BatchScenario(power=zero, x0=x0)], t_end=t_end, dt=0.01
    )

    assert fixed.final()[0] == pytest.approx(exact, rel=1e-3)
    # first-order backward Euler under step doubling: looser but close
    assert adaptive.final()[0] == pytest.approx(exact, rel=2e-2)
    assert np.array_equal(batched.scenario(0).states, fixed.states)


# -- steady solve vs the long-horizon transient limit -----------------------

def _ev6_model(nx=8):
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package

    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height,
                                 uniform_h=True, include_secondary=False)
    return ThermalGridModel(plan, config, nx=nx, ny=nx)


def test_steady_and_transient_limit_agree():
    """The sparse direct solve and the long-horizon transient limit
    coincide on uniform, single-hot-block and checkerboard maps — the
    set that brackets the lateral spectrum."""
    model = _ev6_model()
    names = list(model.floorplan.names)
    power_maps = {
        "uniform": {name: 2.0 for name in names},
        "hot_block": {name: (12.0 if i == 0 else 0.5)
                      for i, name in enumerate(names)},
        "checkerboard": {name: (4.0 if i % 2 == 0 else 0.5)
                         for i, name in enumerate(names)},
    }
    for name, block_power in power_maps.items():
        power = model.node_power(block_power)
        direct = model.silicon_cell_rise(steady_state(model.network, power))
        limit = model.silicon_cell_rise(
            transient_simulate(model.network, power, t_end=8.0, dt=0.01,
                               record_every=800).final()
        )
        np.testing.assert_allclose(limit, direct, rtol=2e-3,
                                   err_msg=f"map {name!r}")
