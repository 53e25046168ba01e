"""Tests for DTM policies, the closed-loop controller, and metrics."""

import numpy as np
import pytest

from repro.dtm import (
    ClockGating,
    DTMController,
    DVFS,
    FetchThrottle,
    time_above_threshold,
)
from repro.errors import ConfigurationError, SolverError
from repro.floorplan import ev6_floorplan, uniform_grid_floorplan
from repro.package import oil_silicon_package
from repro.power import constant_power
from repro.rcmodel import ThermalGridModel
from repro.sensors import SensorArray, ThermalSensor


class TestPolicies:
    def test_fetch_throttle_scales_targets_only(self):
        plan = ev6_floorplan()
        policy = FetchThrottle(0.5, targets=["Icache", "IntReg"])
        scale = policy.power_scale_vector(plan)
        assert scale[plan.index_of("Icache")] == 0.5
        assert scale[plan.index_of("IntReg")] == 0.5
        assert scale[plan.index_of("L2")] == 1.0
        assert policy.performance_factor == 0.5

    def test_dvfs_cubic_power_linear_performance(self):
        policy = DVFS(0.8)
        assert policy.power_factor == pytest.approx(0.8**3)
        assert policy.performance_factor == pytest.approx(0.8)

    def test_clock_gating_whole_chip(self):
        plan = ev6_floorplan()
        scale = ClockGating(0.25).power_scale_vector(plan)
        np.testing.assert_allclose(scale, 0.25)

    def test_unknown_target_rejected(self):
        plan = ev6_floorplan()
        with pytest.raises(ConfigurationError):
            FetchThrottle(0.5, targets=["nope"]).power_scale_vector(plan)

    def test_invalid_factors_rejected(self):
        with pytest.raises(ConfigurationError):
            DVFS(0.0)
        with pytest.raises(ConfigurationError):
            FetchThrottle(1.5)


@pytest.fixture(scope="module")
def hot_setup():
    plan = uniform_grid_floorplan(10e-3, 10e-3, prefix="die")
    config = oil_silicon_package(
        10e-3, 10e-3, uniform_h=True, include_secondary=False, ambient=318.15
    )
    model = ThermalGridModel(plan, config, nx=8, ny=8)
    sensors = SensorArray([ThermalSensor(5e-3, 5e-3)])
    return plan, model, sensors


class TestController:
    def test_dtm_reduces_peak_temperature(self, hot_setup):
        plan, model, sensors = hot_setup
        trace = constant_power(plan, {"die": 40.0}, duration=2.0, dt=0.01)
        threshold = 318.15 + 40.0
        controller = DTMController(
            model, sensors, ClockGating(0.3),
            threshold=threshold, engagement_duration=0.1,
        )
        run = controller.run(trace)
        # Without DTM the die would sit near ambient + ~90 K; the
        # controller must hold the excursion near the threshold.
        assert run.peak_temperature < threshold + 15.0
        assert run.n_engagements >= 1
        assert run.performance < 1.0

    def test_no_trigger_below_threshold(self, hot_setup):
        plan, model, sensors = hot_setup
        trace = constant_power(plan, {"die": 1.0}, duration=0.5, dt=0.01)
        controller = DTMController(
            model, sensors, ClockGating(0.3),
            threshold=318.15 + 50.0, engagement_duration=0.1,
        )
        run = controller.run(trace)
        assert run.n_engagements == 0
        assert run.performance == pytest.approx(1.0)
        assert run.engaged_fraction == 0.0

    def test_threshold_must_exceed_ambient(self, hot_setup):
        plan, model, sensors = hot_setup
        with pytest.raises(ConfigurationError):
            DTMController(
                model, sensors, ClockGating(0.5),
                threshold=300.0, engagement_duration=0.1,
            )

    def test_sampling_interval_delays_detection(self, hot_setup):
        plan, model, sensors = hot_setup
        trace = constant_power(plan, {"die": 40.0}, duration=1.0, dt=0.01)
        threshold = 318.15 + 30.0
        fast = DTMController(
            model, sensors, ClockGating(0.3), threshold,
            engagement_duration=0.05, sampling_interval=0.01,
        ).run(trace)
        slow = DTMController(
            model, sensors, ClockGating(0.3), threshold,
            engagement_duration=0.05, sampling_interval=0.2,
        ).run(trace)
        assert slow.peak_temperature >= fast.peak_temperature - 1e-9


class TestMetrics:
    def test_time_above_threshold(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        temps = np.array([10.0, 20.0, 20.0, 10.0])
        assert time_above_threshold(times, temps, 15.0) == pytest.approx(2.0)


class TestPredictiveController:
    @pytest.fixture()
    def setup(self, hot_setup):
        plan, model, sensors = hot_setup
        trace = constant_power(plan, {"die": 40.0}, duration=1.0, dt=0.01)
        threshold = 318.15 + 30.0
        return plan, model, sensors, trace, threshold

    def test_preempts_the_violation(self, setup):
        from repro.dtm import PredictiveDTMController
        _, model, sensors, trace, threshold = setup
        kwargs = dict(threshold=threshold, engagement_duration=0.05)
        reactive = DTMController(
            model, sensors, ClockGating(0.2), **kwargs
        ).run(trace)
        predictive = PredictiveDTMController(
            model, sensors, ClockGating(0.2), horizon=0.05, **kwargs
        ).run(trace)
        # forecasting engages earlier and caps the peak lower (or at
        # worst equal)
        assert predictive.peak_temperature <= reactive.peak_temperature
        from repro.dtm import time_above_threshold
        v_pred = time_above_threshold(
            predictive.times, predictive.true_max, threshold
        )
        v_react = time_above_threshold(
            reactive.times, reactive.true_max, threshold
        )
        assert v_pred <= v_react

    def test_zero_horizon_matches_reactive(self, setup):
        from repro.dtm import PredictiveDTMController
        _, model, sensors, trace, threshold = setup
        kwargs = dict(threshold=threshold, engagement_duration=0.05)
        reactive = DTMController(
            model, sensors, ClockGating(0.2), **kwargs
        ).run(trace)
        degenerate = PredictiveDTMController(
            model, sensors, ClockGating(0.2), horizon=0.0, **kwargs
        ).run(trace)
        np.testing.assert_allclose(
            degenerate.true_max, reactive.true_max, rtol=1e-9
        )
        assert degenerate.performance == pytest.approx(reactive.performance)

    def test_no_power_no_engagement(self, setup):
        from repro.dtm import PredictiveDTMController
        plan, model, sensors, trace, threshold = setup
        idle = constant_power(plan, {"die": 0.5}, duration=0.3, dt=0.01)
        run = PredictiveDTMController(
            model, sensors, ClockGating(0.2), threshold=threshold,
            engagement_duration=0.05, horizon=0.1,
        ).run(idle)
        assert run.n_engagements == 0
        assert run.performance == pytest.approx(1.0)

    def test_validation(self, setup):
        from repro.dtm import PredictiveDTMController
        _, model, sensors, _, threshold = setup
        with pytest.raises(ConfigurationError):
            PredictiveDTMController(
                model, sensors, ClockGating(0.2), threshold=threshold,
                engagement_duration=0.05, horizon=-1.0,
            )


def _run_reactive(model, sensors, trace, x0):
    return DTMController(
        model, sensors, ClockGating(0.3), 318.15 + 40.0, 0.1
    ).run(trace, x0=x0)


def _run_predictive(model, sensors, trace, x0):
    from repro.dtm import PredictiveDTMController
    return PredictiveDTMController(
        model, sensors, ClockGating(0.3), 318.15 + 40.0, 0.1, horizon=0.05
    ).run(trace, x0=x0)


def _run_batch(model, sensors, trace, x0):
    from repro.dtm.batch import run_dtm_batch
    controller = DTMController(
        model, sensors, ClockGating(0.3), 318.15 + 40.0, 0.1
    )
    # the bad state sits in the second column, behind a good one
    return run_dtm_batch(
        [controller, controller], [trace, trace], x0s=[None, x0]
    )


@pytest.mark.parametrize("bad_x0", ["nan", "short"])
@pytest.mark.parametrize(
    "run", [_run_reactive, _run_predictive, _run_batch],
    ids=["controller", "predictive", "batch"],
)
def test_dtm_loops_reject_a_bad_initial_state(hot_setup, run, bad_x0):
    plan, model, sensors = hot_setup
    trace = constant_power(plan, {"die": 40.0}, duration=0.1, dt=0.01)
    x0 = (np.full(model.n_nodes, np.nan) if bad_x0 == "nan"
          else np.zeros(model.n_nodes - 1))
    with pytest.raises(SolverError):
        run(model, sensors, trace, x0)


_DTMRUN_ARRAYS = ("times", "sensor_max", "true_max", "block_temps", "engaged")


def _assert_runs_identical(a, b):
    for field in _DTMRUN_ARRAYS:
        assert np.array_equal(getattr(a, field), getattr(b, field),
                              equal_nan=True), field
    assert a.performance == b.performance
    assert a.n_engagements == b.n_engagements


def test_zero_horizon_predictive_equals_reactive_bitwise(hot_setup):
    from repro.dtm import PredictiveDTMController
    plan, model, sensors = hot_setup
    trace = constant_power(plan, {"die": 40.0}, duration=0.5, dt=0.01)
    kwargs = dict(threshold=318.15 + 30.0, engagement_duration=0.05,
                  sampling_interval=0.02)
    reactive = DTMController(model, sensors, ClockGating(0.2), **kwargs)
    predictive = PredictiveDTMController(model, sensors, ClockGating(0.2),
                                         horizon=0.0, **kwargs)
    run = reactive.run(trace)
    assert run.n_engagements >= 1
    _assert_runs_identical(predictive.run(trace), run)


def test_serial_dtm_run_equals_a_one_column_batch(hot_setup):
    from repro.dtm.batch import run_dtm_batch
    plan, model, sensors = hot_setup
    trace = constant_power(plan, {"die": 40.0}, duration=0.5, dt=0.01)
    controller = DTMController(model, sensors, ClockGating(0.3),
                               318.15 + 35.0, 0.05, sampling_interval=0.03)
    run = controller.run(trace)
    assert run.n_engagements >= 1
    _assert_runs_identical(run, run_dtm_batch([controller], [trace])[0])


def _run_with_interval(entry, model, sensors, trace, interval):
    from repro.dtm import PredictiveDTMController
    from repro.dtm.batch import run_dtm_batch
    args = (model, sensors, ClockGating(0.3), 318.15 + 40.0, 0.1)
    if entry == "controller":
        return DTMController(*args, sampling_interval=interval).run(trace)
    if entry == "predictive":
        return PredictiveDTMController(
            *args, horizon=0.05, sampling_interval=interval
        ).run(trace)
    controller = DTMController(*args, sampling_interval=interval)
    return run_dtm_batch([controller, controller], [trace, trace])[1]


_ENTRIES = ["controller", "predictive", "batch"]


@pytest.mark.parametrize("steps", [1.5, 0.0, -1.0], ids=["1.5dt", "0", "-dt"])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_sampling_interval_must_be_a_positive_multiple_of_dt(
        hot_setup, entry, steps):
    plan, model, sensors = hot_setup
    trace = constant_power(plan, {"die": 40.0}, duration=0.3, dt=0.01)
    with pytest.raises(ConfigurationError, match="sampling_interval"):
        _run_with_interval(entry, model, sensors, trace, steps * trace.dt)


@pytest.mark.parametrize("entry", _ENTRIES)
def test_sampling_interval_of_twenty_steps_samples_every_twentieth(
        hot_setup, entry):
    plan, model, sensors = hot_setup
    trace = constant_power(plan, {"die": 40.0}, duration=0.5, dt=0.01)
    run = _run_with_interval(entry, model, sensors, trace, 20 * trace.dt)
    # held readings repeat between samples, taken at steps 0, 20, 40
    fresh = np.flatnonzero(np.diff(run.sensor_max) != 0) + 1
    assert set(fresh) <= {20, 40}
    assert run.sensor_max[19] == run.sensor_max[0]
    assert run.sensor_max[20] != run.sensor_max[19]
