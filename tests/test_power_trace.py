"""Tests for PowerTrace and the synthetic power generators."""

import io

import numpy as np
import pytest

from repro.errors import PowerTraceError
from repro.floorplan import ev6_floorplan, uniform_grid_floorplan
from repro.power import (
    PowerTrace,
    constant_power,
    power_handoff,
    pulse_train,
    step_power,
)


def simple_trace():
    return PowerTrace(
        ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), dt=0.5
    )


class TestPowerTrace:
    def test_shape_properties(self):
        trace = simple_trace()
        assert trace.n_samples == 3
        assert trace.n_blocks == 2
        assert trace.duration == pytest.approx(1.5)
        np.testing.assert_allclose(trace.times, [0.0, 0.5, 1.0])

    def test_column_and_totals(self):
        trace = simple_trace()
        np.testing.assert_allclose(trace.column("b"), [2.0, 4.0, 6.0])
        np.testing.assert_allclose(trace.samples.sum(axis=1), [3.0, 7.0, 11.0])
        np.testing.assert_allclose(trace.average(), [3.0, 4.0])

    def test_unknown_column_raises(self):
        with pytest.raises(PowerTraceError):
            simple_trace().column("zzz")

    def test_resampled_averages_bins(self):
        trace = simple_trace()
        coarse = trace.resampled(3)
        assert coarse.n_samples == 1
        assert coarse.dt == pytest.approx(1.5)
        np.testing.assert_allclose(coarse.samples[0], [3.0, 4.0])

    def test_validation(self):
        with pytest.raises(PowerTraceError):
            PowerTrace(["a"], np.array([[1.0, 2.0]]), dt=1.0)
        with pytest.raises(PowerTraceError):
            PowerTrace(["a"], np.array([[-1.0]]), dt=1.0)
        with pytest.raises(PowerTraceError):
            PowerTrace(["a"], np.array([[1.0]]), dt=0.0)
        for dt in (float("nan"), float("inf")):
            with pytest.raises(PowerTraceError):
                PowerTrace(["a"], np.ones((3, 1)), dt)

    def test_ptrace_round_trip(self):
        trace = simple_trace()
        buffer = io.StringIO()
        trace.to_ptrace(buffer)
        buffer.seek(0)
        loaded = PowerTrace.from_ptrace(buffer, dt=0.5)
        assert loaded.block_names == trace.block_names
        np.testing.assert_allclose(loaded.samples, trace.samples)

    def test_ptrace_rejects_ragged(self):
        with pytest.raises(PowerTraceError):
            PowerTrace.from_ptrace(io.StringIO("a b\n1.0\n"), dt=1.0)

    def test_check_floorplan(self):
        plan = ev6_floorplan()
        good = constant_power(plan, {}, duration=1.0, dt=0.5)
        good.check_floorplan(plan)
        with pytest.raises(PowerTraceError):
            simple_trace().check_floorplan(plan)


class TestGenerators:
    def test_step_power_density(self):
        plan = ev6_floorplan()
        trace = step_power(plan, "Dcache", 2.0e6, duration=1.0, dt=0.1)
        watts = trace.column("Dcache")[0]
        assert watts == pytest.approx(2.0e6 * plan["Dcache"].area)
        assert trace.column("IntReg").max() == 0.0

    def test_pulse_train_duty_cycle(self):
        plan = uniform_grid_floorplan(1e-3, 1e-3, prefix="u")
        trace = pulse_train(
            plan, "u", on_power=10.0, on_time=0.015, off_time=0.085,
            cycles=2, dt=0.005,
        )
        duty = (trace.column("u") > 0).mean()
        assert duty == pytest.approx(0.15, abs=0.01)
        assert trace.duration == pytest.approx(0.2)

    def test_pulse_train_base_power(self):
        plan = uniform_grid_floorplan(2e-3, 1e-3, nx=2, ny=1, prefix="u")
        trace = pulse_train(
            plan, "u_0_0", 5.0, 0.01, 0.01, cycles=1, dt=0.005,
            base_power={"u_1_0": 1.0},
        )
        assert np.all(trace.column("u_1_0") == 1.0)

    def test_power_handoff_switch(self):
        plan = ev6_floorplan()
        trace = power_handoff(
            plan, "IntReg", "FPMap", 2.0,
            switch_time=0.010, total_time=0.016, dt=0.001,
        )
        assert trace.column("IntReg")[5] == 2.0
        assert trace.column("FPMap")[5] == 0.0
        assert trace.column("IntReg")[12] == 0.0
        assert trace.column("FPMap")[12] == 2.0
        # never both on: total is constant
        np.testing.assert_allclose(trace.samples.sum(axis=1), 2.0)

    def test_power_handoff_validation(self):
        plan = ev6_floorplan()
        with pytest.raises(PowerTraceError):
            power_handoff(plan, "IntReg", "FPMap", 2.0, 0.02, 0.01, 0.001)
