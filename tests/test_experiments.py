"""Smoke + claim tests for the per-figure experiment modules.

Each test runs the experiment at reduced resolution and asserts the
paper's qualitative claim for that figure.  The full-resolution runs
live in benchmarks/.
"""

import numpy as np
import pytest

from repro.convection.flow import FlowDirection
from repro.experiments import (
    run_fig02,
    run_fig03,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
)


def test_fig02_solvers_agree_and_tau_order_a_second():
    result = run_fig02(t_end=2.0, dt=0.05, rc_grid=10, fd_grid=16,
                       fd_layers=3)
    assert result.steady_agreement < 0.05
    assert result.max_pointwise_error < 0.05
    assert 0.1 < result.time_constant_estimate() < 1.5
    assert 0.7 < result.rconv < 1.3


def test_fig03_tmax_tmin_dt_agree():
    result = run_fig03(rc_grid=20, fd_grid=30, fd_layers=3)
    assert result.tmax_agreement < 0.10
    assert result.rc_dt == pytest.approx(result.fd_dt, rel=0.12)
    # steep map: dT dominates Tmin
    assert result.rc_dt > 10 * result.rc_tmin


def test_fig04_athlon_validation_temperatures():
    result = run_fig04(nx=24, ny=24)
    name, temp = result.hottest
    assert name == "sched"
    assert temp == pytest.approx(72.0, abs=4.0)  # paper: 73 model / ~70 IR
    cool_name, cool_temp = result.coolest_active
    assert cool_temp == pytest.approx(46.0, abs=4.0)  # paper: ~45


def test_fig05_secondary_path_ablation():
    result = run_fig05(nx=24, ny=24)
    assert result.oil_max_error_c > 10.0  # paper: "over 10 C"
    # paper Fig 5(b): air bars change by less than 1% (plotted Celsius)
    worst = max(
        abs(result.air_with_secondary[n] - result.air_without_secondary[n])
        / result.air_without_secondary[n]
        for n in result.air_with_secondary
    )
    assert worst < 0.02
    # and in absolute terms well under a degree
    assert max(
        abs(result.air_with_secondary[n] - result.air_without_secondary[n])
        for n in result.air_with_secondary
    ) < 1.0


def test_fig06_warmup_claims():
    result = run_fig06(t_end=4.0, dt=0.02, nx=16, ny=16)
    # oil reaches steady within the window; air is far from it
    assert result.fraction_of_steady_at_end("oil") > 0.95
    assert result.fraction_of_steady_at_end("air") < 0.8
    # air shows the instant jump then slow climb
    assert result.air_initial_jump_fraction(0.1) > 0.6
    # steady: oil hot spot much hotter, oil cool block cooler
    assert result.oil_hot_steady > result.air_hot_steady + 15.0
    assert result.oil_cool_steady < result.air_cool_steady
    # averages close (same Rconv)
    assert abs(result.oil_average_steady - result.air_average_steady) < 8.0


def test_fig07_time_constants():
    result = run_fig07(nx=10, ny=10, dt=0.02)
    assert result.tau_short_air_analytic == pytest.approx(
        0.0125 * 0.35, rel=0.05
    )
    assert result.oil_agreement < 0.15
    assert result.tau_long_air_fitted == pytest.approx(
        result.tau_long_air_analytic, rel=0.35
    )
    # the two orders of magnitude the paper derives
    assert result.resistance_ratio > 50
    assert result.tau_oil_analytic > 20 * result.tau_short_air_analytic


def test_fig08_short_term_oscillation():
    result = run_fig08(dt=1e-3, nx=16, ny=16)
    # oil recovers far less of its swing within 15 ms of the peak
    oil = result.recovery_fraction(result.oil_trace)
    air = result.recovery_fraction(result.air_trace)
    assert air - oil > 0.15
    assert oil < 0.6
    # oil's heat-up looks more linear than air's
    assert result.heatup_linearity(result.oil_trace) > \
        result.heatup_linearity(result.air_trace)


def test_fig09_hotspot_migration():
    result = run_fig09(dt=0.5e-3, nx=16, ny=16)
    assert result.air_hottest_at_observation == "FPMap"
    assert result.oil_hottest_at_observation == "IntReg"


def test_fig10_steady_map_contrast():
    result = run_fig10(nx=16, ny=16)
    assert result.tmax_difference > 5.0
    assert result.gradient_difference > 15.0
    assert result.oil_stats.dt > 2.0 * result.air_stats.dt


def test_fig11_flow_direction_table():
    result = run_fig11(nx=24, ny=24)
    for direction in (
        FlowDirection.LEFT_TO_RIGHT,
        FlowDirection.RIGHT_TO_LEFT,
        FlowDirection.BOTTOM_TO_TOP,
    ):
        assert result.hottest(direction) == "IntReg"
    assert result.hottest(FlowDirection.TOP_TO_BOTTOM) == "Dcache"
    # direction changes unit temperatures by tens of degrees
    assert result.direction_span("IntReg") > 10.0
    rows = result.table_rows()
    assert len(rows) == 19  # header + 18 units
    assert rows[0][1:] == [
        "left to right", "right to left", "bottom to top", "top to bottom"
    ]


def test_fig12_trace_claims():
    result = run_fig12(duration=0.02, nx=12, ny=12)
    assert {"IntReg", "Dcache", "IntExec"} <= set(result.hottest_five_air)
    assert {"IntReg", "Dcache", "IntExec"} <= set(result.hottest_five_oil)
    # oil runs hotter for the same Rconv and workload
    oil_ir = result.block_series("oil", "IntReg")
    air_ir = result.block_series("air", "IntReg")
    assert oil_ir.mean() > air_ir.mean()
    # both change a few degrees on millisecond scales -> sampling every
    # ~tens of microseconds for 0.1 C resolution (paper: <= 60 us)
    for which in ("air", "oil"):
        interval = result.sampling_interval_for(which, "IntReg", 0.1)
        assert 5e-6 < interval < 500e-6
    # air tracks power faster: its fast fluctuations are larger
    assert air_ir.std() > oil_ir.std()


@pytest.fixture
def fresh_gcc_caches(monkeypatch):
    """No disk store and cold in-process caches for the gcc traces."""
    from repro.experiments import common

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    cached = (common._gcc_simulation, common.gcc_power_trace,
              common.gcc_synthesized_trace)
    for function in cached:
        function.cache_clear()
    yield common
    for function in cached:
        function.cache_clear()


def test_gcc_simulation_runs_once(fresh_gcc_caches, monkeypatch):
    from repro.microarch import MicroarchSimulator

    runs = []
    original = MicroarchSimulator.run

    def counting_run(self, *args, **kwargs):
        runs.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MicroarchSimulator, "run", counting_run)
    common = fresh_gcc_caches
    common.gcc_power_trace(20_000, seed=3)
    common.gcc_synthesized_trace(0.002, 20_000, seed=3)
    assert len(runs) == 1


def test_binned_trace_is_the_resampled_full_trace(fresh_gcc_caches):
    common = fresh_gcc_caches
    binned = common.gcc_synthesized_trace(0.002, 20_000, 3, 0.005, 10)
    full = common.gcc_synthesized_trace(0.002, 20_000, seed=3)
    expected = full.resampled(10)
    assert binned.dt == expected.dt
    assert np.array_equal(binned.samples, expected.samples)


def test_shared_gcc_simulation_is_read_only(fresh_gcc_caches):
    common = fresh_gcc_caches
    trace = common.gcc_power_trace(20_000, seed=3)
    base, phases = common._gcc_simulation(20_000, 3)
    assert trace is base
    with pytest.raises(ValueError):
        trace.samples[0, 0] = 0.0
    with pytest.raises(ValueError):
        phases[0] = 1
