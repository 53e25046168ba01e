"""Integration tests across the whole stack.

These exercise the paths the paper's experiments rely on end to end:
compact model vs independent reference solver, both packages on real
floorplans, trace-driven transients, and the DTM loop over a simulated
workload.
"""

import numpy as np
import pytest

from repro.convection.flow import FlowSpec
from repro.dtm import ClockGating, DTMController
from repro.floorplan import ev6_floorplan, uniform_grid_floorplan
from repro.microarch import MicroarchSimulator, gcc_like_workload
from repro.package import air_sink_package, oil_silicon_package
from repro.power import PowerTrace
from repro.rcmodel import ThermalGridModel
from repro.sensors import SensorArray, place_at_block
from repro.solver import (
    simulate_schedule,
    steady_state,
    transient_step_response,
)
from repro.validation import ReferenceFDSolver

L = 20e-3


class TestModelVsReference:
    """The Fig. 2/3 cross-validation, as regression tests."""

    def test_steady_agreement_uniform_power(self):
        plan = uniform_grid_floorplan(L, L, prefix="die")
        config = oil_silicon_package(
            L, L, uniform_h=True, include_secondary=False, ambient=300.0
        )
        model = ThermalGridModel(plan, config, nx=20, ny=20)
        rc_rise = steady_state(model.network, model.node_power({"die": 200.0}))
        rc_center = model.silicon_cell_rise(rc_rise)[
            model.mapping.cell_index(L / 2, L / 2)
        ]
        fd = ReferenceFDSolver(
            L, L, 0.5e-3, FlowSpec(velocity=10.0, uniform=True),
            nx=32, ny=32, nz=4,
        )
        fd_center = fd.steady_rise(fd.uniform_power(200.0))[
            fd.probe_index(L / 2, L / 2)
        ]
        assert rc_center == pytest.approx(fd_center, rel=0.05)

    def test_transient_agreement(self):
        plan = uniform_grid_floorplan(L, L, prefix="die")
        config = oil_silicon_package(
            L, L, uniform_h=True, include_secondary=False, ambient=300.0
        )
        model = ThermalGridModel(plan, config, nx=12, ny=12)
        power = model.node_power({"die": 200.0})
        rc = transient_step_response(
            model.network, power, t_end=2.0, dt=0.02,
            projector=model.block_rise,
        )
        fd = ReferenceFDSolver(
            L, L, 0.5e-3, FlowSpec(velocity=10.0, uniform=True),
            nx=16, ny=16, nz=3,
        )
        result = fd.transient_probe(
            fd.uniform_power(200.0), t_end=2.0, dt=0.02,
            probe=fd.probe_index(L / 2, L / 2),
        )
        # same trajectory within a few percent of the steady value
        scale = result.values[-1]
        np.testing.assert_allclose(
            rc.states[:, 0], result.values, atol=0.05 * scale
        )


class TestPackagesOnEV6:
    def test_oil_has_steeper_map_than_air_at_same_rconv(self):
        plan = ev6_floorplan()
        powers = {"IntReg": 3.0, "Dcache": 8.0, "IntExec": 2.0}
        oil = ThermalGridModel(
            plan,
            oil_silicon_package(
                plan.die_width, plan.die_height, uniform_h=True,
                target_resistance=1.0, include_secondary=False,
            ),
            nx=16, ny=16,
        )
        air = ThermalGridModel(
            plan,
            air_sink_package(
                plan.die_width, plan.die_height, convection_resistance=1.0
            ),
            nx=16, ny=16,
        )
        oil_cells = oil.silicon_cell_rise(
            steady_state(oil.network, oil.node_power(
                plan.power_vector(powers)))
        )
        air_cells = air.silicon_cell_rise(
            steady_state(air.network, air.node_power(
                plan.power_vector(powers)))
        )
        assert oil_cells.max() > air_cells.max()
        assert (oil_cells.max() - oil_cells.min()) > \
            2.0 * (air_cells.max() - air_cells.min())

    def test_simulator_trace_through_thermal_model(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        trace = simulator.run(gcc_like_workload(instructions=100_000))
        model = ThermalGridModel(
            plan,
            oil_silicon_package(
                plan.die_width, plan.die_height, uniform_h=True,
                include_secondary=True,
            ),
            nx=12, ny=12,
        )
        schedule = trace.to_schedule(model)
        result = simulate_schedule(
            model.network, schedule, dt=trace.dt,
            projector=model.block_rise, record_every=10,
        )
        assert np.all(np.isfinite(result.states))
        assert result.states.shape[1] == len(plan)
        # everything warms from ambient under a real workload
        assert result.final().min() >= 0.0


class TestClosedLoopDTM:
    def test_dtm_on_simulated_workload(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        once = simulator.run(gcc_like_workload(instructions=100_000))
        trace = PowerTrace(
            once.block_names, np.tile(once.samples, (3, 1)), once.dt
        )
        model = ThermalGridModel(
            plan,
            oil_silicon_package(
                plan.die_width, plan.die_height, uniform_h=True,
                target_resistance=2.0, include_secondary=False,
                ambient=318.15,
            ),
            nx=12, ny=12,
        )
        sensors = SensorArray([place_at_block(plan, "IntReg")])
        controller = DTMController(
            model, sensors, ClockGating(0.5),
            threshold=318.15 + 5.0, engagement_duration=1e-4,
        )
        run = controller.run(trace)
        assert run.times.shape == run.true_max.shape
        assert 0.0 < run.performance <= 1.0
        if run.n_engagements:
            assert run.performance < 1.0
