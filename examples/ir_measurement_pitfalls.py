"""IR measurement pitfalls: what the camera misses and distorts.

Three pitfalls the paper warns about, reproduced end to end:

1. **Missed transients** (Section 2.2 / 5.1): millisecond thermal
   events under AIR-SINK are shorter than the IR camera's frame
   period; a slow camera underestimates the time in violation.
2. **Flow-direction hot-spot migration** (Section 5.4): a sensor
   placed from a top-to-bottom oil measurement lands on Dcache and
   misses the chip's real AIR-SINK hot spot (IntReg).
3. **Inflated reverse-engineered power** (Section 5.4): identical
   cores measured under left-to-right oil read hotter downstream, so a
   direction-blind temperature-to-power inversion inflates downstream
   cores' power.

Run:  python examples/ir_measurement_pitfalls.py
"""

import numpy as np

from repro.analysis import reverse_engineer_power
from repro.campaign import ModelSpec
from repro.convection.flow import FlowDirection
from repro.experiments.common import celsius
from repro.floorplan import GridMapping, ev6_floorplan, multicore_floorplan
from repro.ircamera import IRCamera, missed_peak_fraction
from repro.package import oil_silicon_package
from repro.power import pulse_train
from repro.rcmodel import ThermalGridModel
from repro.solver import simulate_schedule, steady_state
from repro.units import ZERO_CELSIUS_IN_KELVIN as ZC


def missed_transients() -> None:
    print("=== pitfall 1: the camera misses millisecond events ===")
    plan = ev6_floorplan()
    model = ModelSpec(
        chip="ev6", package="air", nx=20, ny=20, convection_resistance=0.3,
        include_secondary=False, ambient_c=45.0,
    ).build()
    trace = pulse_train(
        plan, "IntReg", on_power=12.0, on_time=0.003, off_time=0.027,
        cycles=10, dt=0.5e-3,
    )
    schedule = trace.to_schedule(model)
    x0 = steady_state(model.network, model.node_power(trace.average()))

    def surface(state):
        return model.surface_cell_rise(state) + model.config.ambient

    result = simulate_schedule(
        model.network, schedule, dt=trace.dt, x0=x0, projector=surface
    )
    mapping = model.mapping
    hot_cell = int(np.argmax(result.states.max(axis=0)))
    truth = result.states[:, hot_cell]
    threshold = np.percentile(truth, 85)
    print(f"  3 ms bursts; violation threshold {threshold - ZC:.1f} C")
    print(f"  {'frame rate':>10} {'violation time seen':>20}")
    for fps in (30.0, 60.0, 125.0, 1000.0):
        camera = IRCamera(frame_rate=fps)
        _, frames = camera.capture(result.times, result.states, mapping)
        missed = missed_peak_fraction(truth, frames[:, hot_cell], threshold)
        print(f"  {fps:8.0f}Hz {100 * (1 - missed):19.0f}%")
    print()


def misplaced_sensor() -> None:
    print("=== pitfall 2: flow direction moves the hot spot ===")
    from repro.experiments import run_fig10, run_fig11

    fig11 = run_fig11(nx=24, ny=24)
    fig10 = run_fig10(nx=24, ny=24)
    ttb = fig11.temps_c[FlowDirection.TOP_TO_BOTTOM]
    oil_spot = max(ttb, key=ttb.get)
    air_spot = max(fig10.air_blocks_c, key=fig10.air_blocks_c.get)
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=24, ny=24)
    air_cells = fig10.air_map_c.ravel()
    sensor_cell = mapping.cell_index(*plan[oil_spot].center)
    print(f"  IR bench (top-to-bottom oil) says the hot spot is "
          f"{oil_spot};")
    print(f"  in the real package it is {air_spot}.  A sensor at "
          f"{oil_spot} reads")
    print(f"  {air_cells[sensor_cell]:.1f} C while the die peaks at "
          f"{air_cells.max():.1f} C -- "
          f"{air_cells.max() - air_cells[sensor_cell]:.1f} C unseen.")
    print()


def inflated_power() -> None:
    print("=== pitfall 3: direction-blind power inversion ===")
    plan = multicore_floorplan(4, 1, 4e-3, 4e-3)
    kwargs = dict(include_secondary=False, ambient=celsius(45.0))
    measured = ThermalGridModel(
        plan,
        oil_silicon_package(
            plan.die_width, plan.die_height,
            direction=FlowDirection.LEFT_TO_RIGHT, uniform_h=False,
            **kwargs,
        ),
        nx=32, ny=8,
    )
    assumed = ThermalGridModel(
        plan,
        oil_silicon_package(
            plan.die_width, plan.die_height, uniform_h=True, **kwargs
        ),
        nx=32, ny=8,
    )
    true_power = np.full(4, 5.0)
    rise = steady_state(measured.network, measured.node_power(true_power))
    estimated = reverse_engineer_power(measured.block_rise(rise), assumed)
    print("  four identical 5 W cores, oil flowing left to right:")
    print(f"  {'core':>6} {'T rise (K)':>11} {'inferred (W)':>13}")
    for i, (rise_i, est) in enumerate(
        zip(measured.block_rise(rise), estimated)
    ):
        print(f"  {i:>6} {rise_i:11.1f} {est:13.2f}")
    print("  downstream cores read hotter, so ignoring the flow "
          "direction inflates\n  their inferred power -- exactly the "
          "artifact Hamann et al. corrected for.")


def main() -> None:
    missed_transients()
    misplaced_sensor()
    inflated_power()


if __name__ == "__main__":
    main()
