"""Bench: paper Sections 2.2, 5.1 and 5.3 -- what the IR camera misses.

Two claims about IR measurement, checked on the same RC model the
figures use:

* **Missed transients** (Sections 2.2 and 5.1): AIR-SINK's ~3 ms
  heat-up phases are "typically shorter than the IR camera's sampling
  interval", so a slow camera reports less time in thermal violation
  than the die spends there.  3 ms IntReg bursts on a 20x20 AIR-SINK
  grid, captured at 30 and 1000 Hz (the setup of
  ``examples/ir_measurement_pitfalls.py``).
* **Calibration bias on steep maps** (Section 5.3): the camera's
  optical blur averages a sensor's neighbourhood, so calibrating
  sensors against an oil-bench image is biased most where the map is
  steepest.  On the Fig. 10 maps with a 1 mm blur, the bias bound at a
  block's sensor is larger under OIL-SILICON than under AIR-SINK.
"""

import numpy as np

from repro.campaign import ModelSpec
from repro.experiments import run_fig10
from repro.floorplan import GridMapping, ev6_floorplan
from repro.ircamera import IRCamera, missed_peak_fraction
from repro.power import pulse_train
from repro.sensors import calibration_bias_bound, place_at_block
from repro.solver import simulate_schedule, steady_state


def seen_violation_time():
    """Fraction of the true violation time each camera rate reports."""
    plan = ev6_floorplan()
    model = ModelSpec(
        chip="ev6", package="air", nx=20, ny=20, convection_resistance=0.3,
        include_secondary=False, ambient_c=45.0,
    ).build()
    trace = pulse_train(
        plan, "IntReg", on_power=12.0, on_time=0.003, off_time=0.027,
        cycles=10, dt=0.5e-3,
    )
    x0 = steady_state(model.network, model.node_power(trace.average()))

    def surface(state):
        return model.surface_cell_rise(state) + model.config.ambient

    result = simulate_schedule(
        model.network, trace.to_schedule(model), dt=trace.dt, x0=x0,
        projector=surface,
    )
    hot_cell = int(np.argmax(result.states.max(axis=0)))
    truth = result.states[:, hot_cell]
    threshold = np.percentile(truth, 85)
    seen = {}
    for fps in (30.0, 1000.0):
        _, frames = IRCamera(frame_rate=fps).capture(
            result.times, result.states, model.mapping
        )
        seen[fps] = 1.0 - missed_peak_fraction(
            truth, frames[:, hot_cell], threshold
        )
    return seen


def test_bench_sec5_ircamera_missed_transients(benchmark):
    seen = benchmark.pedantic(seen_violation_time, rounds=1, iterations=1)

    print("\nSections 2.2/5.1 -- violation time an IR camera sees "
          "(3 ms IntReg bursts, AIR-SINK)")
    for fps, fraction in seen.items():
        print(f"  {fps:6.0f} Hz  {100 * fraction:5.1f}%")

    # the slow camera misses part of the millisecond violations ...
    assert seen[30.0] < seen[1000.0]
    # ... that a camera faster than the events does see
    assert seen[1000.0] >= 0.85


BLUR_SIGMA = 1e-3  # m, the camera's Gaussian PSF on the die surface


def test_bench_sec5_ircamera_calibration_bias(benchmark):
    fig10 = benchmark.pedantic(
        run_fig10, kwargs=dict(nx=24, ny=24), rounds=1, iterations=1
    )
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=24, ny=24)

    print("\nSection 5.3 -- calibration bias bound, 1 mm blur (K)")
    print("  block      AIR-SINK  OIL-SILICON")
    for block in ("IntReg", "Dcache"):
        sensor = place_at_block(plan, block)
        air, oil = (
            calibration_bias_bound(mapping, cell_map.ravel(), sensor,
                                   BLUR_SIGMA)
            for cell_map in (fig10.air_map_c, fig10.oil_map_c)
        )
        print(f"  {block:8s} {air:9.2f} {oil:12.2f}")
        # the oil bench's steeper map biases the calibration more
        assert oil > air
