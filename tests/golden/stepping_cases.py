"""The golden stepping contract: every transient entry point, pinned.

:func:`cases` runs each public stepping entry point of ``repro.solver``
and ``repro.dtm`` on small models (at most 8x8 cells) and returns the
recorded outputs as named arrays.  ``tests/golden/stepping.npz`` holds
them as computed by the reference implementation, and
``tests/test_golden_stepping.py`` requires every entry to match bit
for bit (``np.array_equal``).

Regenerate (only after an intended change of the numbers) from the
repository root::

    python3 tests/golden/stepping_cases.py
"""

import os
import sys
from typing import Dict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "stepping.npz")


def _result(out: Dict[str, np.ndarray], name: str, result) -> None:
    out[f"{name}.times"] = np.asarray(result.times)
    out[f"{name}.states"] = np.asarray(result.states)


def _dtm(out: Dict[str, np.ndarray], name: str, run) -> None:
    for field in ("times", "sensor_max", "true_max", "block_temps",
                  "engaged"):
        out[f"{name}.{field}"] = np.asarray(getattr(run, field))
    out[f"{name}.performance"] = np.asarray(run.performance)
    out[f"{name}.n_engagements"] = np.asarray(run.n_engagements)


def _solver_cases(out: Dict[str, np.ndarray]) -> None:
    from repro.campaign import ModelSpec
    from repro.solver import (
        BatchScenario,
        PiecewiseConstantSchedule,
        batched_simulate_schedules,
        batched_transient_simulate,
        simulate_schedule,
        transient_simulate,
    )

    rng = np.random.default_rng(2009)
    air = ModelSpec(package="air", nx=4, ny=4, include_secondary=False).build()
    net = air.network
    p = [air.node_power(rng.uniform(0.5, 4.0, air.n_blocks))
         for _ in range(3)]

    def wobble(t: float) -> np.ndarray:
        return p[0] * (1.0 + 0.5 * np.sin(300.0 * t)) + p[1] * (t > 0.007)

    _result(out, "ts_constant",
            transient_simulate(net, p[0], t_end=0.02, dt=2e-3))
    _result(out, "ts_callable",
            transient_simulate(net, wobble, t_end=0.02, dt=2e-3))
    _result(out, "ts_misaligned",
            transient_simulate(net, p[1], t_end=0.021, dt=2e-3))
    _result(out, "ts_record_every",
            transient_simulate(net, wobble, t_end=0.02, dt=2e-3,
                               record_every=3))
    _result(out, "ts_projector",
            transient_simulate(net, wobble, t_end=0.02, dt=2e-3,
                               x0=rng.uniform(0.0, 5.0, net.n_nodes),
                               projector=air.block_rise))
    _result(out, "ts_backward_euler",
            transient_simulate(net, wobble, t_end=0.021, dt=2e-3,
                               method="backward_euler"))

    node_schedule = PiecewiseConstantSchedule.from_segments(
        [(5e-3, p[0]), (3.7e-3, p[1]), (6e-3, p[2]), (1.1e-3, p[0])]
    )
    _result(out, "ss_node_short_steps",
            simulate_schedule(net, node_schedule, dt=2e-3))

    oil = ModelSpec(nx=6, ny=6, uniform_h=True).build()
    samples = [rng.uniform(0.0, 3.0, (20, oil.n_blocks)) for _ in range(3)]
    traces = [PiecewiseConstantSchedule.uniform(s, 1e-3, oil)
              for s in samples]
    x0s = [None, rng.uniform(0.0, 8.0, oil.n_nodes),
           rng.uniform(0.0, 8.0, oil.n_nodes)]
    _result(out, "ss_trace_x0_projector",
            simulate_schedule(oil.network, traces[0], dt=1e-3, x0=x0s[1],
                              projector=oil.block_rise))

    block_schedule = PiecewiseConstantSchedule.uniform(samples[2], 2e-3, air)
    _result(out, "bts_k3_misaligned",
            batched_transient_simulate(
                net,
                [BatchScenario(p[2]),
                 BatchScenario(wobble, x0=rng.uniform(0.0, 5.0, net.n_nodes)),
                 BatchScenario(block_schedule, tag="trace")],
                t_end=0.0211, dt=3e-4, record_every=5,
                projector=air.block_rise,
            ))
    _result(out, "bts_k3_nodes_backward_euler",
            batched_transient_simulate(
                net,
                [BatchScenario(node_schedule), BatchScenario(p[0]),
                 BatchScenario(wobble)],
                t_end=0.01, dt=1e-3, method="backward_euler",
            ))
    _result(out, "bss_k3_short_steps",
            batched_simulate_schedules(
                oil.network, traces, dt=4e-4, x0s=x0s, record_every=2,
                projector=oil.block_rise, tags=["a", "b", "c"],
            ))
    _result(out, "bss_k3_record_every",
            batched_simulate_schedules(
                oil.network, traces, dt=1e-3, x0s=x0s, record_every=4,
                projector=oil.block_rise,
            ))


def _dtm_cases(out: Dict[str, np.ndarray]) -> None:
    from repro.dtm import (ClockGating, DTMController, DVFS, FetchThrottle,
                           PredictiveDTMController)
    from repro.dtm.batch import run_dtm_batch
    from repro.experiments.common import uniform_package_specs
    from repro.power import pulse_train
    from repro.sensors import SensorArray, place_at_block

    model = uniform_package_specs(8, 8, ambient_c=45.0)["oil"].build()
    plan = model.floorplan
    sensors = SensorArray([place_at_block(plan, "Dcache"),
                           place_at_block(plan, "IntReg")])
    threshold = model.config.ambient + 16.0

    def trace(on_power: float):
        return pulse_train(plan, "Dcache", on_power=on_power, on_time=0.015,
                           off_time=0.025, cycles=2, dt=1e-3,
                           base_power={"IntReg": 3.0, "Icache": 2.0})

    reactive = DTMController(model, sensors, ClockGating(0.2, ["Dcache"]),
                             threshold, engagement_duration=6e-3,
                             sampling_interval=2e-3)
    _dtm(out, "dtm_reactive", reactive.run(trace(14.0)))
    for name, horizon in (("dtm_predictive_h0", 0.0),
                          ("dtm_predictive_h5ms", 5e-3)):
        predictive = PredictiveDTMController(
            model, sensors, ClockGating(0.2, ["Dcache"]), threshold,
            engagement_duration=6e-3, horizon=horizon)
        _dtm(out, name, predictive.run(trace(14.0)))

    controllers = [
        reactive,
        DTMController(model, sensors, DVFS(0.7), threshold,
                      engagement_duration=4e-3),
        DTMController(model, sensors, FetchThrottle(0.3, ["Dcache"]),
                      threshold, engagement_duration=8e-3,
                      sampling_interval=3e-3),
    ]
    x0 = np.full(model.n_nodes, 4.0)
    runs = run_dtm_batch(controllers, [trace(14.0), trace(16.0), trace(12.0)],
                         x0s=[None, x0, None])
    for k, run in enumerate(runs):
        _dtm(out, f"dtm_batch_k3.{k}", run)


def cases() -> Dict[str, np.ndarray]:
    """Every pinned stepping output, by name."""
    out: Dict[str, np.ndarray] = {}
    _solver_cases(out)
    _dtm_cases(out)
    return out


def main() -> int:
    out = cases()
    np.savez_compressed(GOLDEN, **out)
    print(f"wrote {len(out)} arrays to {os.path.relpath(GOLDEN)} "
          f"({os.path.getsize(GOLDEN)} bytes)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
