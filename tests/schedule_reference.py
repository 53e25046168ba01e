"""The materialized node-power schedule path, kept as a reference.

Before trace schedules streamed block powers, ``PowerTrace.to_schedule``
expanded every sample into a full node-power vector up front and
``simulate_schedule`` walked that list.  This module keeps that path
verbatim, including the block <-> cell products written as plain scipy
operator expressions over ``Floorplan.areas()``, as the specification
the streamed path must match bit for bit.  It holds an
``(n_samples, n_nodes)`` schedule on purpose; only the exactness tests
use it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.power.trace import PowerTrace
from repro.rcmodel.grid import ThermalGridModel
from repro.solver import steady_state
from repro.solver.transient import stepper_class


def reference_node_power(
    model: ThermalGridModel, block_power: np.ndarray
) -> np.ndarray:
    """``ThermalGridModel.node_power`` as a fresh operator expression."""
    mapping = model.mapping
    cells = mapping._overlap.T @ (block_power / model.floorplan.areas())
    vector = np.zeros(model.n_nodes)
    vector[model.silicon_nodes] = cells
    return vector


def reference_block_rise(
    model: ThermalGridModel, state: np.ndarray
) -> np.ndarray:
    """``ThermalGridModel.block_rise`` of one state vector."""
    silicon = np.asarray(state)[model.silicon_nodes]
    return (model.mapping._overlap @ silicon) / model.floorplan.areas()


def reference_trace_transient(
    model: ThermalGridModel,
    trace: PowerTrace,
    init: str = "steady",
    method: str = "trapezoidal",
) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, block_rises)`` of the trace-transient job, materialized."""
    node_powers = [reference_node_power(model, row) for row in trace.samples]
    boundaries = [0.0]
    for _ in node_powers:
        boundaries.append(boundaries[-1] + float(trace.dt))
    x0: Optional[np.ndarray] = None
    if init == "steady":
        x0 = steady_state(
            model.network, reference_node_power(model, trace.average())
        )
    dt = trace.dt
    stepper_cls = stepper_class(method)
    stepper = stepper_cls(model.network, dt)
    short_steppers = {}
    x = np.zeros(model.n_nodes) if x0 is None else x0.copy()
    times: List[float] = [0.0]
    records: List[np.ndarray] = [reference_block_rise(model, x)]
    now = 0.0
    for seg_index, power in enumerate(node_powers):
        seg_end = boundaries[seg_index + 1]
        while now < seg_end - 1e-12:
            remaining = seg_end - now
            if remaining >= dt - 1e-12:
                x = stepper.step(x, power)
                now += dt
            else:
                key = round(remaining, 15)
                if key not in short_steppers:
                    short_steppers[key] = stepper_cls(model.network, remaining)
                x = short_steppers[key].step(x, power)
                now = seg_end
            times.append(now)
            records.append(reference_block_rise(model, x))
    return np.asarray(times), np.vstack(records)
