"""Lockstep execution of K closed-loop DTM simulations on one model.

A DTM policy sweep (the Section 5.1 bench) runs the *same* package
model under several policies.  Serially each run pays its own
factorization and its own per-step solve; here the K controller states
advance as one ``(n_nodes, K)`` matrix through one shared
:class:`~repro.solver.transient.TrapezoidalStepper`.  Only the linear
solve is shared: every controller keeps its own engagement state,
sensor sampling, and performance accounting, evaluated per column
exactly as :meth:`~repro.dtm.controller.DTMController.run` does — so
each returned :class:`~repro.dtm.controller.DTMRun` is bitwise
identical to running that controller alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..solver.transient import TrapezoidalStepper
from .controller import DTMController, DTMRun


def run_dtm_batch(
    controllers: Sequence[DTMController],
    traces: Sequence[PowerTrace],
    x0s: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[DTMRun]:
    """Run K (controller, trace) pairs in lockstep on one shared model.

    All controllers must reference the *same* model instance (one
    network, one factorization) and all traces must share one time
    grid (same ``dt``, same sample count) so the columns step
    together.  Violations raise :class:`ConfigurationError`; campaign
    callers treat that as "fall back to per-job execution".
    """
    if not controllers:
        raise ConfigurationError("need at least one controller")
    if len(traces) != len(controllers):
        raise ConfigurationError(
            f"{len(controllers)} controllers but {len(traces)} traces"
        )
    model = controllers[0].model
    for k, controller in enumerate(controllers[1:], start=1):
        if controller.model is not model:
            raise ConfigurationError(
                f"controller {k} uses a different model instance; "
                "batched DTM requires one shared model"
            )
    dt = traces[0].dt
    n_samples = traces[0].n_samples
    for k, trace in enumerate(traces):
        trace.check_floorplan(model.floorplan)
        # exact grid identity is required for lockstep stepping
        if trace.dt != dt or trace.n_samples != n_samples:
            raise ConfigurationError(
                f"trace {k} has a different time grid "
                f"(dt={trace.dt:g}, n={trace.n_samples}); batched DTM "
                f"requires dt={dt:g}, n={n_samples}"
            )

    n_scenarios = len(controllers)
    stepper = TrapezoidalStepper(model.network, dt)
    scales = [
        c.policy.power_scale_vector(model.floorplan) for c in controllers
    ]
    strides = [
        max(1, int(round((c.sampling_interval or dt) / dt)))
        for c in controllers
    ]
    ambient = model.config.ambient

    x = np.zeros((model.n_nodes, n_scenarios))
    if x0s is not None:
        if len(x0s) != n_scenarios:
            raise ConfigurationError(
                f"{len(x0s)} initial states for {n_scenarios} controllers"
            )
        for k, x0 in enumerate(x0s):
            if x0 is not None:
                x[:, k] = np.asarray(x0, float)

    engaged_until = [-np.inf] * n_scenarios
    n_engagements = [0] * n_scenarios
    work = [0.0] * n_scenarios

    times = np.empty(n_samples)
    sensor_max = [np.empty(n_samples) for _ in range(n_scenarios)]
    true_max = [np.empty(n_samples) for _ in range(n_scenarios)]
    engaged_flags = [
        np.zeros(n_samples, dtype=bool) for _ in range(n_scenarios)
    ]
    block_temps = [
        np.empty((n_samples, len(model.floorplan)))
        for _ in range(n_scenarios)
    ]

    power = np.empty((model.n_nodes, n_scenarios))
    for i in range(n_samples):
        now = i * dt
        engaged_now = [now < engaged_until[k] for k in range(n_scenarios)]
        for k, controller in enumerate(controllers):
            block_power = traces[k].samples[i] * (
                scales[k] if engaged_now[k] else 1.0
            )
            power[:, k] = model.node_power(block_power)
            work[k] += (
                controller.policy.performance_factor if engaged_now[k]
                else 1.0
            ) * dt
        x = stepper.step(x, power)
        times[i] = now + dt
        for k, controller in enumerate(controllers):
            column = np.ascontiguousarray(x[:, k])
            silicon_field = model.silicon_cell_rise(column) + ambient
            true_max[k][i] = silicon_field.max()
            block_temps[k][i] = model.block_rise(column) + ambient
            engaged_flags[k][i] = engaged_now[k]
            if i % strides[k] == 0:
                reading = controller.sensors.max_reading(
                    silicon_field, model.mapping
                )
                sensor_max[k][i] = reading
                if reading >= controller.threshold:
                    if not engaged_now[k]:
                        n_engagements[k] += 1
                    engaged_until[k] = (
                        now + dt + controller.engagement_duration
                    )
            else:
                sensor_max[k][i] = sensor_max[k][i - 1] if i else np.nan

    return [
        DTMRun(
            times=times.copy(),
            sensor_max=sensor_max[k],
            true_max=true_max[k],
            block_temps=block_temps[k],
            engaged=engaged_flags[k],
            performance=work[k] / traces[k].duration,
            n_engagements=n_engagements[k],
        )
        for k in range(n_scenarios)
    ]
