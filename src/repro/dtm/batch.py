"""The closed-loop DTM loop: K controllers in lockstep on one model.

Every DTM run goes through :func:`run_dtm_batch`.  A DTM policy sweep
(the Section 5.1 bench) runs the *same* package model under several
policies: the K controller states advance as one ``(n_nodes, K)``
:class:`~repro.solver.transient.TransientSession`, so the sweep pays
one factorization and one back-solve loop.  A serial
:meth:`~repro.dtm.controller.DTMController.run` is the K = 1 case, on
a 1-D state.  Only the linear solve is shared: every controller keeps
its own engagement state, sensor sampling, and performance
accounting, evaluated per column between two :meth:`advance
<repro.solver.transient.TransientSession.advance>` calls — so each
returned :class:`DTMRun` is bitwise identical to
running that controller alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..solver.transient import (
    _ALIGN_RTOL,
    TransientSession,
    checked_x0,
    stacked_x0,
)

if TYPE_CHECKING:
    from .controller import DTMController


@dataclass
class DTMRun:
    """Results of one closed-loop DTM simulation.

    Temperatures are absolute Kelvin.  ``engaged`` flags each sample
    interval; ``performance`` is the fraction of nominal work completed
    over the run (1.0 = no DTM penalty).
    """

    times: np.ndarray
    sensor_max: np.ndarray
    true_max: np.ndarray
    block_temps: np.ndarray
    engaged: np.ndarray
    performance: float
    n_engagements: int

    @property
    def engaged_fraction(self) -> float:
        """Fraction of intervals spent with DTM engaged."""
        return float(np.mean(self.engaged))

    @property
    def peak_temperature(self) -> float:
        """Hottest true die temperature over the run, K."""
        return float(self.true_max.max())


def _sample_stride(interval: Optional[float], dt: float) -> int:
    """Trace samples per sensor sample; ``None`` samples every step."""
    if interval is None:
        return 1
    ratio = interval / dt
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > _ALIGN_RTOL * stride:
        raise ConfigurationError(
            f"sampling_interval {interval:g} s must be a positive multiple "
            f"of the trace's dt ({dt:g} s)"
        )
    return int(stride)


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
    callers treat that as "fall back to per-job execution".  So does
    a ``sampling_interval`` that is not a positive multiple of the
    traces' ``dt``.  An ``x0s`` entry that is not a finite
    ``(n_nodes,)`` state raises :class:`~repro.errors.SolverError`.
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
    strides = [_sample_stride(c.sampling_interval, dt) for c in controllers]
    if x0s is None:
        x0s = [None] * n_scenarios
    if len(x0s) != n_scenarios:
        raise ConfigurationError(
            f"{len(x0s)} initial states for {n_scenarios} controllers"
        )
    serial = n_scenarios == 1
    n_nodes, n_blocks = model.n_nodes, len(model.floorplan)
    session = TransientSession(
        model.network, dt,
        checked_x0(x0s[0], n_nodes) if serial else stacked_x0(x0s, n_nodes),
    )
    triggers = [c.trigger(session) for c in controllers]
    scales = [c.policy.power_scale_vector(model.floorplan) for c in controllers]
    ambient = model.config.ambient

    engaged_until = [-np.inf] * n_scenarios
    n_engagements = [0] * n_scenarios
    work = [0.0] * n_scenarios
    times = np.empty(n_samples)
    sensor_max = np.empty((n_scenarios, n_samples))
    true_max = np.empty((n_scenarios, n_samples))
    engaged = np.zeros((n_scenarios, n_samples), dtype=bool)
    block_temps = np.empty((n_scenarios, n_samples, n_blocks))

    # the K block-power columns go through the block->cell operator
    # as one matrix, injected into a reused (n_nodes, K) buffer; a
    # serial run uses the one column as a vector
    block_power = np.empty((n_blocks, n_scenarios))
    power = np.zeros((n_nodes, n_scenarios))
    columns = [block_power[:, k] for k in range(n_scenarios)]
    if serial:
        block_power, power = columns[0], power[:, 0]
    for i in range(n_samples):
        now = i * dt
        engaged[:, i] = [now < until for until in engaged_until]
        for k, controller in enumerate(controllers):
            on = engaged[k, i]
            columns[k][:] = traces[k].samples[i] * (scales[k] if on else 1.0)
            work[k] += (controller.policy.performance_factor if on
                        else 1.0) * dt
        node_power = model.inject(block_power, power)
        p_eff = session.stepper.effective_power(node_power, node_power)
        x = session.advance(p_eff)
        times[i] = now + dt
        block_temps[:, i] = np.atleast_2d(model.block_rise(x.T)) + ambient
        for k, controller in enumerate(controllers):
            silicon_field = model.silicon_cell_rise(session.column(k)) + ambient
            true_max[k, i] = silicon_field.max()
            if i % strides[k]:
                sensor_max[k, i] = sensor_max[k, i - 1]
                continue
            reading = controller.sensors.max_reading(silicon_field,
                                                     model.mapping)
            sensor_max[k, i] = reading
            if triggers[k](reading, p_eff, k):
                if not engaged[k, i]:
                    n_engagements[k] += 1
                engaged_until[k] = now + dt + controller.engagement_duration

    return [
        DTMRun(
            times=times.copy(),
            sensor_max=sensor_max[k],
            true_max=true_max[k],
            block_temps=block_temps[k],
            engaged=engaged[k],
            performance=work[k] / traces[k].duration,
            n_engagements=n_engagements[k],
        )
        for k in range(n_scenarios)
    ]
