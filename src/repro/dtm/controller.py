"""Closed-loop DTM simulation over the thermal model.

The controller walks a power trace through the transient solver.  At
every sensor sampling instant it reads the hottest sensor; readings at
or above the trigger threshold engage the policy for a fixed
engagement duration (re-triggering extends the engagement).  While
engaged, block powers are scaled by the policy and performance
accumulates at the policy's reduced rate.

This is the machinery behind the paper's Section 5.1: for the same
workload and threshold, the package with the slower transient response
(OIL-SILICON) stays hot longer after a trigger and therefore needs
longer engagement durations, costing more performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..rcmodel.grid import ThermalGridModel
from ..sensors.sensor import SensorArray
from ..solver.transient import TrapezoidalStepper, checked_x0
from .policies import DTMPolicy


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


class DTMController:
    """Sensor-driven DTM over a thermal model.

    Parameters
    ----------
    model:
        The thermal model of the die in its package.
    sensors:
        The on-die sensor array the controller can actually see.
    policy:
        The response engaged on a trigger.
    threshold:
        Trigger temperature, Kelvin (absolute).
    engagement_duration:
        How long each trigger engages the policy, seconds.
    sampling_interval:
        Sensor sampling period, seconds; must be a multiple of the
        power trace's dt (the controller acts between trace samples).
    """

    def __init__(
        self,
        model: ThermalGridModel,
        sensors: SensorArray,
        policy: DTMPolicy,
        threshold: float,
        engagement_duration: float,
        sampling_interval: Optional[float] = None,
    ) -> None:
        if threshold <= model.config.ambient:
            raise ConfigurationError("threshold must exceed ambient")
        if engagement_duration <= 0:
            raise ConfigurationError("engagement_duration must be positive")
        self.model = model
        self.sensors = sensors
        self.policy = policy
        self.threshold = float(threshold)
        self.engagement_duration = float(engagement_duration)
        self.sampling_interval = sampling_interval

    def run(
        self, trace: PowerTrace, x0: Optional[np.ndarray] = None
    ) -> DTMRun:
        """Simulate the trace under closed-loop DTM."""
        model = self.model
        trace.check_floorplan(model.floorplan)
        dt = trace.dt
        interval = self.sampling_interval or dt
        sample_stride = max(1, int(round(interval / dt)))
        stepper = TrapezoidalStepper(model.network, dt)
        scale = self.policy.power_scale_vector(model.floorplan)

        x = checked_x0(x0, model.n_nodes)
        ambient = model.config.ambient
        engaged_until = -np.inf
        n_engagements = 0
        work = 0.0

        times = np.empty(trace.n_samples)
        sensor_max = np.empty(trace.n_samples)
        true_max = np.empty(trace.n_samples)
        engaged_flags = np.zeros(trace.n_samples, dtype=bool)
        block_temps = np.empty((trace.n_samples, len(model.floorplan)))
        node_power = np.zeros(model.n_nodes)

        for i in range(trace.n_samples):
            now = i * dt
            engaged = now < engaged_until
            block_power = trace.samples[i] * (scale if engaged else 1.0)
            x = stepper.step(x, model.inject(block_power, node_power))
            work += (self.policy.performance_factor if engaged else 1.0) * dt

            silicon_field = model.silicon_cell_rise(x) + ambient
            times[i] = now + dt
            true_max[i] = silicon_field.max()
            block_temps[i] = model.block_rise(x) + ambient
            engaged_flags[i] = engaged

            if i % sample_stride == 0:
                reading = self.sensors.max_reading(
                    silicon_field, model.mapping
                )
                sensor_max[i] = reading
                if reading >= self.threshold:
                    if not engaged:
                        n_engagements += 1
                    engaged_until = now + dt + self.engagement_duration
            else:
                sensor_max[i] = sensor_max[i - 1] if i else np.nan

        performance = work / trace.duration
        return DTMRun(
            times=times,
            sensor_max=sensor_max,
            true_max=true_max,
            block_temps=block_temps,
            engaged=engaged_flags,
            performance=performance,
            n_engagements=n_engagements,
        )
