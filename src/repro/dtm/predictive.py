"""Model-predictive DTM: engage before the violation, not after.

Section 5.1's lesson is that a slow package (the oil bench) makes
reactive DTM inefficient: by the time the sensor sees the threshold,
the die is committed to a long excursion.  A controller that owns a
thermal model can instead *forecast*: at each sample it advances the
model one coarse step of length ``horizon`` under the current power
and engages if the forecast crosses the threshold.  The forecast costs
one back-substitution per sample (the horizon stepper's factorization
is built once), so this is cheap enough for runtime use -- and it is
exactly the kind of design-time-model + runtime-measurement synthesis
the paper advocates ("a proper way is to combine IR and sensor
measurements and thermal modeling", Section 5.4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..sensors.sensor import SensorArray
from ..solver.transient import TrapezoidalStepper, checked_x0
from .controller import DTMRun
from .policies import DTMPolicy


class PredictiveDTMController:
    """Forecast-based DTM over a thermal model.

    Parameters match :class:`~repro.dtm.controller.DTMController`, plus
    ``horizon``: how far ahead (seconds) the controller forecasts when
    deciding whether to engage.  A horizon of 0 reduces to the reactive
    controller's behavior.
    """

    def __init__(
        self,
        model,
        sensors: SensorArray,
        policy: DTMPolicy,
        threshold: float,
        engagement_duration: float,
        horizon: float = 5e-3,
        sampling_interval: Optional[float] = None,
    ) -> None:
        if threshold <= model.config.ambient:
            raise ConfigurationError("threshold must exceed ambient")
        if engagement_duration <= 0:
            raise ConfigurationError("engagement_duration must be positive")
        if horizon < 0:
            raise ConfigurationError("horizon must be >= 0")
        self.model = model
        self.sensors = sensors
        self.policy = policy
        self.threshold = float(threshold)
        self.engagement_duration = float(engagement_duration)
        self.horizon = float(horizon)
        self.sampling_interval = sampling_interval

    def run(self, trace: PowerTrace, x0: Optional[np.ndarray] = None
            ) -> DTMRun:
        """Simulate the trace under forecast-driven DTM."""
        model = self.model
        trace.check_floorplan(model.floorplan)
        dt = trace.dt
        interval = self.sampling_interval or dt
        sample_stride = max(1, int(round(interval / dt)))
        stepper = TrapezoidalStepper(model.network, dt)
        forecaster = (
            TrapezoidalStepper(model.network, self.horizon)
            if self.horizon > 0 else None
        )
        scale = self.policy.power_scale_vector(model.floorplan)
        ambient = model.config.ambient

        x = checked_x0(x0, model.n_nodes)
        engaged_until = -np.inf
        n_engagements = 0
        work = 0.0

        n = trace.n_samples
        times = np.empty(n)
        sensor_max = np.empty(n)
        true_max = np.empty(n)
        engaged_flags = np.zeros(n, dtype=bool)
        block_temps = np.empty((n, len(model.floorplan)))
        node_power = np.zeros(model.n_nodes)

        for i in range(n):
            now = i * dt
            engaged = now < engaged_until
            block_power = trace.samples[i] * (scale if engaged else 1.0)
            model.inject(block_power, node_power)
            x = stepper.step(x, node_power)
            work += (self.policy.performance_factor if engaged else 1.0) * dt

            silicon_field = model.block_rise(x) + ambient
            times[i] = now + dt
            true_field = self._cell_field(x) + ambient
            true_max[i] = float(np.max(true_field))
            block_temps[i] = silicon_field
            engaged_flags[i] = engaged

            if i % sample_stride == 0:
                reading = self.sensors.max_reading(
                    true_field, model.mapping
                ) if hasattr(model, "mapping") else float(
                    np.max(silicon_field)
                )
                sensor_max[i] = reading
                trigger = reading >= self.threshold
                if not trigger and forecaster is not None:
                    forecast = forecaster.step(x, node_power)
                    forecast_temp = float(
                        np.max(self._cell_field(forecast))
                    ) + ambient
                    trigger = forecast_temp >= self.threshold
                if trigger:
                    if not engaged:
                        n_engagements += 1
                    engaged_until = now + dt + self.engagement_duration
            else:
                sensor_max[i] = sensor_max[i - 1] if i else np.nan

        return DTMRun(
            times=times,
            sensor_max=sensor_max,
            true_max=true_max,
            block_temps=block_temps,
            engaged=engaged_flags,
            performance=work / trace.duration,
            n_engagements=n_engagements,
        )

    def _cell_field(self, state: np.ndarray) -> np.ndarray:
        if hasattr(self.model, "silicon_cell_rise"):
            return self.model.silicon_cell_rise(state)
        return self.model.block_rise(state)
