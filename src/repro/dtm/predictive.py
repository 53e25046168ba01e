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
from ..rcmodel.grid import ThermalGridModel
from ..sensors.sensor import SensorArray
from ..solver.transient import TransientSession, TrapezoidalStepper
from .controller import DTMController, Trigger
from .policies import DTMPolicy


class PredictiveDTMController(DTMController):
    """Forecast-based DTM over a thermal model.

    Parameters match :class:`~repro.dtm.controller.DTMController`, plus
    ``horizon``: how far ahead (seconds) the controller forecasts when
    deciding whether to engage.  A horizon of 0 reduces to the reactive
    controller's behavior.
    """

    def __init__(
        self,
        model: ThermalGridModel,
        sensors: SensorArray,
        policy: DTMPolicy,
        threshold: float,
        engagement_duration: float,
        horizon: float = 5e-3,
        sampling_interval: Optional[float] = None,
    ) -> None:
        super().__init__(model, sensors, policy, threshold,
                         engagement_duration, sampling_interval)
        if horizon < 0:
            raise ConfigurationError("horizon must be >= 0")
        self.horizon = float(horizon)

    def trigger(self, session: TransientSession) -> Trigger:
        """Engage when the reading reaches the threshold or, failing
        that, when the hottest silicon cell of a one-step ``horizon``
        forecast under the current power does."""
        reactive = super().trigger(session)
        if self.horizon == 0:
            return reactive
        forecaster = TrapezoidalStepper(self.model.network, self.horizon)
        ambient = self.model.config.ambient

        def forecasting(reading: float, p_eff: np.ndarray,
                        column: int) -> bool:
            if reactive(reading, p_eff, column):
                return True
            forecast = session.peek(p_eff, forecaster, column)
            hottest = float(np.max(self.model.silicon_cell_rise(forecast)))
            return hottest + ambient >= self.threshold

        return forecasting
