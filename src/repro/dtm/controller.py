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

from typing import Callable, Optional

import numpy as np

from ..errors import ConfigurationError
from ..power.trace import PowerTrace
from ..rcmodel.grid import ThermalGridModel
from ..sensors.sensor import SensorArray
from ..solver.transient import TransientSession
from .batch import DTMRun, run_dtm_batch
from .policies import DTMPolicy

#: ``trigger(reading, p_eff, column)``: whether the sensor reading
#: taken on state column ``column``, which just stepped under power term
#: ``p_eff``, engages the policy.
Trigger = Callable[[float, np.ndarray, int], bool]


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
        Sensor sampling period, seconds; must be a positive multiple of
        the power trace's dt (the controller acts between trace
        samples), else the run raises :class:`ConfigurationError`.
        ``None`` samples at every trace sample.
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
        """Simulate the trace under closed-loop DTM (a one-column
        :func:`~repro.dtm.batch.run_dtm_batch`)."""
        return run_dtm_batch([self], [trace], [x0])[0]

    def trigger(self, session: TransientSession) -> Trigger:
        """The engage decision at each sensor sample of a run on
        ``session``: the hottest reading reaches the threshold."""
        return lambda reading, p_eff, column: reading >= self.threshold
