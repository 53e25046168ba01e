"""Fig. 8 -- short-term transients around the steady operating point.

Paper setup: the Fig. 6 floorplan with the hot block driven by a
periodic pulse -- 15 ms on, 85 ms off.  The steady state under the
*average* power of the pulse train is used as the initial condition,
then one period is simulated.  Claims:

* OIL-SILICON's heat-up and cool-down look near-linear (a slow
  exponential seen over a short window) while AIR-SINK's are clearly
  exponential and complete within a few ms;
* OIL-SILICON takes much longer to cool down, and its heat-up and
  cool-down are asymmetric (the operating point sits low on the
  exponential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.synthetic import pulse_train
from ..solver import simulate_schedule, steady_state
from .common import uniform_package_specs


@dataclass
class Fig08Result:
    """Hot-block temperature-rise traces over pulse periods (K above
    the trace's own minimum, so heat-up/cool-down shapes compare)."""

    times: np.ndarray
    oil_trace: np.ndarray
    air_trace: np.ndarray
    on_time: float
    off_time: float

    def _swing(self, trace: np.ndarray):
        return float(trace.max() - trace.min())

    @property
    def oil_swing(self) -> float:
        """Peak-to-trough swing of the OIL-SILICON trace, K."""
        return self._swing(self.oil_trace)

    @property
    def air_swing(self) -> float:
        """Peak-to-trough swing of the AIR-SINK trace, K."""
        return self._swing(self.air_trace)

    def recovery_fraction(
        self, trace: np.ndarray, after: float = 0.015
    ) -> float:
        """Fraction of the pulse swing recovered ``after`` seconds past
        the peak.

        AIR-SINK (tau ~ ms) recovers essentially fully within 15 ms;
        OIL-SILICON (tau ~ hundreds of ms) recovers only a small part --
        the paper's "it takes much longer for OIL-SILICON to cool
        down".  The swing is normalized by peak minus the trace's
        periodic minimum.
        """
        peak_index = int(np.argmax(trace))
        peak = float(trace[peak_index])
        floor = float(trace.min())
        swing = peak - floor
        if swing <= 0:
            return 1.0
        t_target = self.times[peak_index] + after
        index = int(np.argmin(np.abs(self.times - t_target)))
        return float((peak - trace[index]) / swing)

    def heatup_linearity(self, trace: np.ndarray) -> float:
        """R^2 of a straight-line fit to the heat-up segment.

        Near 1.0 = looks linear (the OIL-SILICON signature).
        """
        n_on = int(np.argmax(trace)) + 1
        t = self.times[:n_on]
        v = trace[:n_on]
        if n_on < 3:
            return 1.0
        coeffs = np.polyfit(t, v, 1)
        fit = np.polyval(coeffs, t)
        ss_res = float(np.sum((v - fit) ** 2))
        ss_tot = float(np.sum((v - v.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def run_fig08(
    hot_block: str = "Dcache",
    power_density: float = 2.0e6,
    on_time: float = 0.015,
    off_time: float = 0.085,
    dt: float = 0.5e-3,
    nx: int = 24,
    ny: int = 24,
    periods: int = 1,
) -> Fig08Result:
    """Run the Fig. 8 pulse-train experiment."""
    specs = uniform_package_specs(nx, ny, ambient_c=40.0)
    oil, air = specs["oil"].build(), specs["air"].build()
    plan = oil.floorplan
    on_power = power_density * plan[hot_block].area
    trace = pulse_train(
        plan, hot_block, on_power, on_time, off_time,
        cycles=periods, dt=dt,
    )
    hot_index = plan.index_of(hot_block)

    def run(model):
        schedule = trace.to_schedule(model)
        x0 = steady_state(
            model.network, model.node_power(trace.average())
        )
        result = simulate_schedule(
            model.network, schedule, dt=dt, x0=x0,
            projector=model.block_rise,
        )
        series = result.states[:, hot_index]
        return result.times, series - series.min()

    times, oil_series = run(oil)
    _, air_series = run(air)
    return Fig08Result(
        times=times,
        oil_trace=oil_series,
        air_trace=air_series,
        on_time=on_time,
        off_time=off_time,
    )
