"""Fig. 9 -- transient hot-spot migration after a power hand-off.

Paper setup: on the EV6, apply 2 W to IntReg for 10 ms with FPMap idle;
at 10 ms, turn IntReg off and FPMap on (2 W).  At 14 ms:

* AIR-SINK: FPMap has already overtaken IntReg as the hottest of the
  pair (fast short-term response: IntReg cools, FPMap heats quickly);
* OIL-SILICON: IntReg is still hotter (slow short-term response).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.synthetic import power_handoff
from ..solver import simulate_schedule
from .common import uniform_package_specs


@dataclass
class Fig09Result:
    """IntReg / FPMap temperature-rise traces for both packages (K)."""

    times: np.ndarray
    air_intreg: np.ndarray
    air_fpmap: np.ndarray
    oil_intreg: np.ndarray
    oil_fpmap: np.ndarray
    switch_time: float
    observe_time: float

    def _at(self, series: np.ndarray, time: float) -> float:
        index = int(np.argmin(np.abs(self.times - time)))
        return float(series[index])

    @property
    def air_hottest_at_observation(self) -> str:
        """Which block is hotter at the observation instant (AIR-SINK)."""
        intreg = self._at(self.air_intreg, self.observe_time)
        fpmap = self._at(self.air_fpmap, self.observe_time)
        return "IntReg" if intreg >= fpmap else "FPMap"

    @property
    def oil_hottest_at_observation(self) -> str:
        """Which block is hotter at the observation instant (OIL)."""
        intreg = self._at(self.oil_intreg, self.observe_time)
        fpmap = self._at(self.oil_fpmap, self.observe_time)
        return "IntReg" if intreg >= fpmap else "FPMap"


def run_fig09(
    power: float = 2.0,
    switch_time: float = 0.010,
    total_time: float = 0.016,
    observe_time: float = 0.014,
    dt: float = 0.2e-3,
    nx: int = 24,
    ny: int = 24,
) -> Fig09Result:
    """Run the Fig. 9 hot-spot migration experiment."""
    specs = uniform_package_specs(nx, ny, ambient_c=45.0)
    oil, air = specs["oil"].build(), specs["air"].build()
    plan = oil.floorplan
    trace = power_handoff(
        plan, "IntReg", "FPMap", power, switch_time, total_time, dt
    )
    intreg = plan.index_of("IntReg")
    fpmap = plan.index_of("FPMap")

    def run(model):
        schedule = trace.to_schedule(model)
        result = simulate_schedule(
            model.network, schedule, dt=dt, projector=model.block_rise
        )
        return result.times, result.states[:, intreg], result.states[:, fpmap]

    times, air_i, air_f = run(air)
    _, oil_i, oil_f = run(oil)
    return Fig09Result(
        times=times,
        air_intreg=air_i,
        air_fpmap=air_f,
        oil_intreg=oil_i,
        oil_fpmap=oil_f,
        switch_time=switch_time,
        observe_time=observe_time,
    )
