"""Fig. 10 -- steady-state EV6 thermal maps for gcc, both packages.

Paper setup: the EV6 running gcc (average per-block powers from the
architecture/power simulation), solved to steady state under
OIL-SILICON and AIR-SINK.  Claims: the oil map has roughly 30 C higher
maximum temperature and roughly 55 C larger across-die temperature
difference -- copper's lateral spreading flattens the AIR-SINK map.

Both packages use the same overall convection resistance (1.0 K/W, the
paper's fairness convention from Fig. 6); the oil side keeps its local
h(x) profile shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..analysis.thermal_maps import MapStatistics
from ..campaign import ModelSpec
from ..solver import steady_state
from ..units import ZERO_CELSIUS_IN_KELVIN
from .common import gcc_average_power


@dataclass
class Fig10Result:
    """Cell maps (C) and their statistics for both packages."""

    oil_map_c: np.ndarray
    air_map_c: np.ndarray
    oil_stats: MapStatistics
    air_stats: MapStatistics
    oil_blocks_c: Dict[str, float]
    air_blocks_c: Dict[str, float]

    @property
    def tmax_difference(self) -> float:
        """Oil Tmax minus air Tmax, Celsius (paper: ~30)."""
        return self.oil_stats.t_max - self.air_stats.t_max

    @property
    def gradient_difference(self) -> float:
        """Oil across-die dT minus air dT, Celsius (paper: ~55)."""
        return self.oil_stats.dt - self.air_stats.dt


def run_fig10(
    nx: int = 32,
    ny: int = 32,
    rconv: float = 1.0,
    instructions: int = 500_000,
) -> Fig10Result:
    """Run the Fig. 10 steady-map comparison."""
    powers = gcc_average_power(instructions)
    oil = ModelSpec(
        chip="ev6", package="oil", nx=nx, ny=ny, target_resistance=rconv,
        include_secondary=True, ambient_c=45.0,
    ).build()
    air = ModelSpec(
        chip="ev6", package="air", nx=nx, ny=ny, convection_resistance=rconv,
        include_secondary=False, ambient_c=45.0,
    ).build()

    def solve(model):
        rise = steady_state(model.network, model.node_power(powers))
        cells = model.silicon_cell_rise(rise)
        map_c = (
            model.mapping.as_grid(cells)
            + model.config.ambient - ZERO_CELSIUS_IN_KELVIN
        )
        blocks = {
            name: temp - ZERO_CELSIUS_IN_KELVIN
            for name, temp in zip(
                model.floorplan.names, model.block_temperatures(rise)
            )
        }
        return map_c, MapStatistics.of(map_c), blocks

    oil_map, oil_stats, oil_blocks = solve(oil)
    air_map, air_stats, air_blocks = solve(air)
    return Fig10Result(
        oil_map_c=oil_map,
        air_map_c=air_map,
        oil_stats=oil_stats,
        air_stats=air_stats,
        oil_blocks_c=oil_blocks,
        air_blocks_c=air_blocks,
    )
