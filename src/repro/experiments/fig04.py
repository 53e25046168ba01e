"""Fig. 4 -- steady-state map of an AMD Athlon-like die under oil.

Paper setup: the Athlon floorplan (derived from the die photo) with
per-block powers extracted from Mesa-Martinez et al., cooled by the
IR-imaging oil flow with the secondary heat path included.  The paper's
qualitative validation: hottest block is ``sched`` at about 73 C
(IR snapshot: ~70 C), coolest active area about 45 C (IR: ~45 C),
excluding the blank edge fillers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..analysis.thermal_maps import coolest_block, hottest_block
from ..campaign import ModelSpec
from ..floorplan import athlon_reference_power
from ..solver import steady_state
from ..units import ZERO_CELSIUS_IN_KELVIN
from .common import ATHLON_OIL_VELOCITY


@dataclass
class Fig04Result:
    """Per-block Athlon temperatures (Celsius) under OIL-SILICON."""

    block_temps_c: Dict[str, float]
    cell_map_c: np.ndarray  # (ny, nx) die temperature map

    @property
    def hottest(self):
        """(name, temp C) of the hottest block."""
        return hottest_block(self.block_temps_c)

    @property
    def coolest_active(self):
        """(name, temp C) of the coolest non-blank block."""
        return coolest_block(self.block_temps_c, exclude_prefixes=("blank",))


def run_fig04(nx: int = 32, ny: int = 32) -> Fig04Result:
    """Run the Fig. 4 Athlon steady-state experiment."""
    model = ModelSpec(
        chip="athlon", package="oil", nx=nx, ny=ny,
        velocity=ATHLON_OIL_VELOCITY, ambient_c=37.0,
    ).build()
    powers = athlon_reference_power()
    rise = steady_state(model.network, model.node_power(powers))
    temps_k = model.floorplan.power_dict(model.block_temperatures(rise))
    cell_map = (
        model.mapping.as_grid(model.silicon_cell_rise(rise))
        + model.config.ambient - ZERO_CELSIUS_IN_KELVIN
    )
    temps_c = {k: v - ZERO_CELSIUS_IN_KELVIN for k, v in temps_k.items()}
    return Fig04Result(block_temps_c=temps_c, cell_map_c=cell_map)
