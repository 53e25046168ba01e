"""Fig. 5 -- ablation of the secondary heat transfer path.

Paper claims:

* (a) Under OIL-SILICON, omitting the secondary path overpredicts
  temperatures significantly (over 10 C for the Athlon), because a
  large share of the heat leaves through the package pins when the
  primary path is just oil over bare silicon.
* (b) Under AIR-SINK, adding the secondary path changes block
  temperatures by less than 1% -- essentially all heat already leaves
  through the low-resistance heatsink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..campaign import ModelSpec
from ..floorplan import athlon_reference_power
from ..solver import steady_block_temperatures
from ..units import ZERO_CELSIUS_IN_KELVIN
from .common import ATHLON_OIL_VELOCITY


@dataclass
class Fig05Result:
    """Per-block temperatures (C) for the four configurations."""

    oil_with_secondary: Dict[str, float]
    oil_without_secondary: Dict[str, float]
    air_with_secondary: Dict[str, float]
    air_without_secondary: Dict[str, float]

    @property
    def oil_max_error_c(self) -> float:
        """Largest per-block overprediction from dropping the secondary
        path under oil, in Celsius (paper: > 10 C)."""
        return max(
            self.oil_without_secondary[name] - self.oil_with_secondary[name]
            for name in self.oil_with_secondary
        )


def run_fig05(nx: int = 32, ny: int = 32) -> Fig05Result:
    """Run the Fig. 5 secondary-path ablation on the Athlon."""
    powers = athlon_reference_power()

    def temps(package: str, include_secondary: bool) -> Dict[str, float]:
        model = ModelSpec(
            chip="athlon", package=package, nx=nx, ny=ny,
            velocity=ATHLON_OIL_VELOCITY, ambient_c=37.0,
            include_secondary=include_secondary,
        ).build()
        kelvin = steady_block_temperatures(model, powers)
        return {k: v - ZERO_CELSIUS_IN_KELVIN for k, v in kelvin.items()}

    return Fig05Result(
        oil_with_secondary=temps("oil", True),
        oil_without_secondary=temps("oil", False),
        air_with_secondary=temps("air", True),
        air_without_secondary=temps("air", False),
    )
