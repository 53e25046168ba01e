"""Cooling configurations (thermal packages).

The paper compares two configurations for the same die (its Fig. 1 and
Section 3):

* :func:`air_sink_package` -- forced air over a copper heatsink attached
  through a copper spreader and a thermal interface layer (the normal
  high-performance package; HotSpot's default).
* :func:`oil_silicon_package` -- laminar IR-transparent oil flowing
  directly over the exposed back of the die (the IR-imaging setup),
  where the secondary heat transfer path through the package pins
  becomes significant and must be modelled.

Both produce a :class:`CoolingConfig` that the RC-model builder turns
into a sparse thermal network.
"""

from .layers import Layer, ConvectionBoundary
from .config import CoolingConfig, SecondaryPath
from .air_sink import air_sink_package, AirSinkGeometry
from .oil_silicon import oil_silicon_package
from .secondary import default_secondary_path
from .taxonomy import (
    natural_convection_package,
    water_cooled_package,
    microchannel_package,
    tec_assisted_oil_package,
    standard_package_menu,
)

__all__ = [
    "Layer",
    "ConvectionBoundary",
    "CoolingConfig",
    "SecondaryPath",
    "air_sink_package",
    "AirSinkGeometry",
    "oil_silicon_package",
    "default_secondary_path",
    "natural_convection_package",
    "water_cooled_package",
    "microchannel_package",
    "tec_assisted_oil_package",
    "standard_package_menu",
]
