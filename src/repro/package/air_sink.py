"""The AIR-SINK configuration: forced air over a copper heatsink.

This is HotSpot's default package and the paper's baseline: silicon die,
thermal interface material, copper heat spreader, copper heatsink, and a
fan providing an impinging air flow.  Following both HotSpot and the
paper, the air side is modelled as a lumped convection resistance
``Rconv`` (uniform over the sink surface -- Section 4.2 argues the
impinging fan flow and copper's spreading make direction effects
negligible for AIR-SINK) plus a lumped coolant capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..materials import COPPER, SILICON, THERMAL_INTERFACE
from ..units import (
    DEFAULT_AMBIENT_KELVIN,
    mm,
    require_positive,
    um,
)
from .config import CoolingConfig, SecondaryPath
from .layers import ConvectionBoundary, Layer
from .secondary import default_secondary_path


@dataclass(frozen=True)
class AirSinkGeometry:
    """Dimensions of the spreader and heatsink (HotSpot defaults).

    The sink thickness is the HotSpot "equivalent slab" that matches the
    mass (hence thermal capacitance) of base plus fins; with these
    defaults the sink's capacitance is roughly 250x the capacitance of a
    20 mm x 20 mm x 0.5 mm die, the ratio the paper quotes in
    Section 4.1.2.
    """

    spreader_size: float = mm(30.0)
    spreader_thickness: float = mm(1.0)
    sink_size: float = mm(60.0)
    sink_thickness: float = mm(6.9)
    interface_thickness: float = um(20.0)  # HotSpot's default TIM

    def __post_init__(self) -> None:
        require_positive("spreader_size", self.spreader_size)
        require_positive("spreader_thickness", self.spreader_thickness)
        require_positive("sink_size", self.sink_size)
        require_positive("sink_thickness", self.sink_thickness)
        require_positive("interface_thickness", self.interface_thickness)
        if self.sink_size < self.spreader_size:
            raise ConfigurationError("heatsink smaller than spreader")


#: HotSpot's default lumped convection capacitance for the fan+air side.
DEFAULT_CONVECTION_CAPACITANCE = 140.4


def air_sink_package(
    die_width: float,
    die_height: float,
    convection_resistance: float = 1.0,
    die_thickness: float = um(500.0),
    geometry: Optional[AirSinkGeometry] = None,
    convection_capacitance: float = DEFAULT_CONVECTION_CAPACITANCE,
    include_secondary: bool = False,
    ambient: float = DEFAULT_AMBIENT_KELVIN,
) -> CoolingConfig:
    """Build the AIR-SINK cooling configuration.

    Parameters
    ----------
    die_width, die_height:
        Die footprint in meters.
    convection_resistance:
        Overall sink-to-air convection resistance ``Rconv`` in K/W
        (the paper uses 1.0 for Fig. 6 and 0.3 for Fig. 12).
    die_thickness:
        Silicon thickness (0.5 mm in the paper's validation die).
    geometry:
        Spreader/sink dimensions; defaults to HotSpot's.
    convection_capacitance:
        Lumped air-side capacitance at the sink surface, J/K.
    include_secondary:
        Model the board path too.  The paper's Fig. 5(b) shows it
        changes AIR-SINK results by under 1%, so it defaults to off;
        turn it on to reproduce that ablation.
    ambient:
        Ambient air temperature in Kelvin.
    """
    geometry = geometry or AirSinkGeometry()
    if geometry.spreader_size + 1e-12 < max(die_width, die_height):
        raise ConfigurationError("spreader smaller than the die")
    die = Layer("silicon", SILICON, thickness=die_thickness)
    layers_above = (
        Layer("interface", THERMAL_INTERFACE,
              thickness=geometry.interface_thickness),
        Layer(
            "spreader",
            COPPER,
            thickness=geometry.spreader_thickness,
            footprint_width=geometry.spreader_size,
            footprint_height=geometry.spreader_size,
        ),
        Layer(
            "sink",
            COPPER,
            thickness=geometry.sink_thickness,
            footprint_width=geometry.sink_size,
            footprint_height=geometry.sink_size,
        ),
    )
    boundary = ConvectionBoundary(
        total_resistance=convection_resistance,
        total_capacitance=convection_capacitance,
    )
    secondary: Optional[SecondaryPath] = None
    if include_secondary:
        secondary = default_secondary_path(die_width, die_height, oil_flow=None)
    return CoolingConfig(
        name="AIR-SINK",
        die=die,
        layers_above=layers_above,
        top_boundary=boundary,
        secondary=secondary,
        ambient=ambient,
    )
