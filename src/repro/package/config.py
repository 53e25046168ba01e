"""The CoolingConfig container: a full package description.

A configuration always has a **primary path** -- the die (bottom layer
of the stack) plus everything above it, terminated by a convective
boundary -- and optionally a **secondary path** below the die
(interconnect, C4, substrate, solder, PCB) terminated by its own
convective boundary, per the paper's Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError
from .layers import ConvectionBoundary, Layer


@dataclass(frozen=True)
class SecondaryPath:
    """The heat path through the package pins beneath the die.

    ``layers`` are ordered from the die downward (interconnect first,
    PCB last); ``boundary`` cools the underside of the last layer.
    """

    layers: Tuple[Layer, ...]
    boundary: ConvectionBoundary

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError("secondary path needs at least one layer")


@dataclass(frozen=True)
class CoolingConfig:
    """A complete cooling configuration for one die.

    Parameters
    ----------
    name:
        Human-readable configuration name (e.g. ``"AIR-SINK"``).
    die:
        The silicon die layer itself (thickness, material).
    layers_above:
        Package layers stacked on the die's back surface, ordered from
        the die upward (e.g. TIM, spreader, heatsink).  May be empty --
        the OIL-SILICON configuration has bare silicon.
    top_boundary:
        Convective cooling applied to the top of the stack.
    secondary:
        Optional secondary path beneath the die.
    ambient:
        Coolant free-stream / ambient temperature in Kelvin.
    """

    name: str
    die: Layer
    layers_above: Tuple[Layer, ...]
    top_boundary: ConvectionBoundary
    secondary: Optional[SecondaryPath] = None
    ambient: float = 318.15  # 45 C, HotSpot default

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("configuration name must be non-empty")
        if self.ambient <= 0:
            raise ConfigurationError("ambient must be a Kelvin temperature > 0")
        if self.die.footprint_width is not None:
            raise ConfigurationError("the die layer must use the die footprint")
        # Footprints may only grow (or stay equal) going up the stack:
        # a narrower layer on top of a wider one would leave the model
        # with dangling peripheral regions it cannot route heat through.
        previous_name = self.die.name
        previous_extends = False
        for layer in self.layers_above:
            extends = layer.footprint_width is not None
            if previous_extends and not extends:
                raise ConfigurationError(
                    f"layer {layer.name!r} (die footprint) cannot sit above "
                    f"extended layer {previous_name!r}"
                )
            previous_name, previous_extends = layer.name, extends

    @property
    def stack(self) -> Tuple[Layer, ...]:
        """All primary-path layers, die first."""
        return (self.die,) + tuple(self.layers_above)

    def without_secondary(self) -> "CoolingConfig":
        """A copy with the secondary heat path removed (Fig. 5 ablation)."""
        return CoolingConfig(
            name=f"{self.name} (no secondary)",
            die=self.die,
            layers_above=self.layers_above,
            top_boundary=self.top_boundary,
            secondary=None,
            ambient=self.ambient,
        )
