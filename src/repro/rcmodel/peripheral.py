"""Lumped peripheral rim nodes for package layers that overhang the die.

HotSpot's grid model resolves each layer only over the die footprint and
represents the overhang of the spreader, heatsink (and here also the
package substrate, solder array and PCB) with a small number of lumped
nodes.  We use four trapezoidal side nodes (north/south/east/west) per
annular ring; a layer overhung by several footprints gets one ring per
annulus (e.g. the heatsink: one ring under the spreader overhang, one
outside it).

All footprints are centered on the die center.  For an annulus between
inner footprint (w_in, h_in) and outer footprint (w_out, h_out), the
diagonal split gives:

* north/south trapezoid area: ``(w_out + w_in)/2 * (h_out - h_in)/2``
* east/west  trapezoid area: ``(h_out + h_in)/2 * (w_out - w_in)/2``

which sum to the full annulus area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ModelBuildError

#: Side keys in a fixed order (north, south, east, west).
SIDES: Tuple[str, str, str, str] = ("N", "S", "E", "W")


@dataclass(frozen=True)
class RingGeometry:
    """One annular ring of an extended layer."""

    inner_width: float
    inner_height: float
    outer_width: float
    outer_height: float

    def __post_init__(self) -> None:
        if (self.outer_width < self.inner_width - 1e-12
                or self.outer_height < self.inner_height - 1e-12):
            raise ModelBuildError("ring outer footprint smaller than inner")

    @property
    def band_x(self) -> float:
        """Overhang width on each of the east/west sides."""
        return (self.outer_width - self.inner_width) / 2.0

    @property
    def band_y(self) -> float:
        """Overhang width on each of the north/south sides."""
        return (self.outer_height - self.inner_height) / 2.0

    def side_area(self, side: str) -> float:
        """Area of one trapezoidal side node."""
        if side in ("N", "S"):
            return (self.outer_width + self.inner_width) / 2.0 * self.band_y
        if side in ("E", "W"):
            return (self.outer_height + self.inner_height) / 2.0 * self.band_x
        raise ModelBuildError(f"unknown side {side!r}")

    def side_band(self, side: str) -> float:
        """Radial extent of the ring on the given side."""
        return self.band_y if side in ("N", "S") else self.band_x

    def inner_edge_length(self, side: str) -> float:
        """Length of the boundary between this ring and the region inside."""
        return self.inner_width if side in ("N", "S") else self.inner_height

    @property
    def total_area(self) -> float:
        """Full annulus area."""
        return (self.outer_width * self.outer_height
                - self.inner_width * self.inner_height)


@dataclass
class RimRing:
    """A ring's geometry plus its four node indices in the network."""

    geometry: RingGeometry
    nodes: Dict[str, int]

    def node(self, side: str) -> int:
        """Network node index of one side."""
        return self.nodes[side]
