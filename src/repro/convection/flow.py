"""Flow specifications and per-cell heat-transfer-coefficient fields.

A :class:`FlowSpec` describes the coolant stream over a surface: the
fluid, its free-stream velocity, and the flow direction across the die.
The paper studies the four axis-aligned directions of its Fig. 11 table
(left-to-right, right-to-left, bottom-to-top, top-to-bottom).

Two spatial modes are supported:

* **uniform** -- every surface cell gets the overall ``h_L`` of Eqn 2,
  so the summed convection resistance equals Eqn 1 exactly.  This is the
  mode used when the paper pins ``Rconv`` to a target value for a fair
  comparison (Sections 4.1, 5.1).
* **local** -- each cell gets ``h(x)`` of Eqn 8 evaluated at its
  distance from the leading edge, making upstream units better cooled
  than downstream ones (Fig. 11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..materials import MINERAL_OIL, Fluid
from ..units import require_positive
from .correlations import (
    average_heat_transfer_coefficient,
    local_heat_transfer_coefficient,
    thermal_boundary_layer_thickness,
)


class FlowDirection(enum.Enum):
    """Direction of the coolant stream across the die surface."""

    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"
    BOTTOM_TO_TOP = "bottom_to_top"
    TOP_TO_BOTTOM = "top_to_bottom"

    @property
    def horizontal(self) -> bool:
        """Whether the flow runs along the x axis."""
        return self in (FlowDirection.LEFT_TO_RIGHT, FlowDirection.RIGHT_TO_LEFT)


def _distance_from_leading_edge(
    direction: FlowDirection,
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    die_width: float,
    die_height: float,
) -> np.ndarray:
    if direction is FlowDirection.LEFT_TO_RIGHT:
        return cell_x
    if direction is FlowDirection.RIGHT_TO_LEFT:
        return die_width - cell_x
    if direction is FlowDirection.BOTTOM_TO_TOP:
        return cell_y
    return die_height - cell_y


@dataclass(frozen=True)
class FlowSpec:
    """A coolant stream over a rectangular surface.

    Parameters
    ----------
    fluid:
        The coolant (defaults to the IR-transparent mineral oil).
    velocity:
        Free-stream velocity in m/s.
    direction:
        Flow direction across the die.
    uniform:
        If True, ignore the spatial dependence of h and apply the
        overall ``h_L`` everywhere (see module docstring).
    target_resistance:
        Optional override: scale the h field so the overall convection
        resistance of the surface equals this value (K/W).  The spatial
        *shape* of h(x) is preserved.  This reproduces the paper's
        "Rconv artificially set to 0.3 K/W" comparisons without
        requiring an unphysical velocity.
    """

    fluid: Fluid = MINERAL_OIL
    velocity: float = 10.0
    direction: FlowDirection = FlowDirection.LEFT_TO_RIGHT
    uniform: bool = False
    target_resistance: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive("velocity", self.velocity)
        if self.target_resistance is not None:
            require_positive("target_resistance", self.target_resistance)

    def flow_length(self, die_width: float, die_height: float) -> float:
        """Plate length along the flow direction."""
        return die_width if self.direction.horizontal else die_height

    def overall_h(self, die_width: float, die_height: float) -> float:
        """Area-effective overall heat transfer coefficient (W/m^2 K)."""
        length = self.flow_length(die_width, die_height)
        area = die_width * die_height
        if self.target_resistance is not None:
            return 1.0 / (self.target_resistance * area)
        return average_heat_transfer_coefficient(
            self.velocity, length, self.fluid
        )

    def overall_resistance(self, die_width: float, die_height: float) -> float:
        """Overall ``Rconv`` of the surface (Eqn 1), K/W."""
        area = die_width * die_height
        return 1.0 / (self.overall_h(die_width, die_height) * area)

    def boundary_layer_thickness(
        self, die_width: float, die_height: float
    ) -> float:
        """Trailing-edge thermal boundary layer thickness (Eqn 4), m."""
        length = self.flow_length(die_width, die_height)
        return thermal_boundary_layer_thickness(self.velocity, length, self.fluid)

    def capacitance_per_area(
        self, die_width: float, die_height: float
    ) -> float:
        """Oil capacitance per unit surface area (Eqn 3 / A), J/(K m^2)."""
        delta_t = self.boundary_layer_thickness(die_width, die_height)
        return self.fluid.volumetric_heat * delta_t


def local_h_field(
    flow: FlowSpec,
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    die_width: float,
    die_height: float,
) -> np.ndarray:
    """Per-cell heat transfer coefficient field over the die surface.

    In uniform mode all cells get the overall coefficient.  In local mode
    each cell gets Eqn 8's ``h(x)`` at its distance from the leading
    edge; if a ``target_resistance`` is set, the whole field is scaled so
    the area-weighted mean matches the target overall ``h``.
    """
    cell_x = np.asarray(cell_x, dtype=float)
    cell_y = np.asarray(cell_y, dtype=float)
    if cell_x.shape != cell_y.shape:
        raise ConfigurationError("cell_x and cell_y must have the same shape")
    h_overall = flow.overall_h(die_width, die_height)
    if flow.uniform:
        return np.full(cell_x.shape, h_overall)

    length = flow.flow_length(die_width, die_height)
    distance = _distance_from_leading_edge(
        flow.direction, cell_x, cell_y, die_width, die_height
    )
    h_local = local_heat_transfer_coefficient(
        flow.velocity, distance, flow.fluid, plate_length=length
    )
    if flow.target_resistance is not None:
        # Preserve the h(x) profile shape, rescale to the requested
        # overall conductance (cells all have equal area here).
        h_local = h_local * (h_overall / h_local.mean())
    return h_local


# Convenient tuple of the four directions in the order of the paper's
# Fig. 11 table columns.
ALL_DIRECTIONS: Tuple[FlowDirection, ...] = (
    FlowDirection.LEFT_TO_RIGHT,
    FlowDirection.RIGHT_TO_LEFT,
    FlowDirection.BOTTOM_TO_TOP,
    FlowDirection.TOP_TO_BOTTOM,
)
