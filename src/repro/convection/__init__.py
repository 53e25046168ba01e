"""Convective heat-transfer correlations and flow specifications.

Implements the paper's Equations 1-4 (overall laminar flat-plate
convection: ``Rconv``, ``h_L``, ``C_conv``, ``delta_t``) and Equations
7-8 (the position-dependent local coefficient ``h(x)`` that makes the
oil *flow direction* matter).
"""

from .correlations import (
    reynolds,
    average_heat_transfer_coefficient,
    local_heat_transfer_coefficient,
    thermal_boundary_layer_thickness,
    convection_resistance,
    convection_capacitance,
    LAMINAR_TRANSITION_REYNOLDS,
)
from .flow import FlowDirection, FlowSpec, local_h_field

__all__ = [
    "reynolds",
    "average_heat_transfer_coefficient",
    "local_heat_transfer_coefficient",
    "thermal_boundary_layer_thickness",
    "convection_resistance",
    "convection_capacitance",
    "LAMINAR_TRANSITION_REYNOLDS",
    "FlowDirection",
    "FlowSpec",
    "local_h_field",
]
