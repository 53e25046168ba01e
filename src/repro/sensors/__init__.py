"""On-die thermal sensors: models, placement, and error analysis."""

from .sensor import ThermalSensor, SensorArray
from .placement import (
    place_at_block,
    error_vs_offset,
    sensors_needed_for_error_bound,
)
from .calibration import calibration_bias_bound

__all__ = [
    "ThermalSensor",
    "SensorArray",
    "place_at_block",
    "error_vs_offset",
    "sensors_needed_for_error_bound",
    "calibration_bias_bound",
]
