"""On-die thermal sensors: models, placement, and error analysis."""

from .sensor import ThermalSensor, SensorArray
from .placement import (
    place_at_block,
    place_at_hotspot,
    placement_error,
    error_vs_offset,
    sensors_needed_for_error_bound,
    greedy_coverage_placement,
    multi_map_greedy_placement,
    evaluate_placement,
)
from .calibration import (
    CalibrationResult,
    calibrate_sensors,
    calibration_bias_bound,
)

__all__ = [
    "ThermalSensor",
    "SensorArray",
    "place_at_block",
    "place_at_hotspot",
    "placement_error",
    "error_vs_offset",
    "sensors_needed_for_error_bound",
    "greedy_coverage_placement",
    "multi_map_greedy_placement",
    "evaluate_placement",
    "CalibrationResult",
    "calibrate_sensors",
    "calibration_bias_bound",
]
