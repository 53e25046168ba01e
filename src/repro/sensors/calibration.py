"""The blur-bias pitfall of IR-guided thermal sensor calibration.

Section 2.3 of the paper discusses using IR measurements "to guide the
thermal sensor placement and calibration" (Kursun & Cher): read the
on-die sensors and the camera simultaneously and take the per-sensor
discrepancy as the sensor's systematic offset.  Following the paper's
Section 5.3 observation, the camera's optical blur averages the
neighborhood of the sensor's location, so on the steep thermal maps the
oil bench produces, the IR "reference" under-reads near hot spots and
the calibration inherits a bias that grows with the local gradient.
This module bounds that bias.
"""

from __future__ import annotations

import numpy as np

from ..floorplan.grid_map import GridMapping
from .sensor import ThermalSensor


def calibration_bias_bound(
    mapping: GridMapping,
    cell_field: np.ndarray,
    sensor: ThermalSensor,
    blur_sigma: float,
) -> float:
    """Worst-case calibration bias from the camera's optical blur (K).

    A Gaussian PSF of width ``blur_sigma`` reads a weighted average of
    the sensor's neighborhood; the first-order bias is bounded by the
    blur's second moment times the local curvature, estimated here
    directly by blurring the map and differencing at the sensor cell.
    Steeper maps (OIL-SILICON) give larger bounds -- quantifying why
    calibrating against an oil-bench IR image is riskier near hot
    spots.
    """
    from ..ircamera import _gaussian_blur_2d

    if blur_sigma <= 0:
        return 0.0
    grid = mapping.as_grid(np.asarray(cell_field, dtype=float))
    blurred = _gaussian_blur_2d(
        grid, blur_sigma / mapping.dx, blur_sigma / mapping.dy
    )
    cell = sensor.cell_index(mapping)
    return float(abs(blurred.ravel()[cell]
                     - np.asarray(cell_field)[cell]))
