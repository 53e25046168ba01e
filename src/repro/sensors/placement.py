"""Sensor placement at a block and placement-error analysis.

Section 5.3 of the paper argues that the steep gradients of OIL-SILICON
amplify the penalty of a misplaced sensor, so a die characterized under
oil appears to need more sensors (or larger guard margins) than the
same die under AIR-SINK.  These utilities quantify that effect.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..floorplan.block import Floorplan
from ..floorplan.grid_map import GridMapping
from .sensor import ThermalSensor


def place_at_block(floorplan: Floorplan, block: str) -> ThermalSensor:
    """A sensor at the named block's center."""
    x, y = floorplan[block].center
    return ThermalSensor(x=x, y=y, name=block)


def error_vs_offset(
    mapping: GridMapping,
    cell_field: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Mean sensor error as a function of displacement from the hot spot.

    For each offset distance d, averages the temperature deficit over
    the cells at (approximately) distance d from the hottest cell.
    Steeper maps (OIL-SILICON) produce steeper error curves -- the
    quantitative core of the Section 5.3 argument.
    """
    cell_field = np.asarray(cell_field, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    hottest = int(np.argmax(cell_field))
    xs, ys = mapping.cell_centers()
    distance = np.hypot(xs - xs[hottest], ys - ys[hottest])
    t_max = cell_field.max()
    bin_half_width = max(mapping.dx, mapping.dy)
    errors = np.empty_like(offsets)
    for i, d in enumerate(offsets):
        ring = np.abs(distance - d) <= bin_half_width
        if not np.any(ring):
            errors[i] = np.nan
            continue
        errors[i] = float(t_max - cell_field[ring].mean())
    return errors


def sensors_needed_for_error_bound(
    mapping: GridMapping,
    cell_field: np.ndarray,
    error_bound: float,
    max_sensors: int = 64,
    spacing_grid: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8),
    phase_offsets: int = 4,
) -> int:
    """Smallest regular sensor grid that bounds the hot-spot error.

    Tries k x k regular sensor grids in increasing k and returns the
    sensor count of the first one whose *worst-case* hot-spot
    underestimate -- over ``phase_offsets^2`` lateral shifts of the
    whole grid -- is at most ``error_bound`` K.  Evaluating the worst
    grid phase removes the alignment luck of any single placement, so
    the count reflects the map's gradients, which is the paper's
    Section 5.3 argument ("more on-chip temperature sensors are
    needed").  Raises ConfigurationError if no tried grid suffices.
    """
    if error_bound <= 0:
        raise ConfigurationError("error_bound must be positive")
    if phase_offsets < 1:
        raise ConfigurationError("phase_offsets must be >= 1")
    cell_field = np.asarray(cell_field, dtype=float)
    t_max = cell_field.max()
    width = mapping.floorplan.die_width
    height = mapping.floorplan.die_height
    for k in spacing_grid:
        if k * k > max_sensors:
            break
        pitch_x = width / k
        pitch_y = height / k
        worst_error = 0.0
        for px in range(phase_offsets):
            for py in range(phase_offsets):
                shift_x = (px + 0.5) / phase_offsets * pitch_x
                shift_y = (py + 0.5) / phase_offsets * pitch_y
                readings = []
                for i in range(k):
                    for j in range(k):
                        x = (i * pitch_x + shift_x) % width
                        y = (j * pitch_y + shift_y) % height
                        cell = mapping.cell_index(float(x), float(y))
                        readings.append(cell_field[cell])
                worst_error = max(worst_error, t_max - max(readings))
        if worst_error <= error_bound:
            return k * k
    raise ConfigurationError(
        f"no tried sensor grid meets the {error_bound} K bound"
    )
