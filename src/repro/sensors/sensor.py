"""On-die thermal sensor model.

A sensor reads the die's active-layer temperature at a fixed point,
with optional calibration offset and Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..floorplan.grid_map import GridMapping
from ..units import require_non_negative


@dataclass(frozen=True)
class ThermalSensor:
    """One point temperature sensor on the die.

    Parameters
    ----------
    x, y:
        Sensor location on the die, meters.
    offset:
        Systematic calibration offset added to every reading, K.
    noise_sigma:
        Standard deviation of per-reading Gaussian noise, K.
    name:
        Optional label (e.g. the block the sensor was placed for).
    """

    x: float
    y: float
    offset: float = 0.0
    noise_sigma: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        require_non_negative("noise_sigma", self.noise_sigma)

    def cell_index(self, mapping: GridMapping) -> int:
        """Grid cell the sensor sits in."""
        return mapping.cell_index(self.x, self.y)

    def read_field(
        self, field: np.ndarray, mapping: GridMapping,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """One instantaneous reading from a cell temperature field."""
        value = float(np.asarray(field)[self.cell_index(mapping)]) + self.offset
        if self.noise_sigma > 0:
            rng = rng or np.random.default_rng()
            value += float(rng.normal(0.0, self.noise_sigma))
        return value


class SensorArray:
    """A set of sensors read together (deterministic given a seed)."""

    def __init__(self, sensors: Sequence[ThermalSensor], seed: int = 0) -> None:
        if not sensors:
            raise ConfigurationError("a sensor array needs at least one sensor")
        self.sensors: Tuple[ThermalSensor, ...] = tuple(sensors)
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self.sensors)

    def read_field(self, field: np.ndarray, mapping: GridMapping) -> np.ndarray:
        """One reading per sensor from a cell field."""
        return np.array([
            s.read_field(field, mapping, rng=self._rng) for s in self.sensors
        ])

    def max_reading(self, field: np.ndarray, mapping: GridMapping) -> float:
        """The hottest reported temperature (what DTM triggers on)."""
        return float(self.read_field(field, mapping).max())
