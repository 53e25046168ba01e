"""Tests for the blur-bias bound of IR-guided sensor calibration."""

import numpy as np
import pytest

from repro.floorplan import GridMapping, uniform_grid_floorplan
from repro.sensors import ThermalSensor, calibration_bias_bound


@pytest.fixture()
def mapping():
    plan = uniform_grid_floorplan(10e-3, 10e-3)
    return GridMapping(plan, nx=20, ny=20)


def test_zero_blur_bound_is_zero(mapping):
    field = np.linspace(0, 100, mapping.n_cells)
    sensor = ThermalSensor(x=5e-3, y=5e-3)
    assert calibration_bias_bound(mapping, field, sensor, 0.0) == 0.0


def test_bound_is_largest_at_a_steep_hot_spot(mapping):
    xs, ys = mapping.cell_centers()
    field = 60.0 + 30.0 * np.exp(
        -((xs - 5e-3) ** 2 + (ys - 5e-3) ** 2) / (2 * (1e-3) ** 2)
    )
    peak = ThermalSensor(x=5e-3, y=5e-3)
    flat = ThermalSensor(x=1e-3, y=1e-3)
    bound_peak = calibration_bias_bound(mapping, field, peak, 1e-3)
    bound_flat = calibration_bias_bound(mapping, field, flat, 1e-3)
    assert bound_peak > 3 * bound_flat
