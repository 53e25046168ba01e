"""Tests for the thermal sensor model and placement analysis."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan import GridMapping, ev6_floorplan, uniform_grid_floorplan
from repro.sensors import (
    SensorArray,
    ThermalSensor,
    error_vs_offset,
    place_at_block,
    sensors_needed_for_error_bound,
)


@pytest.fixture()
def mapping():
    plan = uniform_grid_floorplan(10e-3, 10e-3)
    return GridMapping(plan, nx=20, ny=20)


def gaussian_field(mapping, cx, cy, peak=100.0, sigma=1.5e-3):
    xs, ys = mapping.cell_centers()
    return peak * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))


class TestSensor:
    def test_reads_cell_value(self, mapping):
        field = gaussian_field(mapping, 5e-3, 5e-3)
        sensor = ThermalSensor(x=5e-3, y=5e-3)
        assert sensor.read_field(field, mapping) == pytest.approx(
            field.max(), rel=0.01
        )

    def test_offset_applied(self, mapping):
        field = np.full(mapping.n_cells, 50.0)
        sensor = ThermalSensor(x=1e-3, y=1e-3, offset=-2.0)
        assert sensor.read_field(field, mapping) == pytest.approx(48.0)

    def test_noise_deterministic_with_rng(self, mapping):
        field = np.full(mapping.n_cells, 50.0)
        sensor = ThermalSensor(x=1e-3, y=1e-3, noise_sigma=1.0)
        a = sensor.read_field(field, mapping, rng=np.random.default_rng(7))
        b = sensor.read_field(field, mapping, rng=np.random.default_rng(7))
        assert a == b and a != 50.0


class TestArray:
    def test_max_reading_and_error(self, mapping):
        field = gaussian_field(mapping, 5e-3, 5e-3)
        on_spot = SensorArray([ThermalSensor(5e-3, 5e-3)])
        off_spot = SensorArray([ThermalSensor(1e-3, 1e-3)])
        assert field.max() - on_spot.max_reading(field, mapping) < 1.0
        assert field.max() - off_spot.max_reading(field, mapping) > 50.0

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorArray([])


class TestPlacement:
    def test_place_at_block(self):
        plan = ev6_floorplan()
        sensor = place_at_block(plan, "IntReg")
        assert sensor.name == "IntReg"
        assert plan["IntReg"].contains(sensor.x, sensor.y)

    def test_error_vs_offset_monotone_for_gaussian(self, mapping):
        field = gaussian_field(mapping, 5e-3, 5e-3)
        offsets = np.array([0.5e-3, 1.5e-3, 3e-3])
        errors = error_vs_offset(mapping, field, offsets)
        assert errors[0] < errors[1] < errors[2]

    def test_steeper_field_bigger_error(self, mapping):
        # the Section 5.3 argument: same displacement, steeper map,
        # bigger sensor error
        steep = gaussian_field(mapping, 5e-3, 5e-3, sigma=1e-3)
        shallow = gaussian_field(mapping, 5e-3, 5e-3, sigma=3e-3)
        offsets = np.array([1.5e-3])
        assert error_vs_offset(mapping, steep, offsets)[0] > \
            error_vs_offset(mapping, shallow, offsets)[0]

    def test_sensors_needed_grows_with_steepness(self, mapping):
        steep = gaussian_field(mapping, 5e-3, 5e-3, sigma=1.5e-3)
        shallow = gaussian_field(mapping, 5e-3, 5e-3, sigma=6e-3)
        n_steep = sensors_needed_for_error_bound(mapping, steep, 20.0)
        n_shallow = sensors_needed_for_error_bound(mapping, shallow, 20.0)
        assert n_steep > n_shallow

    def test_sensors_needed_unreachable_raises(self, mapping):
        spike = np.zeros(mapping.n_cells)
        spike[0] = 1000.0
        with pytest.raises(ConfigurationError):
            sensors_needed_for_error_bound(
                mapping, spike, 0.001, spacing_grid=(1, 2)
            )
