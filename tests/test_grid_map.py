"""Tests for block <-> grid overlap mapping."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.floorplan import GridMapping, ev6_floorplan, uniform_grid_floorplan
from repro.floorplan.block import Block, Floorplan


def test_cell_geometry():
    plan = uniform_grid_floorplan(16e-3, 8e-3)
    mapping = GridMapping(plan, nx=8, ny=4)
    assert mapping.dx == pytest.approx(2e-3)
    assert mapping.dy == pytest.approx(2e-3)
    assert mapping.n_cells == 32
    assert mapping.cell_coverage == pytest.approx(1.0)


def test_power_is_conserved_when_spread_to_cells():
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=17, ny=23)  # deliberately non-aligned
    power = np.linspace(0.5, 5.0, len(plan))
    cells = mapping.block_power_to_cells(power)
    assert cells.sum() == pytest.approx(power.sum())
    assert np.all(cells >= 0)


def test_block_average_of_constant_field_is_constant():
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=20, ny=20)
    field = np.full(mapping.n_cells, 7.5)
    np.testing.assert_allclose(
        mapping.cell_to_block_average(field), 7.5, rtol=1e-12
    )


def test_block_average_time_series_shape():
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=10, ny=10)
    series = np.random.default_rng(0).random((5, mapping.n_cells))
    out = mapping.cell_to_block_average(series)
    assert out.shape == (5, len(plan))
    np.testing.assert_allclose(
        out[2], mapping.cell_to_block_average(series[2])
    )


def test_power_round_trip_uniform_grid():
    # On an aligned grid, distributing then averaging a density is exact.
    plan = uniform_grid_floorplan(8e-3, 8e-3, nx=4, ny=4)
    mapping = GridMapping(plan, nx=8, ny=8)
    power = np.arange(1.0, 17.0)
    cells = mapping.block_power_to_cells(power)
    densities = cells / mapping.cell_area
    recovered = mapping.cell_to_block_average(densities)
    np.testing.assert_allclose(
        recovered, power / plan.areas(), rtol=1e-12
    )


def test_cell_index_and_centers():
    plan = uniform_grid_floorplan(10e-3, 10e-3)
    mapping = GridMapping(plan, nx=5, ny=5)
    xs, ys = mapping.cell_centers()
    idx = mapping.cell_index(xs[7], ys[7])
    assert idx == 7
    with pytest.raises(GeometryError):
        mapping.cell_index(11e-3, 5e-3)


def test_as_grid_orientation():
    plan = uniform_grid_floorplan(4e-3, 2e-3)
    mapping = GridMapping(plan, nx=4, ny=2)
    flat = np.arange(8.0)
    grid = mapping.as_grid(flat)
    assert grid.shape == (2, 4)
    assert grid[0, 0] == 0.0  # y = 0 row first
    assert grid[1, 3] == 7.0


def test_block_power_shape_validation():
    plan = ev6_floorplan()
    mapping = GridMapping(plan, nx=4, ny=4)
    with pytest.raises(ValueError):
        mapping.block_power_to_cells(np.ones(3))


def test_partial_coverage_reported():
    # A floorplan with a gap: one block covering half the die.
    half = Block("half", 5e-3, 10e-3, 0.0, 0.0)
    plan = Floorplan([half], die_width=10e-3, die_height=10e-3)
    mapping = GridMapping(plan, nx=4, ny=4)
    assert mapping.cell_coverage.mean() == pytest.approx(0.5)


@pytest.mark.parametrize("nx, ny", [(2.5, 4), (4, 2.0), (True, 4), (0, 4),
                                    (4, -1)])
def test_grid_counts_must_be_positive_integers(nx, ny):
    plan = uniform_grid_floorplan(16e-3, 8e-3)
    with pytest.raises(GeometryError, match="positive integer"):
        GridMapping(plan, nx, ny)


def test_grid_model_rejects_a_fractional_grid_count():
    from repro.package import air_sink_package
    from repro.rcmodel import ThermalGridModel

    plan = uniform_grid_floorplan(16e-3, 8e-3)
    config = air_sink_package(16e-3, 8e-3)
    with pytest.raises(GeometryError, match="nx must be a positive integer"):
        ThermalGridModel(plan, config, nx=2.5, ny=4)
    model = ThermalGridModel(plan, config, nx=np.int64(4), ny=2)
    assert (model.mapping.nx, model.mapping.ny) == (4, 2)
