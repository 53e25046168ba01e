"""Tests for generated floorplans."""

import pytest

from repro.errors import GeometryError
from repro.floorplan import (
    multicore_floorplan,
    single_hot_block_floorplan,
    uniform_grid_floorplan,
)


def test_uniform_single_block():
    plan = uniform_grid_floorplan(20e-3, 20e-3, prefix="die")
    assert plan.names == ["die"]
    assert plan["die"].area == pytest.approx(4e-4)


def test_uniform_grid_tiles_exactly():
    plan = uniform_grid_floorplan(10e-3, 8e-3, nx=5, ny=4)
    assert len(plan) == 20
    plan.check_non_overlapping()
    assert plan.coverage_fraction() == pytest.approx(1.0)


def test_uniform_grid_rejects_bad_counts():
    with pytest.raises(GeometryError):
        uniform_grid_floorplan(1e-3, 1e-3, nx=0, ny=1)


def test_single_hot_block_centered_by_default():
    plan = single_hot_block_floorplan(20e-3, 20e-3, 2e-3, 2e-3)
    hot = plan["hot"]
    assert hot.center[0] == pytest.approx(10e-3)
    assert hot.center[1] == pytest.approx(10e-3)
    plan.check_non_overlapping()
    assert plan.coverage_fraction() == pytest.approx(1.0)


def test_single_hot_block_at_edge_skips_empty_strips():
    plan = single_hot_block_floorplan(
        10e-3, 10e-3, 2e-3, 2e-3, hot_x=0.0, hot_y=0.0
    )
    # bottom and left strips are empty, so only 3 blocks total
    assert len(plan) == 3
    assert plan.coverage_fraction() == pytest.approx(1.0)


def test_single_hot_block_rejects_oversized():
    with pytest.raises(GeometryError):
        single_hot_block_floorplan(1e-3, 1e-3, 2e-3, 2e-3)


def test_single_hot_block_rejects_out_of_bounds_placement():
    with pytest.raises(GeometryError):
        single_hot_block_floorplan(
            10e-3, 10e-3, 2e-3, 2e-3, hot_x=9.5e-3, hot_y=0.0
        )


def test_multicore_layout():
    plan = multicore_floorplan(4, 2, 3e-3, 3e-3)
    assert len(plan) == 8
    assert plan.die_width == pytest.approx(12e-3)
    assert plan.die_height == pytest.approx(6e-3)
    assert "core_3_1" in plan
