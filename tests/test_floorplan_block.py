"""Tests for Block and Floorplan containers."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.floorplan import Block, Floorplan


def make_pair():
    a = Block("a", 1.0e-3, 2.0e-3, 0.0, 0.0)
    b = Block("b", 1.0e-3, 2.0e-3, 1.0e-3, 0.0)
    return a, b


def test_block_geometry_properties():
    block = Block("x", 2e-3, 3e-3, 1e-3, 4e-3)
    assert block.area == pytest.approx(6e-6)
    assert block.x2 == pytest.approx(3e-3)
    assert block.y2 == pytest.approx(7e-3)
    assert block.center == (pytest.approx(2e-3), pytest.approx(5.5e-3))


def test_block_contains_half_open():
    block = Block("x", 1e-3, 1e-3, 0.0, 0.0)
    assert block.contains(0.0, 0.0)
    assert block.contains(0.5e-3, 0.999e-3)
    assert not block.contains(1e-3, 0.5e-3)  # right edge excluded
    assert not block.contains(0.5e-3, 1e-3)  # top edge excluded


def test_block_overlap_area():
    a = Block("a", 2e-3, 2e-3, 0.0, 0.0)
    b = Block("b", 2e-3, 2e-3, 1e-3, 1e-3)
    assert a.overlap_area(b) == pytest.approx(1e-6)
    c = Block("c", 1e-3, 1e-3, 5e-3, 5e-3)
    assert a.overlap_area(c) == 0.0


def test_block_validation():
    with pytest.raises(GeometryError):
        Block("", 1e-3, 1e-3, 0, 0)
    with pytest.raises(ValueError):
        Block("x", 0.0, 1e-3, 0, 0)
    with pytest.raises(GeometryError):
        Block("x", 1e-3, 1e-3, -1e-3, 0)


def test_floorplan_indexing_and_iteration():
    a, b = make_pair()
    plan = Floorplan([a, b])
    assert len(plan) == 2
    assert plan["a"] is a
    assert plan[1] is b
    assert plan.index_of("b") == 1
    assert "a" in plan and "z" not in plan
    assert [blk.name for blk in plan] == ["a", "b"]


def test_floorplan_rejects_duplicates():
    a, _ = make_pair()
    with pytest.raises(GeometryError):
        Floorplan([a, a])


def test_floorplan_die_defaults_to_bounding_box():
    a, b = make_pair()
    plan = Floorplan([a, b])
    assert plan.die_width == pytest.approx(2e-3)
    assert plan.die_height == pytest.approx(2e-3)
    assert plan.die_area == pytest.approx(4e-6)
    assert plan.coverage_fraction() == pytest.approx(1.0)


def test_floorplan_rejects_too_small_die():
    a, b = make_pair()
    with pytest.raises(GeometryError):
        Floorplan([a, b], die_width=1e-3, die_height=2e-3)


def test_power_vector_round_trip():
    a, b = make_pair()
    plan = Floorplan([a, b])
    vec = plan.power_vector({"b": 3.0})
    np.testing.assert_allclose(vec, [0.0, 3.0])
    assert plan.power_dict(vec) == {"a": 0.0, "b": 3.0}


def test_power_vector_rejects_unknown_names():
    a, b = make_pair()
    plan = Floorplan([a, b])
    with pytest.raises(KeyError):
        plan.power_vector({"nope": 1.0})


def test_power_dict_rejects_bad_shapes():
    a, b = make_pair()
    plan = Floorplan([a, b])
    with pytest.raises(ValueError):
        plan.power_dict([1.0, 2.0, 3.0])


def test_check_non_overlapping():
    a = Block("a", 2e-3, 2e-3, 0.0, 0.0)
    b = Block("b", 2e-3, 2e-3, 1e-3, 0.0)
    plan = Floorplan([a, b])
    with pytest.raises(GeometryError):
        plan.check_non_overlapping()


def test_scaled_floorplan():
    a, b = make_pair()
    plan = Floorplan([a, b])
    big = plan.scaled(2.0)
    assert big.die_width == pytest.approx(4e-3)
    assert big["b"].x == pytest.approx(2e-3)
    assert big["b"].area == pytest.approx(4 * b.area)
