"""Tests for peripheral rim-ring geometry."""

import pytest

from repro.errors import ModelBuildError
from repro.rcmodel.peripheral import SIDES, RingGeometry


def test_side_areas_sum_to_annulus():
    ring = RingGeometry(16e-3, 16e-3, 30e-3, 30e-3)
    total = sum(ring.side_area(side) for side in SIDES)
    assert total == pytest.approx(ring.total_area, rel=1e-12)
    assert ring.total_area == pytest.approx(30e-3**2 - 16e-3**2)


def test_rectangular_annulus_sides_differ():
    ring = RingGeometry(10e-3, 20e-3, 30e-3, 24e-3)
    # N/S trapezoids span the widths, E/W the heights
    assert ring.side_area("N") == pytest.approx(
        (30e-3 + 10e-3) / 2 * (24e-3 - 20e-3) / 2
    )
    assert ring.side_area("E") == pytest.approx(
        (24e-3 + 20e-3) / 2 * (30e-3 - 10e-3) / 2
    )
    total = sum(ring.side_area(side) for side in SIDES)
    assert total == pytest.approx(ring.total_area, rel=1e-12)


def test_bands_and_edges():
    ring = RingGeometry(16e-3, 16e-3, 30e-3, 30e-3)
    assert ring.band_x == pytest.approx(7e-3)
    assert ring.band_y == pytest.approx(7e-3)
    assert ring.side_band("N") == ring.band_y
    assert ring.side_band("E") == ring.band_x
    assert ring.inner_edge_length("N") == pytest.approx(16e-3)
    assert ring.inner_edge_length("W") == pytest.approx(16e-3)


def test_unknown_side_rejected():
    ring = RingGeometry(1e-3, 1e-3, 2e-3, 2e-3)
    with pytest.raises(ModelBuildError):
        ring.side_area("Q")


def test_shrinking_ring_rejected():
    with pytest.raises(ModelBuildError):
        RingGeometry(30e-3, 30e-3, 16e-3, 16e-3)


def test_degenerate_ring_has_zero_area():
    ring = RingGeometry(16e-3, 16e-3, 16e-3, 16e-3)
    assert ring.total_area == pytest.approx(0.0, abs=1e-18)
