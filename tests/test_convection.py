"""Tests for the convection correlations (paper Eqns 1-4, 7-8)."""

import numpy as np
import pytest

from repro.convection import (
    LAMINAR_TRANSITION_REYNOLDS,
    average_heat_transfer_coefficient,
    convection_capacitance,
    convection_resistance,
    local_heat_transfer_coefficient,
    reynolds,
    thermal_boundary_layer_thickness,
)
from repro.convection.flow import (
    ALL_DIRECTIONS,
    FlowDirection,
    FlowSpec,
    local_h_field,
)
from repro.errors import ConvectionError
from repro.materials import MINERAL_OIL, WATER

L = 20e-3
AREA = L * L
V = 10.0


def test_reynolds_definition():
    re = reynolds(V, L, MINERAL_OIL)
    assert re == pytest.approx(V * L / MINERAL_OIL.kinematic_viscosity)


def test_papers_validation_rconv_is_about_one():
    # Section 3.2: "The equivalent convection thermal resistance is
    # about 1.0 K/W" for 10 m/s oil over the 20 mm die.
    rconv = convection_resistance(V, L, AREA, MINERAL_OIL)
    assert 0.8 < rconv < 1.2


def test_boundary_layer_is_about_100um():
    # Section 4.1.2: "about 100 um thick for a 10 m/s oil flow".
    delta = thermal_boundary_layer_thickness(V, L, MINERAL_OIL)
    assert 50e-6 < delta < 250e-6


def test_oil_capacitance_smaller_than_silicon():
    # Section 4.1.2: the oil layer's capacitance is smaller than even
    # the silicon die's (~0.35 J/K for the validation die).
    c_oil = convection_capacitance(V, L, AREA, MINERAL_OIL)
    c_si = 1.75e6 * AREA * 0.5e-3
    assert c_oil < c_si


def test_average_h_follows_eqn2_scaling():
    # h_L ~ sqrt(v): doubling velocity raises h by sqrt(2).
    h1 = average_heat_transfer_coefficient(V, L, MINERAL_OIL)
    h2 = average_heat_transfer_coefficient(2 * V, L, MINERAL_OIL)
    assert h2 / h1 == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_local_h_integrates_to_average():
    # Eqn 8's 0.332 coefficient is exactly half Eqn 2's 0.664 because
    # the average of x^-0.5 over [0, L] is 2 L^-0.5.
    x = (np.arange(20000) + 0.5) * (L / 20000)
    h_local = local_heat_transfer_coefficient(V, x, MINERAL_OIL, L)
    h_avg = average_heat_transfer_coefficient(V, L, MINERAL_OIL)
    # midpoint quadrature slightly underestimates near the x^-1/2
    # singularity at the leading edge, hence the loose tolerance
    assert h_local.mean() == pytest.approx(h_avg, rel=5e-3)


def test_local_h_decreases_downstream():
    x = np.array([1e-3, 5e-3, 15e-3])
    h = local_heat_transfer_coefficient(V, x, MINERAL_OIL, L)
    assert h[0] > h[1] > h[2]


def test_local_h_rejects_leading_edge():
    with pytest.raises(ConvectionError):
        local_heat_transfer_coefficient(V, np.array([0.0]), MINERAL_OIL, L)


def test_turbulent_regime_rejected():
    # Water at high speed over a long plate exceeds Re = 5e5.
    assert reynolds(10.0, 0.1, WATER) > LAMINAR_TRANSITION_REYNOLDS
    with pytest.raises(ConvectionError):
        average_heat_transfer_coefficient(10.0, 0.1, WATER)


class TestFlowSpec:
    def test_overall_resistance_matches_correlation(self):
        flow = FlowSpec(velocity=V, uniform=True)
        assert flow.overall_resistance(L, L) == pytest.approx(
            convection_resistance(V, L, AREA, MINERAL_OIL)
        )

    def test_target_resistance_overrides(self):
        flow = FlowSpec(velocity=V, target_resistance=0.3)
        assert flow.overall_resistance(L, L) == pytest.approx(0.3)

    def test_flow_length_depends_on_direction(self):
        horizontal = FlowSpec(direction=FlowDirection.LEFT_TO_RIGHT)
        vertical = FlowSpec(direction=FlowDirection.TOP_TO_BOTTOM)
        assert horizontal.flow_length(2.0, 3.0) == 2.0
        assert vertical.flow_length(2.0, 3.0) == 3.0

    def test_uniform_field_is_constant(self):
        flow = FlowSpec(velocity=V, uniform=True)
        xs = np.linspace(1e-3, 19e-3, 7)
        ys = np.full(7, 10e-3)
        field = local_h_field(flow, xs, ys, L, L)
        assert np.allclose(field, field[0])

    def test_local_field_cools_leading_edge_best(self):
        xs = np.linspace(0.5e-3, 19.5e-3, 10)
        ys = np.full(10, 10e-3)
        for direction, increasing in [
            (FlowDirection.LEFT_TO_RIGHT, False),
            (FlowDirection.RIGHT_TO_LEFT, True),
        ]:
            flow = FlowSpec(velocity=V, direction=direction)
            field = local_h_field(flow, xs, ys, L, L)
            diffs = np.diff(field)
            assert np.all(diffs > 0) if increasing else np.all(diffs < 0)

    def test_scaled_local_field_hits_target_mean(self):
        flow = FlowSpec(
            velocity=V, direction=FlowDirection.BOTTOM_TO_TOP,
            target_resistance=0.5,
        )
        n = 64
        xs = np.tile((np.arange(n) + 0.5) * L / n, n)
        ys = np.repeat((np.arange(n) + 0.5) * L / n, n)
        field = local_h_field(flow, xs, ys, L, L)
        # equal-area cells: total conductance = mean(h) * A = 1/0.5
        assert field.mean() * AREA == pytest.approx(2.0, rel=1e-6)

    def test_all_four_directions_enumerated(self):
        assert len(ALL_DIRECTIONS) == 4
        assert len({d for d in ALL_DIRECTIONS}) == 4
