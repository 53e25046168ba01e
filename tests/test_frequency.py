"""Tests for the thermal frequency-response analysis."""

import numpy as np
import pytest

from repro.analysis import block_transfer_function, thermal_transfer_function
from repro.errors import SolverError
from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan, uniform_grid_floorplan
from repro.package import air_sink_package, oil_silicon_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel


def single_rc(r=2.0, c=3.0):
    builder = NetworkBuilder()
    node = builder.add_node(c)
    builder.to_ambient(node, 1.0 / r)
    return builder.build()


def test_single_rc_bode_matches_analytic():
    r, c = 2.0, 3.0
    net = single_rc(r, c)
    f_corner = 1.0 / (2 * np.pi * r * c)
    freqs = np.logspace(-4, 2, 60)
    response = thermal_transfer_function(
        net, np.array([1.0]), np.array([1.0]), freqs
    )
    # DC resistance and the -3 dB corner
    assert response.dc_resistance == pytest.approx(r, rel=1e-3)
    assert response.corner_frequency() == pytest.approx(f_corner, rel=0.05)
    # magnitude matches R / sqrt(1 + (w R C)^2) everywhere
    analytic = r / np.sqrt(1 + (2 * np.pi * freqs * r * c) ** 2)
    np.testing.assert_allclose(response.magnitude, analytic, rtol=1e-6)
    # phase approaches -90 degrees
    assert response.phase[-1] == pytest.approx(-np.pi / 2, abs=0.05)


def test_singular_system_raises_solver_error():
    """A floating node makes G singular at f = 0; the factorization
    failure surfaces as SolverError, not SuperLU's RuntimeError."""
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.add_node(1.0)  # floating: no connections, no ambient link
    builder.connect(a, b, 1.0)
    builder.to_ambient(a, 0.5)
    net = builder.build()
    with pytest.raises(SolverError, match="factorization failed"):
        thermal_transfer_function(net, np.ones(3), np.ones(3), [0.0])


def test_attenuation_metric():
    net = single_rc(1.0, 1.0)
    freqs = np.logspace(-3, 2, 40)
    response = thermal_transfer_function(
        net, np.array([1.0]), np.array([1.0]), freqs
    )
    assert response.attenuation_at(freqs[0]) == pytest.approx(1.0)
    assert response.attenuation_at(freqs[-1]) < 0.05


def test_validation():
    net = single_rc()
    with pytest.raises(SolverError):
        thermal_transfer_function(net, np.ones(2), np.ones(1), [1.0])
    with pytest.raises(SolverError):
        thermal_transfer_function(net, np.ones(1), np.ones(1), [])
    with pytest.raises(SolverError):
        thermal_transfer_function(net, np.ones(1), np.ones(1), [2.0, 1.0])


def test_oil_cuts_off_far_below_air():
    # the paper's two-orders-of-magnitude short-term constant gap,
    # seen as a corner-frequency gap in IntReg's self-heating response
    plan = ev6_floorplan()
    freqs = np.logspace(-2, 4, 40)
    corners = {}
    for tag, config in (
        ("oil", oil_silicon_package(
            plan.die_width, plan.die_height, uniform_h=True,
            target_resistance=1.0, include_secondary=False,
            ambient=celsius(45.0),
        )),
        ("air", air_sink_package(
            plan.die_width, plan.die_height, convection_resistance=1.0,
            ambient=celsius(45.0),
        )),
    ):
        model = ThermalGridModel(plan, config, nx=12, ny=12)
        response = block_transfer_function(model, "IntReg", freqs)
        corners[tag] = response.corner_frequency()
    assert corners["air"] > 5.0 * corners["oil"]


def test_air_passes_millisecond_activity_better():
    # at 100 Hz (10 ms activity), AIR-SINK retains a much larger
    # fraction of its DC response than OIL-SILICON: the mechanism
    # behind Fig. 12's "air tracks the phases, oil smooths them"
    plan = uniform_grid_floorplan(16e-3, 16e-3, prefix="die")
    freqs = np.logspace(-2, 3, 30)
    attenuation = {}
    for tag, config in (
        ("oil", oil_silicon_package(
            16e-3, 16e-3, uniform_h=True, target_resistance=1.0,
            include_secondary=False, ambient=celsius(45.0),
        )),
        ("air", air_sink_package(
            16e-3, 16e-3, convection_resistance=1.0,
            ambient=celsius(45.0),
        )),
    ):
        model = ThermalGridModel(plan, config, nx=8, ny=8)
        response = block_transfer_function(model, "die", freqs)
        attenuation[tag] = response.attenuation_at(100.0)
    assert attenuation["air"] > attenuation["oil"]


def test_block_model_transfer_function():
    from repro.rcmodel import ThermalBlockModel
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, uniform_h=True,
        include_secondary=False,
    )
    model = ThermalBlockModel(plan, config)
    freqs = np.logspace(-2, 2, 15)
    response = block_transfer_function(model, "IntReg", freqs)
    assert response.dc_resistance > 0
    assert np.all(np.diff(response.magnitude) <= 1e-12)  # monotone decay


def test_cross_block_coupling_weaker_than_self():
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, uniform_h=True,
        include_secondary=False,
    )
    model = ThermalGridModel(plan, config, nx=12, ny=12)
    freqs = [0.01]
    self_response = block_transfer_function(model, "IntReg", freqs)
    cross = block_transfer_function(
        model, "IntReg", freqs, observe_block="L2"
    )
    assert cross.dc_resistance < self_response.dc_resistance
