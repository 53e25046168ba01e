"""Tests for cooling-configuration descriptions."""

import ast
import pathlib

import pytest

from repro.convection.flow import FlowDirection, FlowSpec
from repro.errors import ConfigurationError
from repro.materials import COPPER, SILICON
from repro.package import (
    AirSinkGeometry,
    ConvectionBoundary,
    Layer,
    air_sink_package,
    default_secondary_path,
    oil_silicon_package,
)

DIE_W = DIE_H = 16e-3


class TestLayer:
    def test_die_footprint_default(self):
        layer = Layer("silicon", SILICON, 0.5e-3)
        assert layer.footprint(DIE_W, DIE_H) == (DIE_W, DIE_H)
        assert not layer.extends_beyond(DIE_W, DIE_H)

    def test_extended_footprint(self):
        layer = Layer("spreader", COPPER, 1e-3,
                      footprint_width=30e-3, footprint_height=30e-3)
        assert layer.extends_beyond(DIE_W, DIE_H)
        assert layer.footprint(DIE_W, DIE_H) == (30e-3, 30e-3)

    def test_footprint_smaller_than_die_rejected(self):
        layer = Layer("tiny", COPPER, 1e-3,
                      footprint_width=5e-3, footprint_height=5e-3)
        with pytest.raises(ConfigurationError):
            layer.footprint(DIE_W, DIE_H)

    def test_half_specified_footprint_rejected(self):
        with pytest.raises(ConfigurationError):
            Layer("x", COPPER, 1e-3, footprint_width=30e-3)

    def test_zero_thickness_rejected(self):
        with pytest.raises(ValueError):
            Layer("x", COPPER, 0.0)


class TestConvectionBoundary:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ConfigurationError):
            ConvectionBoundary()
        with pytest.raises(ConfigurationError):
            ConvectionBoundary(flow=FlowSpec(), total_resistance=1.0)

    def test_resistance_mode(self):
        boundary = ConvectionBoundary(
            total_resistance=0.5, total_capacitance=140.0
        )
        assert boundary.total_resistance == 0.5

    def test_negative_capacitance_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvectionBoundary(total_resistance=0.5, total_capacitance=-1.0)


class TestAirSink:
    def test_default_stack_order(self):
        config = air_sink_package(DIE_W, DIE_H)
        names = [layer.name for layer in config.stack]
        assert names == ["silicon", "interface", "spreader", "sink"]
        assert config.name == "AIR-SINK"
        assert config.secondary is None

    def test_sink_capacitance_ratio_matches_paper(self):
        # Section 4.1.2: sink capacitance ~250x the (validation die's)
        # silicon capacitance.
        geometry = AirSinkGeometry()
        c_sink = (COPPER.volumetric_heat * geometry.sink_size ** 2
                  * geometry.sink_thickness)
        c_si = SILICON.volumetric_heat * (20e-3) ** 2 * 0.5e-3
        assert c_sink / c_si == pytest.approx(250, rel=0.05)

    def test_spreader_must_cover_die(self):
        with pytest.raises(ConfigurationError):
            air_sink_package(40e-3, 40e-3)  # default spreader is 30 mm

    def test_sink_must_cover_spreader(self):
        with pytest.raises(ConfigurationError):
            AirSinkGeometry(spreader_size=70e-3)

    def test_secondary_opt_in(self):
        config = air_sink_package(DIE_W, DIE_H, include_secondary=True)
        assert config.secondary is not None
        # Normal chassis: natural convection, not an oil stream.
        assert config.secondary.boundary.total_resistance is not None


class TestOilSilicon:
    def test_bare_die(self):
        config = oil_silicon_package(DIE_W, DIE_H)
        assert config.layers_above == ()
        assert config.top_boundary.flow is not None
        assert config.name == "OIL-SILICON"

    def test_secondary_included_by_default_with_oil_cooling(self):
        config = oil_silicon_package(DIE_W, DIE_H)
        assert config.secondary is not None
        assert config.secondary.boundary.flow is not None

    def test_direction_and_target_resistance_plumbed(self):
        config = oil_silicon_package(
            DIE_W, DIE_H, direction=FlowDirection.TOP_TO_BOTTOM,
            target_resistance=0.3,
        )
        flow = config.top_boundary.flow
        assert flow.direction is FlowDirection.TOP_TO_BOTTOM
        assert flow.target_resistance == 0.3

    def test_without_secondary_copy(self):
        config = oil_silicon_package(DIE_W, DIE_H)
        bare = config.without_secondary()
        assert bare.secondary is None
        assert config.secondary is not None


class TestSecondaryPath:
    def test_layer_order_follows_fig1(self):
        path = default_secondary_path(DIE_W, DIE_H)
        names = [layer.name for layer in path.layers]
        assert names == [
            "interconnect", "c4_underfill", "substrate",
            "solder_balls", "pcb",
        ]

    def test_footprints_grow_monotonically(self):
        path = default_secondary_path(DIE_W, DIE_H)
        widths = [
            layer.footprint(DIE_W, DIE_H)[0] for layer in path.layers
        ]
        assert widths == sorted(widths)


def test_packages_are_built_only_through_model_specs():
    """An EV6 or Athlon model is a ``ModelSpec``: inside ``src/repro``
    only the package layer, the spec, the CLI's ``.flp`` path and the
    validation slabs of Figs. 2, 3 and 7 call the package builders."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    allowed = {"campaign/spec.py", "cli.py", "experiments/fig02.py",
               "experiments/fig03.py", "experiments/fig07.py"}
    builders = {"oil_silicon_package", "air_sink_package"}
    callers = set()
    for path in root.rglob("*.py"):
        module = path.relative_to(root).as_posix()
        if module.startswith("package/") or module in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in builders:
                    callers.add(f"{module}:{node.lineno}")
    assert not callers, f"build these models with ModelSpec: {sorted(callers)}"
