"""Tests for the Section 2.1 cooling-mechanism taxonomy, and for the
observability name registry (``repro.obs.taxonomy``)."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.taxonomy import METRIC_NAMES
from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan
from repro.package import (
    microchannel_package,
    natural_convection_package,
    oil_silicon_package,
    standard_package_menu,
    tec_assisted_oil_package,
    water_cooled_package,
)
from repro.rcmodel import ThermalGridModel
from repro.solver import steady_state

PLAN = ev6_floorplan()
W, H = PLAN.die_width, PLAN.die_height


def tmax_rise(config, powers=None, nx=12, ny=12):
    if powers is None:
        powers = {"Dcache": 10.0}
    model = ThermalGridModel(PLAN, config, nx=nx, ny=ny)
    rise = steady_state(model.network, model.node_power(powers))
    return float(model.block_rise(rise).max())


def test_natural_convection_is_much_hotter_than_forced_air():
    from repro.package import air_sink_package
    forced = air_sink_package(W, H, convection_resistance=1.0)
    natural = natural_convection_package(W, H)
    assert tmax_rise(natural) > 2.0 * tmax_rise(forced)


def test_water_over_bare_die_beats_oil():
    # water's conductivity and Prandtl make it a far better coolant at
    # the same (even lower) speed
    water = water_cooled_package(W, H, velocity=1.5,
                                 include_cold_plate=False)
    oil = oil_silicon_package(W, H, velocity=10.0, uniform_h=True)
    assert water.name == "WATER-SILICON"
    assert tmax_rise(water) < tmax_rise(oil)


def test_water_cold_plate_flattens_the_map():
    plate = water_cooled_package(W, H, include_cold_plate=True)
    bare = oil_silicon_package(W, H, uniform_h=True,
                               include_secondary=False)
    model_p = ThermalGridModel(PLAN, plate, nx=12, ny=12)
    model_b = ThermalGridModel(PLAN, bare, nx=12, ny=12)
    powers = {"IntReg": 3.0, "Dcache": 8.0}
    rp = model_p.block_rise(
        steady_state(model_p.network, model_p.node_power(powers))
    )
    rb = model_b.block_rise(
        steady_state(model_b.network, model_b.node_power(powers))
    )
    assert (rp.max() - rp.min()) < (rb.max() - rb.min())


def test_microchannel_is_the_strongest_cooler():
    micro = microchannel_package(W, H)
    oil = oil_silicon_package(W, H, uniform_h=True)
    assert tmax_rise(micro) < 0.5 * tmax_rise(oil)


def test_microchannel_resistance_scales_with_h():
    strong = microchannel_package(W, H, effective_h=1.0e5)
    weak = microchannel_package(W, H, effective_h=2.0e4)
    assert strong.top_boundary.total_resistance < \
        weak.top_boundary.total_resistance


def test_tec_reduces_resistance_and_time_constant():
    from repro.solver import transient_step_response
    plain = oil_silicon_package(W, H, uniform_h=True,
                                include_secondary=False)
    assisted = tec_assisted_oil_package(W, H, resistance_reduction=3.0,
                                        uniform_h=True,
                                        include_secondary=False)
    # steady: hot spot cooler (its local conduction share remains), and
    # the chip-average rise drops by exactly the resistance reduction
    assert tmax_rise(assisted) < 0.85 * tmax_rise(plain)
    avg = {}
    for tag, config in (("plain", plain), ("tec", assisted)):
        model = ThermalGridModel(PLAN, config, nx=8, ny=8)
        rise = steady_state(
            model.network, model.node_power({"Dcache": 10.0})
        )
        avg[tag] = model.silicon_cell_rise(rise).mean()
    assert avg["tec"] == pytest.approx(avg["plain"] / 3.0, rel=1e-3)
    # transient: shorter time constant (paper Section 5.1.1)
    taus = {}
    for tag, config in (("plain", plain), ("tec", assisted)):
        model = ThermalGridModel(PLAN, config, nx=8, ny=8)
        power = model.node_power(
            PLAN.power_vector({name: 1.0 for name in PLAN.names})
        )
        result = transient_step_response(
            model.network, power, t_end=2.0, dt=0.01,
            projector=model.block_rise,
        )
        avg = result.states.mean(axis=1)
        taus[tag] = result.times[int(np.argmax(avg >= 0.632 * avg[-1]))]
    assert taus["tec"] < 0.6 * taus["plain"]


def test_tec_requires_reduction_at_least_one():
    with pytest.raises(ConfigurationError):
        tec_assisted_oil_package(W, H, resistance_reduction=0.5)


def test_menu_contains_the_taxonomy():
    menu = standard_package_menu(W, H, ambient=celsius(45.0))
    assert set(menu) == {
        "AIR-SINK", "NATURAL", "OIL-SILICON", "OIL+TEC",
        "WATER-PLATE", "MICROCHANNEL",
    }
    for config in menu.values():
        assert config.ambient == pytest.approx(celsius(45.0))
        # every entry builds into a solvable model
        model = ThermalGridModel(PLAN, config, nx=6, ny=6)
        rise = steady_state(
            model.network, model.node_power({"IntReg": 1.0})
        )
        assert np.all(np.isfinite(rise))


# --- the observability name registry ----------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
REGISTRY = SRC / "obs" / "taxonomy.py"


def _src_trees():
    """(path, parsed module) for every ``src/repro`` module but the registry."""
    for path in sorted(SRC.rglob("*.py")):
        if path != REGISTRY:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_registered_name_is_emitted():
    """A registered metric name that no module spells out is dead
    taxonomy: nothing can ever emit it."""
    literals = set()
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    assert sorted(METRIC_NAMES - literals) == []


def test_every_emitted_name_is_registered():
    """A metric name that the registry does not know is a
    misspelling: it silently splits one time series in two.  An
    f-string name cannot be checked against the registry, so it fails
    too."""
    unknown = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) != "counter":
                continue
            name = node.args[0]
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                if name.value not in METRIC_NAMES:
                    unknown.append(f"{where} counter({name.value!r})")
            elif isinstance(name, ast.JoinedStr):
                unknown.append(f"{where} counter(f-string)")
    assert unknown == []
