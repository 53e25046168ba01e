"""Tests for the material property database."""

import pytest

from repro.materials import (
    AIR,
    COPPER,
    FLUIDS,
    MATERIALS,
    MINERAL_OIL,
    SILICON,
    Fluid,
    Material,
)


def test_silicon_matches_hotspot_defaults():
    # HotSpot uses k = 100 W/mK and volumetric heat 1.75e6 J/m^3K.
    assert SILICON.conductivity == pytest.approx(100.0)
    assert SILICON.volumetric_heat == pytest.approx(1.75e6, rel=0.01)


def test_copper_matches_hotspot_defaults():
    assert COPPER.conductivity == pytest.approx(400.0)
    assert COPPER.volumetric_heat == pytest.approx(3.55e6, rel=0.01)


def test_mineral_oil_prandtl_is_large():
    # Light mineral oils have Pr in the hundreds; the oil-flow
    # correlations rely on Pr >> 1.
    assert 100 < MINERAL_OIL.prandtl < 1000


def test_mineral_oil_conducts_far_worse_than_silicon():
    # The paper's whole steady-state story rests on this contrast.
    assert MINERAL_OIL.conductivity < SILICON.conductivity / 100


def test_air_properties_sane():
    assert AIR.prandtl == pytest.approx(0.7, rel=0.2)


def test_material_rejects_nonpositive_properties():
    with pytest.raises(ValueError):
        Material("bad", conductivity=-1.0, density=1.0, specific_heat=1.0)
    with pytest.raises(ValueError):
        Fluid("bad", 1.0, 1.0, 1.0, kinematic_viscosity=0.0)


def test_registries_are_keyed_by_name():
    assert MATERIALS["silicon"] is SILICON
    assert FLUIDS["mineral_oil"] is MINERAL_OIL
    for name, material in MATERIALS.items():
        assert material.name == name


def test_thermal_diffusivity_definition():
    alpha = SILICON.conductivity / SILICON.volumetric_heat
    # silicon alpha ~ 6e-5 m^2/s
    assert alpha == pytest.approx(5.7e-5, rel=0.05)
