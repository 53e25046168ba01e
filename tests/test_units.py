"""Tests for unit helpers and validation guards."""

import math

import pytest

from repro.units import (
    DEFAULT_AMBIENT_KELVIN,
    mm,
    require_fraction,
    require_non_negative,
    require_positive,
    um,
)


def test_default_ambient_is_45c():
    assert DEFAULT_AMBIENT_KELVIN == pytest.approx(318.15)


def test_length_helpers():
    assert mm(16.0) == pytest.approx(0.016)
    assert um(500.0) == pytest.approx(0.5e-3)


def test_require_positive_accepts_and_returns():
    assert require_positive("x", 2.5) == 2.5


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_require_positive_rejects(bad):
    with pytest.raises(ValueError):
        require_positive("x", bad)


def test_require_non_negative_accepts_zero():
    assert require_non_negative("x", 0.0) == 0.0
    with pytest.raises(ValueError):
        require_non_negative("x", -1e-9)


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
def test_require_fraction_accepts(value):
    assert require_fraction("f", value) == value


@pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
def test_require_fraction_rejects(bad):
    with pytest.raises(ValueError):
        require_fraction("f", bad)
