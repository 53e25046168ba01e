"""Tests for the Fig. 7 circuit constants and Eqns 5-6."""

import pytest

from repro.rcmodel.circuits import (
    air_sink_long_term_time_constant,
    air_sink_short_term_time_constant,
    oil_silicon_time_constant,
    silicon_capacitance,
    silicon_vertical_resistance,
)

AREA = (20e-3) ** 2
THICKNESS = 0.5e-3


def test_papers_r_si_value():
    # Section 4.1.2 quotes R_th,Si = 0.0125 K/W for the validation die.
    assert silicon_vertical_resistance(AREA, THICKNESS) == pytest.approx(
        0.0125
    )


def test_papers_c_si_value():
    # 1.75e6 J/m^3K * 4e-4 m^2 * 5e-4 m = 0.35 J/K
    assert silicon_capacitance(AREA, THICKNESS) == pytest.approx(0.35, rel=0.01)


def test_eqn5_short_term_constant_is_milliseconds():
    tau = air_sink_short_term_time_constant(
        silicon_vertical_resistance(AREA, THICKNESS),
        silicon_capacitance(AREA, THICKNESS),
    )
    assert 1e-3 < tau < 10e-3  # paper: ~3-5 ms


def test_eqn6_oil_constant_is_order_a_second():
    tau = oil_silicon_time_constant(1.0, 0.35, 0.1)
    assert 0.3 < tau < 0.6  # paper Fig. 2: "on the order of a second"


def test_long_term_air_constant_is_much_longer():
    tau_long = air_sink_long_term_time_constant(1.0, 250 * 0.35)
    tau_oil = oil_silicon_time_constant(1.0, 0.35, 0.1)
    assert tau_long > 100 * tau_oil
