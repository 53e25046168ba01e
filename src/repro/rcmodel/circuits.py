"""Lumped equivalent thermal circuits of the paper's Fig. 7.

The paper explains the transient differences between the two packages
with two-node RC circuits:

* **AIR-SINK** (Fig. 7a): heat source -> R_Si -> (C_Si node) -> Rconv ->
  ambient, with the huge C_sink on the far side of R_conv.  Two widely
  separated time constants fall out:

  - short term (Eqn 5):  ``tau_short = R_Si * C_Si``  (the sink is so
    big that it looks like a fixed-temperature wall on ms time scales)
  - long term:           ``tau_long  = Rconv * C_sink``

* **OIL-SILICON** (Fig. 7b): the oil boundary layer's capacitance is
  tiny and R_Si << Rconv, so a single time constant dominates (Eqn 6):
  ``tau = Rconv * (C_Si + C_oil) ~= Rconv * C_Si``.

These analytic values are compared against the 63% rise times of the
full grid model's step responses in the Fig. 7 bench.
"""

from __future__ import annotations

from ..materials import Material, SILICON
from ..units import require_positive


def silicon_vertical_resistance(
    area: float,
    thickness: float,
    material: Material = SILICON,
) -> float:
    """Through-die conduction resistance ``t / (k A)`` in K/W.

    For the paper's 20 mm x 20 mm x 0.5 mm die this is the 0.0125 K/W
    quoted in Section 4.1.2.
    """
    require_positive("area", area)
    require_positive("thickness", thickness)
    return thickness / (material.conductivity * area)


def silicon_capacitance(
    area: float,
    thickness: float,
    material: Material = SILICON,
) -> float:
    """Die thermal capacitance ``rho c_p V`` in J/K."""
    require_positive("area", area)
    require_positive("thickness", thickness)
    return material.volumetric_heat * area * thickness


def air_sink_short_term_time_constant(
    silicon_resistance: float,
    silicon_cap: float,
) -> float:
    """Paper Eqn 5: ``tau_short,sink = R_th,Si * C_th,Si``."""
    return silicon_resistance * silicon_cap


def air_sink_long_term_time_constant(
    convection_resistance: float,
    sink_cap: float,
) -> float:
    """Long-term AIR-SINK constant: ``Rconv * C_sink`` (Section 4.1.2)."""
    return convection_resistance * sink_cap


def oil_silicon_time_constant(
    convection_resistance: float,
    silicon_cap: float,
    oil_cap: float = 0.0,
) -> float:
    """Paper Eqn 6: ``tau_all,oil = Rconv * (C_th,Si + C_th,oil)``."""
    return convection_resistance * (silicon_cap + oil_cap)
