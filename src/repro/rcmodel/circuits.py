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

These analytic values are compared against time constants fitted from
the full grid model's step responses in the Fig. 7 bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..materials import Material, SILICON
from ..units import require_positive


@dataclass(frozen=True)
class LumpedRC:
    """A series two-node RC ladder driven by a heat source.

    ``r1/c1`` is the inner (silicon) node, ``r2/c2`` the outer
    (package/coolant) node; ``r2`` ends at ambient.
    """

    r1: float
    c1: float
    r2: float
    c2: float

    def __post_init__(self) -> None:
        require_positive("r1", self.r1)
        require_positive("c1", self.c1)
        require_positive("r2", self.r2)
        require_positive("c2", self.c2)

    def time_constants(self) -> Tuple[float, float]:
        """Exact (fast, slow) time constants of the two-node ladder.

        Solves the 2x2 eigenproblem of ``C dT/dt = -G T``; returns
        ``(tau_fast, tau_slow)`` in seconds.
        """
        g1 = 1.0 / self.r1
        g2 = 1.0 / self.r2
        conductance = np.array([[g1, -g1], [-g1, g1 + g2]])
        capacitance = np.diag([self.c1, self.c2])
        rates = np.linalg.eigvals(np.linalg.solve(capacitance, conductance))
        rates = np.sort(np.real(rates))
        taus = 1.0 / rates[::-1]  # fastest rate -> shortest tau first
        return float(taus[0]), float(taus[1])

    def step_response(self, power: float, times: np.ndarray) -> np.ndarray:
        """Inner-node temperature rise for a power step at t = 0."""
        g1 = 1.0 / self.r1
        g2 = 1.0 / self.r2
        conductance = np.array([[g1, -g1], [-g1, g1 + g2]])
        capacitance = np.diag([self.c1, self.c2])
        a = np.linalg.solve(capacitance, conductance)
        p = np.array([power / self.c1, 0.0])
        steady = np.linalg.solve(a, p)
        eigvals, eigvecs = np.linalg.eig(a)
        coeffs = np.linalg.solve(eigvecs, -steady)
        times = np.asarray(times, dtype=float)
        modes = eigvecs @ (coeffs[:, None] * np.exp(-eigvals[:, None] * times))
        return np.real(steady[0] + modes[0])


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
