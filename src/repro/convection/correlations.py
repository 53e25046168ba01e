"""Laminar flat-plate convection correlations (paper Eqns 1-4, 8).

All correlations follow Cengel, *Heat and Mass Transfer* (the reference
the paper cites as [3]) for laminar forced flow over a smooth flat
isothermal plate:

* overall Nusselt:      ``Nu_L = 0.664 Re_L^0.5 Pr^(1/3)``   (Eqn 2)
* local Nusselt:        ``Nu_x = 0.332 Re_x^0.5 Pr^(1/3)``   (Eqn 8)
* thermal boundary layer thickness at the trailing edge:
  ``delta_t = 4.91 L / (Pr^(1/3) sqrt(Re_L))``               (Eqn 4)
* convection resistance ``Rconv = 1 / (h_L A)``              (Eqn 1)
* oil thermal capacitance ``C_conv = rho c_p A delta_t``      (Eqn 3)

Validity: laminar regime, ``Re_L`` below the transition Reynolds number
(5e5 for a smooth flat plate).  Exceeding it raises
:class:`~repro.errors.ConvectionError` rather than silently applying a
laminar formula to a turbulent flow.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvectionError
from ..materials import Fluid
from ..units import require_positive

#: Transition Reynolds number for flow over a smooth flat plate.
LAMINAR_TRANSITION_REYNOLDS = 5.0e5


def reynolds(velocity: float, length: float, fluid: Fluid) -> float:
    """Reynolds number ``Re = v L / nu`` at distance/length ``length``."""
    require_positive("velocity", velocity)
    require_positive("length", length)
    return velocity * length / fluid.kinematic_viscosity


def _check_laminar(re_l: float) -> None:
    if re_l > LAMINAR_TRANSITION_REYNOLDS:
        raise ConvectionError(
            f"Re_L = {re_l:.3g} exceeds the laminar transition "
            f"({LAMINAR_TRANSITION_REYNOLDS:.0e}); the laminar flat-plate "
            f"correlations do not apply"
        )


def average_heat_transfer_coefficient(
    velocity: float,
    length: float,
    fluid: Fluid,
) -> float:
    """Overall ``h_L`` over a plate of length ``length`` (paper Eqn 2).

    ``h_L = 0.664 (k / L) Re_L^0.5 Pr^(1/3)`` in W/(m^2 K).
    """
    re_l = reynolds(velocity, length, fluid)
    _check_laminar(re_l)
    return 0.664 * fluid.conductivity / length * np.sqrt(re_l) \
        * fluid.prandtl ** (1.0 / 3.0)


def local_heat_transfer_coefficient(
    velocity: float,
    x,
    fluid: Fluid,
    plate_length: float,
) -> np.ndarray:
    """Local ``h(x)`` at distance ``x`` from the leading edge (Eqn 8).

    ``h(x) = 0.332 (k / x) Re_x^0.5 Pr^(1/3)``.  ``x`` may be an array.
    ``h(x)`` formally diverges at the leading edge; the model always
    evaluates it at cell centers so ``x > 0``.  The plate length is used
    to check the laminar validity of the whole flow.
    """
    _check_laminar(reynolds(velocity, plate_length, fluid))
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ConvectionError("local h(x) requires x > 0 (cell centers)")
    re_x = velocity * x / fluid.kinematic_viscosity
    return 0.332 * fluid.conductivity / x * np.sqrt(re_x) \
        * fluid.prandtl ** (1.0 / 3.0)


def thermal_boundary_layer_thickness(
    velocity: float,
    length: float,
    fluid: Fluid,
) -> float:
    """Thermal boundary layer thickness ``delta_t`` at the trailing edge
    (paper Eqn 4): ``4.91 L / (Pr^(1/3) sqrt(Re_L))`` in meters.
    """
    re_l = reynolds(velocity, length, fluid)
    _check_laminar(re_l)
    return 4.91 * length / (fluid.prandtl ** (1.0 / 3.0) * np.sqrt(re_l))


def convection_resistance(
    velocity: float,
    length: float,
    area: float,
    fluid: Fluid,
) -> float:
    """Overall convection resistance ``Rconv = 1 / (h_L A)`` (Eqn 1), K/W."""
    require_positive("area", area)
    h_l = average_heat_transfer_coefficient(velocity, length, fluid)
    return 1.0 / (h_l * area)


def convection_capacitance(
    velocity: float,
    length: float,
    area: float,
    fluid: Fluid,
) -> float:
    """Effective oil thermal capacitance ``C = rho c_p A delta_t``
    (Eqn 3), J/K.
    """
    require_positive("area", area)
    delta_t = thermal_boundary_layer_thickness(velocity, length, fluid)
    return fluid.volumetric_heat * area * delta_t
