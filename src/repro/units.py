"""Physical constants and unit helpers.

All internal computation is in SI units: meters, kilograms, seconds,
Watts, and Kelvin.  The paper reports most temperatures in degrees
Celsius, so conversion helpers are provided and used at the reporting
boundary only.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Machine-readable dimension table consumed by the static analyzer
#: (:mod:`repro.analysis.static`).  Maps the *symbols this module
#: exports* — constants and constructor functions — to the dimension of
#: the value they denote (for constants) or return (for functions).
#: Dimension strings use SI unit syntax: products with ``*``, quotients
#: with ``/``, powers with ``^``; ``1`` denotes a dimensionless value.
#: The analyzer parses these into base-unit exponent vectors, so derived
#: units (W, J, Pa, ...) and base-unit spellings of the same physical
#: dimension compare equal.
DIMENSIONS = {
    # constants
    "ZERO_CELSIUS_IN_KELVIN": "K",
    "DEFAULT_AMBIENT_KELVIN": "K",
    # constructors: the dimension of the *return value*.  ``degC`` is
    # the analyzer's pseudo-dimension for the Celsius scale — Kelvin
    # and Celsius differ by an offset, so mixing them is flagged like
    # any other dimension mismatch.
    "celsius_to_kelvin": "K",
    "kelvin_to_celsius": "degC",
    "mm": "m",
    "um": "m",
}

#: Dimensions of well-known attribute names used across the package
#: (material properties, network quantities).  The analyzer uses these
#: to infer the dimension of ``obj.<attr>`` expressions.
ATTRIBUTE_DIMENSIONS = {
    # repro.materials.Material / Fluid properties
    "conductivity": "W/(m*K)",
    "density": "kg/m^3",
    "specific_heat": "J/(kg*K)",
    "volumetric_heat": "J/(m^3*K)",
    "kinematic_viscosity": "m^2/s",
    "thermal_diffusivity": "m^2/s",
    "prandtl": "1",
    # thermal RC network quantities
    "capacitance": "J/K",
    "conductance": "W/K",
    "ambient_conductance": "W/K",
    # package / convection quantities
    "convection_resistance": "W^-1*K",
    "heat_transfer_coefficient": "W/(m^2*K)",
    "ambient": "K",
    "velocity": "m/s",
    "die_width": "m",
    "die_height": "m",
    "area": "m^2",
}

#: Prefix that :func:`guarded_by` attaches to its lock names inside
#: ``typing.Annotated`` metadata, so annotations survive as plain
#: strings at runtime while remaining recognizable to the analyzer.
GUARDED_PREFIX = "guarded:"


def guarded_by(*locks: str) -> str:
    """Declare that an attribute is protected by the named lock(s).

    Used inside ``typing.Annotated`` on a class-body attribute
    declaration to state its concurrency contract::

        class EventBuffer:
            _events: Annotated[List[Event], guarded_by("_lock")]

    At runtime this is just a tagged string; the static analyzer's
    lock-discipline rule (R12) verifies, whole-program, that every
    mutation of the attribute happens while at least one of the named
    locks is held (lexically via ``with self._lock:`` or via a caller
    that already holds it).  Plain reads are deliberately exempt — the
    codebase uses intentional lock-free fast reads (``Counter.value``).
    """
    return GUARDED_PREFIX + ",".join(locks)


#: Offset between the Kelvin and Celsius scales.
ZERO_CELSIUS_IN_KELVIN = 273.15

#: Ambient temperature HotSpot uses by default (45 C), also the ambient
#: the paper uses for the Fig. 12 experiments.
DEFAULT_AMBIENT_KELVIN = 45.0 + ZERO_CELSIUS_IN_KELVIN


def celsius_to_kelvin(temp_c: ArrayLike) -> ArrayLike:
    """Convert a temperature (scalar or array) from Celsius to Kelvin."""
    if isinstance(temp_c, np.ndarray):
        return np.asarray(temp_c, dtype=float) + ZERO_CELSIUS_IN_KELVIN
    return float(temp_c) + ZERO_CELSIUS_IN_KELVIN


def kelvin_to_celsius(temp_k: ArrayLike) -> ArrayLike:
    """Convert a temperature (scalar or array) from Kelvin to Celsius."""
    if isinstance(temp_k, np.ndarray):
        return np.asarray(temp_k, dtype=float) - ZERO_CELSIUS_IN_KELVIN
    return float(temp_k) - ZERO_CELSIUS_IN_KELVIN


def mm(value: float) -> float:
    """Express a length given in millimeters in meters."""
    return value * 1e-3


def um(value: float) -> float:
    """Express a length given in micrometers in meters."""
    return value * 1e-6


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive number.

    Returns the value so it can be used inline in constructors.  Raises
    :class:`ValueError` otherwise; these guards protect the thermal model
    from degenerate geometry that would produce NaNs deep inside sparse
    solves where the cause is hard to diagnose.
    """
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, non-negative number."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value
