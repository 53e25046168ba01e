"""Physical constants and unit helpers.

All internal computation is in SI units: meters, kilograms, seconds,
Watts, and Kelvin.  The paper reports most temperatures in degrees
Celsius; results convert with :data:`ZERO_CELSIUS_IN_KELVIN` at the
reporting boundary only.
"""

from __future__ import annotations

import math
import numbers

#: Offset between the Kelvin and Celsius scales.
ZERO_CELSIUS_IN_KELVIN = 273.15

#: Ambient temperature HotSpot uses by default (45 C), also the ambient
#: the paper uses for the Fig. 12 experiments.
DEFAULT_AMBIENT_KELVIN = 45.0 + ZERO_CELSIUS_IN_KELVIN


def mm(value: float) -> float:
    """Express a length given in millimeters in meters."""
    return value * 1e-3


def um(value: float) -> float:
    """Express a length given in micrometers in meters."""
    return value * 1e-6


def is_count(value: object) -> bool:
    """Whether ``value`` is a positive integer (a float or bool is not)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 1)


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
