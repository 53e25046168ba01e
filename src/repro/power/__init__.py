"""Power traces and synthetic power workloads."""

from .trace import PowerTrace
from .synthetic import (
    constant_power,
    step_power,
    pulse_train,
    power_handoff,
)

__all__ = [
    "PowerTrace",
    "constant_power",
    "step_power",
    "pulse_train",
    "power_handoff",
]
