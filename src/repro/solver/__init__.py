"""Steady-state and transient solvers for thermal RC networks."""

from .backends import LINEAR_BACKEND, Factor, LinearBackend
from .steady import steady_state, steady_block_temperatures
from .transient import (
    TransientResult,
    transient_step_response,
    transient_simulate,
    TrapezoidalStepper,
    BackwardEulerStepper,
)
from .events import PiecewiseConstantSchedule, simulate_schedule
from .batched import (
    BatchScenario,
    BatchedTransientResult,
    batched_simulate_schedules,
    batched_transient_simulate,
)
from .coupled import (
    CoupledSteadyResult,
    steady_state_with_leakage,
)
from .adaptive import AdaptiveTransientSolver

__all__ = [
    "LINEAR_BACKEND",
    "Factor",
    "LinearBackend",
    "steady_state",
    "steady_block_temperatures",
    "TransientResult",
    "transient_step_response",
    "transient_simulate",
    "TrapezoidalStepper",
    "BackwardEulerStepper",
    "PiecewiseConstantSchedule",
    "simulate_schedule",
    "BatchScenario",
    "BatchedTransientResult",
    "batched_simulate_schedules",
    "batched_transient_simulate",
    "CoupledSteadyResult",
    "steady_state_with_leakage",
    "AdaptiveTransientSolver",
]
