"""Piecewise-constant power schedules for transient experiments.

The paper's transient workloads are piecewise constant: a 6 s step on
one block (Fig. 6), a 15 ms-on / 85 ms-off pulse train (Fig. 8), a
power hand-off between IntReg and FPMap at 10 ms (Fig. 9), and the
10 kcycle-sampled simulator traces of Fig. 12.  This module provides a
schedule container plus an integrator that steps through the segments
with a single reused factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import PowerTraceError, SolverError
from ..rcmodel.network import ThermalNetwork
from .transient import TransientResult, _STEPPERS


@dataclass(frozen=True)
class PiecewiseConstantSchedule:
    """A node-power schedule: power vector i applies on [t_i, t_{i+1}).

    ``boundaries`` has one more entry than ``powers`` and must start at
    0.  After the last boundary the final power persists.
    """

    boundaries: Tuple[float, ...]
    powers: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.powers) + 1:
            raise PowerTraceError(
                "need len(boundaries) == len(powers) + 1 "
                f"(got {len(self.boundaries)} and {len(self.powers)})"
            )
        if abs(self.boundaries[0]) > 1e-15:
            raise PowerTraceError("schedule must start at t = 0")
        diffs = np.diff(self.boundaries)
        if np.any(diffs <= 0):
            raise PowerTraceError("boundaries must be strictly increasing")
        shape = np.shape(self.powers[0]) if self.powers else None
        for index, power in enumerate(self.powers):
            if np.ndim(power) != 1 or np.shape(power) != shape:
                raise PowerTraceError(
                    f"power {index} has shape {np.shape(power)}; every "
                    f"power must be 1-D with the shape of power 0, {shape}"
                )
            if not np.isfinite(power).all():
                raise PowerTraceError(
                    f"power {index} contains non-finite values (NaN/Inf)"
                )

    @classmethod
    def from_segments(
        cls, segments: Sequence[Tuple[float, np.ndarray]]
    ) -> "PiecewiseConstantSchedule":
        """Build from (duration, power_vector) pairs."""
        if not segments:
            raise PowerTraceError("schedule needs at least one segment")
        boundaries = [0.0]
        powers: List[np.ndarray] = []
        for duration, power in segments:
            if duration <= 0:
                raise PowerTraceError("segment durations must be positive")
            boundaries.append(boundaries[-1] + float(duration))
            powers.append(np.asarray(power, dtype=float))
        return cls(tuple(boundaries), tuple(powers))

    @property
    def t_end(self) -> float:
        """End of the defined schedule, seconds."""
        return self.boundaries[-1]

    def power_at(self, time: float) -> np.ndarray:
        """Power vector in effect at ``time``."""
        index = int(np.searchsorted(self.boundaries, time, side="right")) - 1
        index = min(max(index, 0), len(self.powers) - 1)
        return self.powers[index]

    def repeated(self, cycles: int) -> "PiecewiseConstantSchedule":
        """The schedule repeated ``cycles`` times back to back."""
        if cycles < 1:
            raise PowerTraceError("cycles must be >= 1")
        period = self.t_end
        boundaries = [0.0]
        powers: List[np.ndarray] = []
        for cycle in range(cycles):
            offset = cycle * period
            for i, power in enumerate(self.powers):
                boundaries.append(offset + self.boundaries[i + 1])
                powers.append(power)
        return PiecewiseConstantSchedule(tuple(boundaries), tuple(powers))

    def time_average(self) -> np.ndarray:
        """Duration-weighted average power vector over the schedule.

        The paper uses exactly this to pick the initial condition for
        the Fig. 8 oscillation study: solve the steady state under the
        average power of the periodic trace.
        """
        durations = np.diff(self.boundaries)
        stacked = np.vstack(self.powers)
        return (durations[:, None] * stacked).sum(axis=0) / durations.sum()


def simulate_schedule(
    network: ThermalNetwork,
    schedule: PiecewiseConstantSchedule,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    backend: Optional[str] = None,
) -> TransientResult:
    """Integrate through a piecewise-constant schedule.

    Each segment is stepped with the shared factorized stepper; segment
    boundaries are always hit exactly (the last step of a segment is
    shortened if needed by inserting a dedicated small-step stepper, but
    in practice experiments choose ``dt`` dividing segment lengths).
    """
    try:
        stepper_cls = _STEPPERS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; pick from {sorted(_STEPPERS)}"
        ) from None
    if schedule.powers and len(schedule.powers[0]) != network.n_nodes:
        raise SolverError(
            f"schedule powers have {len(schedule.powers[0])} nodes, "
            f"expected {network.n_nodes}"
        )
    x = np.zeros(network.n_nodes) if x0 is None else np.asarray(x0, float).copy()
    if x.shape != (network.n_nodes,):
        raise SolverError(f"x0 has shape {x.shape}, expected ({network.n_nodes},)")
    if not np.all(np.isfinite(x)):
        raise SolverError("x0 contains non-finite values (NaN/Inf)")
    stepper = stepper_cls(network, dt, backend=backend)
    short_steppers = {}

    def observe(state: np.ndarray) -> np.ndarray:
        return projector(state) if projector is not None else state.copy()

    times: List[float] = [0.0]
    records: List[np.ndarray] = [observe(x)]
    now = 0.0
    step_counter = 0
    with obs.span("solver.transient.schedule", method=method, dt=dt,
                  n_segments=len(schedule.powers), n_nodes=network.n_nodes):
        for seg_index, power in enumerate(schedule.powers):
            seg_end = schedule.boundaries[seg_index + 1]
            while now < seg_end - 1e-12:
                remaining = seg_end - now
                if remaining >= dt - 1e-12:
                    x = stepper.step(x, power)
                    now += dt
                else:
                    key = round(remaining, 15)
                    if key not in short_steppers:
                        short_steppers[key] = stepper_cls(
                            network, remaining, backend=backend
                        )
                    x = short_steppers[key].step(x, power)
                    now = seg_end
                step_counter += 1
                if step_counter % record_every == 0 or now >= seg_end - 1e-12:
                    times.append(now)
                    records.append(observe(x))
    return TransientResult(times=np.asarray(times), states=np.vstack(records))
