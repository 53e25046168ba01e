"""Piecewise-constant power schedules for transient experiments.

The paper's transient workloads are piecewise constant: a 6 s step on
one block (Fig. 6), a 15 ms-on / 85 ms-off pulse train (Fig. 8), a
power hand-off between IntReg and FPMap at 10 ms (Fig. 9), and the
10 kcycle-sampled simulator traces of Fig. 12.  This module provides a
schedule container plus an integrator that steps through the segments
with a single reused factorization.  A trace schedule keeps its block
powers and expands one segment at a time into a reused node-power
buffer; no node-power trace is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import PowerTraceError, SolverError
from ..rcmodel.network import ThermalNetwork
from .transient import TransientResult, _STEPPERS, checked_x0


class PowerInjection(Protocol):
    """Block powers -> node powers: the interface a thermal model offers.

    Both :class:`~repro.rcmodel.grid.ThermalGridModel` and
    :class:`~repro.rcmodel.blockmodel.ThermalBlockModel` provide it.
    """

    @property
    def n_blocks(self) -> int:
        """Number of block-power columns."""

    @property
    def n_nodes(self) -> int:
        """Length of the node-power vectors written."""

    def inject(self, block_power: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``(n_blocks[, K])`` block powers into the zero-filled
        node buffer ``out`` ``(n_nodes[, K])`` and return it; rows
        that receive no power are left untouched."""


def _cumulative_boundaries(durations: np.ndarray) -> Tuple[float, ...]:
    """``(0, d0, d0 + d1, ...)`` summed left to right."""
    return (0.0,) + tuple(np.cumsum(durations).tolist())


@dataclass(frozen=True, eq=False)
class PiecewiseConstantSchedule:
    """A power schedule: row i of ``powers`` applies on [t_i, t_{i+1}).

    ``boundaries`` has one more entry than ``powers`` has rows and must
    start at 0.  After the last boundary the final row persists.

    ``powers`` is one ``(n_segments, n_columns)`` array.  With
    ``injection=None`` its rows are node-power vectors; otherwise they
    are block powers (a trace's samples, held by reference), and the
    integrators expand one segment at a time through
    ``injection.inject`` into a reused node buffer, so a long trace
    never exists as a node-power array.  The array is validated once,
    here: 2-D, finite, and ``injection.n_blocks`` columns wide.
    """

    boundaries: Tuple[float, ...]
    powers: np.ndarray
    injection: Optional[PowerInjection] = None

    def __post_init__(self) -> None:
        try:
            powers = np.asarray(self.powers, dtype=float)
        except ValueError as exc:
            raise PowerTraceError(
                "powers must form one (segments x columns) array; "
                f"ragged rows are not a schedule ({exc})"
            ) from None
        if powers.ndim != 2:
            raise PowerTraceError(
                f"powers have shape {powers.shape}; a schedule needs one "
                "2-D (segments x columns) array"
            )
        object.__setattr__(self, "powers", powers)
        if len(self.boundaries) != len(powers) + 1:
            raise PowerTraceError(
                "need len(boundaries) == len(powers) + 1 "
                f"(got {len(self.boundaries)} and {len(powers)})"
            )
        if abs(self.boundaries[0]) > 1e-15:
            raise PowerTraceError("schedule must start at t = 0")
        if np.any(np.diff(self.boundaries) <= 0):
            raise PowerTraceError("boundaries must be strictly increasing")
        bad = np.flatnonzero(~np.isfinite(powers).all(axis=1))
        if bad.size:
            raise PowerTraceError(
                f"power {int(bad[0])} contains non-finite values (NaN/Inf)"
            )
        if (self.injection is not None
                and powers.shape[1] != self.injection.n_blocks):
            raise PowerTraceError(
                f"powers have {powers.shape[1]} columns but the injection "
                f"takes {self.injection.n_blocks} blocks"
            )

    @classmethod
    def from_segments(
        cls, segments: Sequence[Tuple[float, np.ndarray]]
    ) -> "PiecewiseConstantSchedule":
        """Build from (duration, power_vector) pairs."""
        if not segments:
            raise PowerTraceError("schedule needs at least one segment")
        durations = np.array([float(duration) for duration, _ in segments])
        if np.any(durations <= 0):
            raise PowerTraceError("segment durations must be positive")
        try:
            powers = np.array([power for _, power in segments], dtype=float)
        except ValueError:
            raise PowerTraceError("segment powers differ in shape") from None
        return cls(_cumulative_boundaries(durations), powers)

    @classmethod
    def uniform(
        cls, powers: np.ndarray, dt: float,
        injection: Optional[PowerInjection] = None,
    ) -> "PiecewiseConstantSchedule":
        """Rows of ``powers`` applied for ``dt`` each (a sampled trace)."""
        if dt <= 0:
            raise PowerTraceError("segment durations must be positive")
        n_rows = len(np.asarray(powers))
        return cls(
            _cumulative_boundaries(np.full(n_rows, float(dt))), powers,
            injection,
        )

    @property
    def t_end(self) -> float:
        """End of the defined schedule, seconds."""
        return self.boundaries[-1]

    @property
    def n_nodes(self) -> int:
        """Length of the node-power vectors this schedule produces."""
        if self.injection is None:
            return self.powers.shape[1]
        return self.injection.n_nodes

    def node_power(
        self, index: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Node-power vector of segment ``index``.

        Without an injection this is the stored row itself (do not
        modify it); with one, the row is expanded into ``out`` — a
        zero-filled ``(n_nodes,)`` buffer the caller may reuse across
        segments — or into a fresh vector.
        """
        return self._to_nodes(self.powers[index], out)

    def _to_nodes(
        self, row: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self.injection is None:
            return row
        if out is None:
            out = np.zeros(self.injection.n_nodes)
        return self.injection.inject(row, out)

    def power_at(self, time: float) -> np.ndarray:
        """Node-power vector in effect at ``time``."""
        index = int(np.searchsorted(self.boundaries, time, side="right")) - 1
        return self.node_power(min(max(index, 0), len(self.powers) - 1))

    def repeated(self, cycles: int) -> "PiecewiseConstantSchedule":
        """The schedule repeated ``cycles`` times back to back."""
        if cycles < 1:
            raise PowerTraceError("cycles must be >= 1")
        period = self.t_end
        boundaries = [0.0]
        for cycle in range(cycles):
            offset = cycle * period
            boundaries.extend(offset + b for b in self.boundaries[1:])
        return PiecewiseConstantSchedule(
            tuple(boundaries), np.tile(self.powers, (cycles, 1)),
            self.injection,
        )

    def time_average(self) -> np.ndarray:
        """Duration-weighted average node-power vector over the schedule.

        The paper uses exactly this to pick the initial condition for
        the Fig. 8 oscillation study: solve the steady state under the
        average power of the periodic trace.
        """
        durations = np.diff(self.boundaries)
        return self._to_nodes(
            (durations[:, None] * self.powers).sum(axis=0) / durations.sum()
        )


def simulate_schedule(
    network: ThermalNetwork,
    schedule: PiecewiseConstantSchedule,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> TransientResult:
    """Integrate through a piecewise-constant schedule.

    Each segment is stepped with the shared factorized stepper; segment
    boundaries are always hit exactly (the last step of a segment is
    shortened if needed by inserting a dedicated small-step stepper, but
    in practice experiments choose ``dt`` dividing segment lengths).
    A block-power schedule is expanded one segment at a time into one
    reused node-power buffer.
    """
    try:
        stepper_cls = _STEPPERS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; pick from {sorted(_STEPPERS)}"
        ) from None
    if schedule.n_nodes != network.n_nodes:
        raise SolverError(
            f"schedule powers have {schedule.n_nodes} nodes, "
            f"expected {network.n_nodes}"
        )
    x = checked_x0(x0, network.n_nodes)
    stepper = stepper_cls(network, dt)
    short_steppers = {}

    def observe(state: np.ndarray) -> np.ndarray:
        return projector(state) if projector is not None else state.copy()

    times: List[float] = [0.0]
    records: List[np.ndarray] = [observe(x)]
    now = 0.0
    step_counter = 0
    with obs.span("solver.transient.schedule", method=method, dt=dt,
                  n_segments=len(schedule.powers), n_nodes=network.n_nodes):
        buffer = np.zeros(network.n_nodes)
        for seg_index in range(len(schedule.powers)):
            power = schedule.node_power(seg_index, buffer)
            seg_end = schedule.boundaries[seg_index + 1]
            while now < seg_end - 1e-12:
                remaining = seg_end - now
                if remaining >= dt - 1e-12:
                    x = stepper.step(x, power)
                    now += dt
                else:
                    key = round(remaining, 15)
                    if key not in short_steppers:
                        short_steppers[key] = stepper_cls(network, remaining)
                    x = short_steppers[key].step(x, power)
                    now = seg_end
                step_counter += 1
                if step_counter % record_every == 0 or now >= seg_end - 1e-12:
                    times.append(now)
                    records.append(observe(x))
    return TransientResult(times=np.asarray(times), states=np.vstack(records))
