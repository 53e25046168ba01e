"""Piecewise-constant power schedules for transient experiments.

The paper's transient workloads are piecewise constant: a 6 s step on
one block (Fig. 6), a 15 ms-on / 85 ms-off pulse train (Fig. 8), a
power hand-off between IntReg and FPMap at 10 ms (Fig. 9), and the
10 kcycle-sampled simulator traces of Fig. 12.  This module provides a
schedule container plus :func:`simulate_schedule`, the serial segment
walk of :class:`~repro.solver.transient.TransientSession`.  A trace
schedule keeps its block powers and expands one segment at a time into
a reused node-power buffer; no node-power trace is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import PowerTraceError, SolverError
from ..rcmodel.network import ThermalNetwork
from .transient import (
    Projector,
    TransientResult,
    TransientSession,
    checked_x0,
    stepper_class,
)


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


def simulate_schedule(
    network: ThermalNetwork,
    schedule: PiecewiseConstantSchedule,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
) -> TransientResult:
    """Integrate through a piecewise-constant schedule.

    The serial segment walk of
    :class:`~repro.solver.transient.TransientSession`: segment boundaries are always hit exactly (the
    last step of a segment is shortened if needed by a dedicated
    small-step stepper, but in practice experiments choose ``dt``
    dividing segment lengths).  A block-power schedule is expanded one
    segment at a time into one reused node-power buffer.
    """
    stepper_cls = stepper_class(method)
    if schedule.n_nodes != network.n_nodes:
        raise SolverError(
            f"schedule powers have {schedule.n_nodes} nodes, "
            f"expected {network.n_nodes}"
        )
    session = TransientSession(network, dt, checked_x0(x0, network.n_nodes),
                               stepper_cls)
    buffer = np.zeros(network.n_nodes)
    walk = session.segments(schedule.boundaries,
                            lambda index: schedule.node_power(index, buffer))
    times, records = session.record(walk, record_every, projector)
    return TransientResult(times=np.asarray(times), states=np.vstack(records))
