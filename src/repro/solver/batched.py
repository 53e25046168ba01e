"""Batched multi-scenario transient integration.

The paper's transient studies — the four oil-flow directions, the DTM
policy sweeps of Sec. 5.1, sensor-placement ensembles, the Fig. 12
trace runs — all integrate the *same* RC network under many power
inputs.  Here the K scenarios are the K columns of one
:class:`~repro.solver.transient.TransientSession`: one factorization
and one Python loop for all of them, where serial runs pay K of each.
The serial entry points walk the same code on a 1-D state, and SuperLU
back-solves the columns one by one in the serial order, so **each
column is bitwise identical to running that scenario alone**
(DESIGN.md §5.4).

* :func:`batched_transient_simulate` is the K-column
  :func:`~repro.solver.transient.transient_simulate`.
* :func:`batched_simulate_schedules` is the K-column
  :func:`~repro.solver.events.simulate_schedule`, for K schedules
  sharing one boundary grid and one model — the shape of a same-model
  campaign group (e.g. a Fig. 12 seed ensemble).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from .events import PiecewiseConstantSchedule
from .transient import (
    Projector,
    TransientResult,
    TransientSession,
    Walk,
    plan_fixed_steps,
    power_source,
    stacked_x0,
    stepper_class,
)

#: A scenario's power source: constant node vector, callable ``p(t)``,
#: or a piecewise-constant schedule.
BatchPowerInput = Union[
    np.ndarray, Callable[[float], np.ndarray], PiecewiseConstantSchedule
]

@dataclass
class BatchScenario:
    """One column of a batched integration.

    ``power`` is a constant node vector, a callable ``p(t)``, or a
    :class:`~repro.solver.events.PiecewiseConstantSchedule`; ``x0`` is
    the column's initial rise state (``None`` = ambient); ``tag``
    labels the column in the result (defaults to ``"s<k>"``).
    """

    power: BatchPowerInput
    x0: Optional[np.ndarray] = None
    tag: str = ""


@dataclass
class BatchedTransientResult:
    """Recorded trajectories of a batched transient simulation.

    ``states`` has shape ``(n_records, n_observed, n_scenarios)``:
    axis 0 walks the recorded instants, axis 1 the observed components
    (projector outputs or full node rises), axis 2 the scenarios.
    """

    times: np.ndarray
    states: np.ndarray
    tags: Tuple[str, ...]

    @property
    def n_scenarios(self) -> int:
        """Number of scenario columns."""
        return self.states.shape[2]

    def index_of(self, tag: str) -> int:
        """Column index of the scenario tagged ``tag``."""
        try:
            return self.tags.index(tag)
        except ValueError:
            raise SolverError(
                f"no scenario tagged {tag!r}; tags: {list(self.tags)}"
            ) from None

    def scenario(self, key: Union[int, str]) -> TransientResult:
        """One column's trajectory as a plain :class:`TransientResult`."""
        index = key if isinstance(key, int) else self.index_of(key)
        return TransientResult(
            times=self.times,
            states=np.ascontiguousarray(self.states[:, :, index]),
        )


def _column_for(power: BatchPowerInput,
                n_nodes: int) -> Callable[[float], np.ndarray]:
    """``t -> (n_nodes,)`` powers of one scenario column (a schedule is
    sampled through ``power_at``)."""
    if isinstance(power, PiecewiseConstantSchedule):
        power = power.power_at
    return power_source(power, n_nodes)


def _resolve_tags(
    labels: Sequence[str], count: int
) -> Tuple[str, ...]:
    tags = tuple(
        label if label else f"s{k}" for k, label in enumerate(labels)
    )
    if len(tags) != count:
        raise SolverError(f"{len(tags)} tags for {count} scenarios")
    if len(set(tags)) != len(tags):
        dupes = sorted({t for t in tags if tags.count(t) > 1})
        raise SolverError(f"duplicate scenario tags: {dupes}")
    return tags


def _recorded(session: TransientSession, walk: Walk, record_every: int,
              projector: Optional[Projector],
              tags: Tuple[str, ...]) -> BatchedTransientResult:
    times, records = session.record(walk, record_every, projector)
    return BatchedTransientResult(
        times=np.asarray(times), states=np.stack(records, axis=0), tags=tags
    )


def batched_transient_simulate(
    network: ThermalNetwork,
    scenarios: Sequence[BatchScenario],
    t_end: float,
    dt: float,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
) -> BatchedTransientResult:
    """Integrate K scenarios on one network in lockstep.

    Mirrors :func:`~repro.solver.transient.transient_simulate` exactly
    — same step grid, same exact final partial step when ``dt`` does
    not divide ``t_end``, same recording rule — so column ``k`` of the
    result is bitwise identical to the serial call with
    ``scenarios[k]``'s power and ``x0``.  One LU factorization (per
    stepper) serves all K columns.
    """
    if not scenarios:
        raise SolverError("need at least one scenario")
    stepper_cls = stepper_class(method)
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    n_nodes = network.n_nodes
    tags = _resolve_tags([sc.tag for sc in scenarios], len(scenarios))
    columns = [_column_for(sc.power, n_nodes) for sc in scenarios]
    session = TransientSession(
        network, dt, stacked_x0([sc.x0 for sc in scenarios], n_nodes),
        stepper_cls,
    )
    walk = session.grid(
        lambda t: np.stack([column(t) for column in columns], axis=1),
        n_full, dt_final, t_end,
    )
    return _recorded(session, walk, record_every, projector, tags)


def batched_simulate_schedules(
    network: ThermalNetwork,
    schedules: Sequence[PiecewiseConstantSchedule],
    dt: float,
    x0s: Optional[Sequence[Optional[np.ndarray]]] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
    tags: Optional[Sequence[str]] = None,
) -> BatchedTransientResult:
    """Integrate K piecewise-constant schedules in lockstep.

    Mirrors :func:`~repro.solver.events.simulate_schedule` step for
    step — the same segment walk, the same short-step insertion at
    segment ends — so column ``k`` is bitwise identical to the serial
    call with ``schedules[k]``.  All schedules must share one boundary
    grid (the shape of a same-model campaign group); mismatched grids
    raise :class:`SolverError`, which campaign callers treat as "fall
    back to per-job execution".
    """
    if not schedules:
        raise SolverError("need at least one schedule")
    stepper_cls = stepper_class(method)
    n_nodes = network.n_nodes
    n_scenarios = len(schedules)
    reference = schedules[0].boundaries
    injection = schedules[0].injection
    for k, schedule in enumerate(schedules):
        if schedule.boundaries != reference:
            raise SolverError(
                f"schedule {k} has a different boundary grid than "
                "schedule 0; same-grid schedules are required to batch"
            )
        if schedule.injection is not injection:
            raise SolverError(
                f"schedule {k} injects through a different model than "
                "schedule 0; one shared model is required to batch"
            )
        if schedule.n_nodes != n_nodes:
            raise SolverError(
                f"schedule {k} powers have {schedule.n_nodes} nodes, "
                f"expected {n_nodes}"
            )
    tags_resolved = _resolve_tags(
        list(tags) if tags is not None else [""] * n_scenarios, n_scenarios
    )
    if x0s is None:
        x0s = [None] * n_scenarios
    if len(x0s) != n_scenarios:
        raise SolverError(
            f"{len(x0s)} initial states for {n_scenarios} schedules"
        )
    x0 = stacked_x0(x0s, n_nodes)
    session = TransientSession(network, dt, x0, stepper_cls)
    # each segment's K rows, injected as one (n_nodes, K) matrix into
    # a reused buffer
    rows = np.empty((schedules[0].powers.shape[1], n_scenarios))
    buffer = np.zeros((n_nodes, n_scenarios))

    def segment_power(index: int) -> np.ndarray:
        for k, schedule in enumerate(schedules):
            rows[:, k] = schedule.powers[index]
        return rows if injection is None else injection.inject(rows, buffer)

    walk = session.segments(reference, segment_power)
    return _recorded(session, walk, record_every, projector, tags_resolved)
