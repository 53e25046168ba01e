"""Batched multi-scenario transient integration.

The paper's transient studies — the four oil-flow directions, the DTM
policy sweeps of Sec. 5.1, sensor-placement ensembles, the Fig. 12
trace runs — all integrate the *same* RC network under many power
inputs.  Serial integration pays K factorizations and K Python
stepping loops for what is mathematically one factorization applied to
K right-hand sides.  This module carries the K scenario states as an
``(n_nodes, K)`` matrix and advances every column through one cached
LU factor per step: SuperLU solves a 2-D right-hand side column by
column with exactly the serial operation order, so **each column is
bitwise identical to running that scenario alone** — the batch changes
the cost, never the numbers.

Two entry points cover the two serial integrators:

* :func:`batched_transient_simulate` mirrors
  :func:`~repro.solver.transient.transient_simulate` (fixed ``dt``
  grid, exact final partial step).  Piecewise-constant schedules take
  a trace-driven fast path: segment rows are gathered (and block
  powers injected) for whole blocks of steps at once instead of
  calling ``power_at(t)`` per scenario per step.
* :func:`batched_simulate_schedules` mirrors
  :func:`~repro.solver.events.simulate_schedule` (segment walking with
  short-step insertion) for K schedules sharing one boundary grid and
  one model — the shape of a same-model campaign group (e.g. a Fig. 12
  seed ensemble).  Each segment's K block-power rows are injected as
  one ``(n_nodes, K)`` matrix into a reused buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from .events import PiecewiseConstantSchedule
from .transient import (
    TransientResult,
    _ImplicitStepper,
    plan_fixed_steps,
    stepper_class,
)

#: A scenario's power source: constant node vector, callable ``p(t)``,
#: or a piecewise-constant schedule (the fast path).
BatchPowerInput = Union[
    np.ndarray, Callable[[float], np.ndarray], PiecewiseConstantSchedule
]

Projector = Callable[[np.ndarray], np.ndarray]

_BATCH_RUNS = obs.metrics().counter("solver.batched.runs")
_BATCH_SCENARIOS = obs.metrics().counter("solver.batched.scenarios")
_BATCH_STEPS = obs.metrics().counter("solver.batched.steps")

#: Steps materialized per block on the trace fast path.  Bounds the
#: power buffer at ``block × n_nodes × K`` floats while keeping the
#: Python per-step overhead amortized over whole-block array gathers.
_BLOCK_STEPS = 64


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


class _PowerColumn:
    """Pre-resolved power source for one scenario column."""

    def block(self, times: np.ndarray) -> np.ndarray:
        """Power vectors at ``times``, shape ``(len(times), n_nodes)``."""
        raise NotImplementedError


class _ConstantColumn(_PowerColumn):
    def __init__(self, vector: np.ndarray, n_nodes: int) -> None:
        self._vector = np.asarray(vector, dtype=float)
        if self._vector.shape != (n_nodes,):
            raise SolverError(
                f"power vector has shape {self._vector.shape}, "
                f"expected ({n_nodes},)"
            )

    def block(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._vector, (len(times), len(self._vector)))


class _ScheduleColumn(_PowerColumn):
    """The fast path: segment rows gathered for a whole block of steps
    (and, for a block-power schedule, injected as one K = steps batch)."""

    def __init__(self, schedule: PiecewiseConstantSchedule, n_nodes: int) -> None:
        if schedule.n_nodes != n_nodes:
            raise SolverError(
                f"schedule powers have {schedule.n_nodes} nodes, "
                f"expected {n_nodes}"
            )
        self._schedule = schedule
        self._boundaries = np.asarray(schedule.boundaries, dtype=float)

    def block(self, times: np.ndarray) -> np.ndarray:
        # same segment-selection rule as PiecewiseConstantSchedule
        # .power_at: side="right" minus one, clipped into range
        powers = self._schedule.powers
        index = np.searchsorted(self._boundaries, times, side="right") - 1
        np.clip(index, 0, len(powers) - 1, out=index)
        injection = self._schedule.injection
        if injection is None:
            return powers[index]
        out = np.zeros((injection.n_nodes, len(times)))
        return injection.inject(powers[index].T, out).T


class _CallableColumn(_PowerColumn):
    def __init__(self, fn: Callable[[float], np.ndarray], n_nodes: int) -> None:
        self._fn = fn
        self._n_nodes = n_nodes

    def block(self, times: np.ndarray) -> np.ndarray:
        out = np.empty((len(times), self._n_nodes))
        for j, t in enumerate(times):
            p = np.asarray(self._fn(float(t)), dtype=float)
            if p.shape != (self._n_nodes,):
                raise SolverError(
                    f"power callable returned shape {p.shape}, "
                    f"expected ({self._n_nodes},)"
                )
            out[j] = p
        return out


def _column_for(power: BatchPowerInput, n_nodes: int) -> _PowerColumn:
    if isinstance(power, PiecewiseConstantSchedule):
        return _ScheduleColumn(power, n_nodes)
    if callable(power):
        return _CallableColumn(power, n_nodes)
    return _ConstantColumn(np.asarray(power, dtype=float), n_nodes)


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


def _initial_states(
    x0s: Sequence[Optional[np.ndarray]], n_nodes: int
) -> np.ndarray:
    x = np.zeros((n_nodes, len(x0s)))
    for k, x0 in enumerate(x0s):
        if x0 is None:
            continue
        column = np.asarray(x0, dtype=float)
        if column.shape != (n_nodes,):
            raise SolverError(
                f"x0 of scenario {k} has shape {column.shape}, "
                f"expected ({n_nodes},)"
            )
        x[:, k] = column
    return x


def _make_observer(
    projector: Optional[Projector], n_scenarios: int
) -> Callable[[np.ndarray], np.ndarray]:
    def observe(state: np.ndarray) -> np.ndarray:
        if projector is None:
            return state.copy()
        # apply per column on a contiguous copy so the projector sees
        # exactly what the serial path hands it
        columns = [
            np.atleast_1d(np.asarray(
                projector(np.ascontiguousarray(state[:, k])), dtype=float
            ))
            for k in range(n_scenarios)
        ]
        return np.stack(columns, axis=-1)

    return observe


def _materialize(
    columns: Sequence[_PowerColumn], times: np.ndarray, n_nodes: int
) -> np.ndarray:
    """Power tensor at ``times``: shape ``(len(times), K, n_nodes)``.

    Scenario-major layout so each column's block lands as contiguous
    rows; step ``j``'s ``(n_nodes, K)`` power matrix is the transposed
    view ``out[j].T`` (elementwise consumers are layout-agnostic).
    """
    out = np.empty((len(times), len(columns), n_nodes))
    for k, column in enumerate(columns):
        out[:, k, :] = column.block(times)
    return out


def batched_transient_simulate(
    network: ThermalNetwork,
    scenarios: Sequence[BatchScenario],
    t_end: float,
    dt: float,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
    backend: Optional[str] = None,
) -> BatchedTransientResult:
    """Integrate K scenarios on one network in lockstep.

    Mirrors :func:`~repro.solver.transient.transient_simulate` exactly
    — same step grid, same exact final partial step when ``dt`` does
    not divide ``t_end``, same recording rule — so column ``k`` of the
    result is bitwise identical to the serial call with
    ``scenarios[k]``'s power and ``x0``.  One LU factorization (per
    stepper) serves all K columns, and piecewise-constant schedules
    are materialized block-wise instead of evaluated per step.

    The bitwise guarantee holds for ``bitwise=True`` backends (the
    default ``superlu-serial``); tolerance backends agree with their
    serial counterparts within the backend's documented rtol.
    """
    if not scenarios:
        raise SolverError("need at least one scenario")
    if record_every < 1:
        raise SolverError("record_every must be >= 1")
    stepper_cls = stepper_class(method)
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    n_nodes = network.n_nodes
    n_scenarios = len(scenarios)
    tags = _resolve_tags([sc.tag for sc in scenarios], n_scenarios)
    columns = [_column_for(sc.power, n_nodes) for sc in scenarios]
    x = _initial_states([sc.x0 for sc in scenarios], n_nodes)
    observe = _make_observer(projector, n_scenarios)

    stepper: _ImplicitStepper = stepper_cls(network, dt, backend=backend)
    n_steps = n_full + (1 if dt_final is not None else 0)
    times: List[float] = [0.0]
    records: List[np.ndarray] = [observe(x)]
    p_prev = _materialize(columns, np.zeros(1), n_nodes)[0]
    with obs.span("solver.batched.simulate", method=method,
                  n_steps=n_steps, dt=dt, n_nodes=n_nodes,
                  n_scenarios=n_scenarios):
        for start in range(1, n_full + 1, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS - 1, n_full)
            step_times = np.arange(start, stop + 1, dtype=float) * dt
            p_block = _materialize(columns, step_times, n_nodes)
            # the method's per-step power term, one vectorized pass per
            # block (elementwise, so bitwise equal to per-step compute)
            p_from = np.concatenate((p_prev[None], p_block[:-1]), axis=0)
            p_eff = stepper.effective_power(p_from, p_block)
            for j in range(stop - start + 1):
                step_index = start + j
                x = stepper.step_effective(x, p_eff[j].T)
                if step_index % record_every == 0 or step_index == n_steps:
                    times.append(float(step_times[j]))
                    records.append(observe(x))
            p_prev = p_block[-1]
        if dt_final is not None:
            final_stepper: _ImplicitStepper = stepper_cls(
                network, dt_final, backend=backend
            )
            p_end = _materialize(columns, np.array([t_end]), n_nodes)[0]
            p_eff_final = final_stepper.effective_power(p_prev, p_end)
            x = final_stepper.step_effective(x, p_eff_final.T)
            times.append(t_end)
            records.append(observe(x))
    _BATCH_RUNS.inc()
    _BATCH_SCENARIOS.inc(n_scenarios)
    _BATCH_STEPS.inc(n_steps)
    return BatchedTransientResult(
        times=np.asarray(times), states=np.stack(records, axis=0), tags=tags
    )


def batched_simulate_schedules(
    network: ThermalNetwork,
    schedules: Sequence[PiecewiseConstantSchedule],
    dt: float,
    x0s: Optional[Sequence[Optional[np.ndarray]]] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
    tags: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> BatchedTransientResult:
    """Integrate K piecewise-constant schedules in lockstep.

    Mirrors :func:`~repro.solver.events.simulate_schedule` step for
    step — the same segment walk, the same short-step insertion at
    segment ends — so column ``k`` is bitwise identical to the serial
    call with ``schedules[k]``.  All schedules must share one boundary
    grid (the shape of a same-model campaign group); mismatched grids
    raise :class:`SolverError`, which campaign callers treat as "fall
    back to per-job execution".  As with
    :func:`batched_transient_simulate`, "bitwise" is per-backend:
    tolerance backends match within their documented rtol instead.
    """
    if not schedules:
        raise SolverError("need at least one schedule")
    if record_every < 1:
        raise SolverError("record_every must be >= 1")
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
    x = _initial_states(
        list(x0s) if x0s is not None else [None] * n_scenarios, n_nodes
    )
    observe = _make_observer(projector, n_scenarios)

    stepper: _ImplicitStepper = stepper_cls(network, dt, backend=backend)
    short_steppers: Dict[float, _ImplicitStepper] = {}
    n_segments = len(schedules[0].powers)
    times: List[float] = [0.0]
    records: List[np.ndarray] = [observe(x)]
    now = 0.0
    step_counter = 0
    n_solves = 0
    with obs.span("solver.batched.schedule", method=method, dt=dt,
                  n_segments=n_segments, n_nodes=n_nodes,
                  n_scenarios=n_scenarios):
        rows = np.empty((schedules[0].powers.shape[1], n_scenarios))
        buffer = np.zeros((n_nodes, n_scenarios))
        for seg_index in range(n_segments):
            seg_end = reference[seg_index + 1]
            for k, schedule in enumerate(schedules):
                rows[:, k] = schedule.powers[seg_index]
            power = rows if injection is None else injection.inject(rows, buffer)
            # constant within the segment: compute the method's power
            # term once instead of per step (bitwise-equal elementwise)
            p_eff = stepper.effective_power(power, power)
            while now < seg_end - 1e-12:
                remaining = seg_end - now
                if remaining >= dt - 1e-12:
                    x = stepper.step_effective(x, p_eff)
                    now += dt
                else:
                    key = round(remaining, 15)
                    if key not in short_steppers:
                        short_steppers[key] = stepper_cls(
                            network, remaining, backend=backend
                        )
                    x = short_steppers[key].step_effective(x, p_eff)
                    now = seg_end
                step_counter += 1
                n_solves += 1
                if step_counter % record_every == 0 or now >= seg_end - 1e-12:
                    times.append(now)
                    records.append(observe(x))
    _BATCH_RUNS.inc()
    _BATCH_SCENARIOS.inc(n_scenarios)
    _BATCH_STEPS.inc(n_solves)
    return BatchedTransientResult(
        times=np.asarray(times), states=np.stack(records, axis=0),
        tags=tags_resolved,
    )
