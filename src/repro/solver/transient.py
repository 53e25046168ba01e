"""Transient solution of thermal RC networks.

Integrates ``C dx/dt = P(t) - A x`` with A-stable implicit one-step
methods.  Because ``A`` and ``C`` are constant, the implicit system
matrix is factorized once per (network, dt) and reused across all steps,
which keeps millisecond-resolution, multi-second simulations (paper
Figs. 6, 8, 12) fast.

Two steppers are provided:

* :class:`TrapezoidalStepper` (Crank-Nicolson) -- second order, the
  default; matches HotSpot's transient accuracy goals.
* :class:`BackwardEulerStepper` -- first order, L-stable; useful to
  damp the start-up transient of stiff configurations and as a
  cross-check of the trapezoidal results.

Every transient entry point is a wrapper of one core,
:class:`TransientSession`, which advances a ``(n,)`` state (a serial
run) or a ``(n, K)`` one (K scenarios in lockstep through the same LU
factorization) on the fixed-``dt`` grid or segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np
from scipy import sparse

from .. import obs
from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from .backends import LINEAR_BACKEND, Factor, csr_matvecs

PowerInput = Union[np.ndarray, Callable[[float], np.ndarray]]
Projector = Callable[[np.ndarray], np.ndarray]

_MATRIX_BUILDS = obs.metrics().counter("solver.transient.matrix_builds")
_STEPS = obs.metrics().counter("solver.transient.steps")

#: Horizon/step alignment tolerance: ``t_end / dt`` ratios within one
#: part in 1e9 of an integer are float-division residue, not a real
#: remainder, and integrate as exactly that many full steps.
_ALIGN_RTOL = 1e-9


def plan_fixed_steps(t_end: float, dt: float) -> Tuple[int, Optional[float]]:
    """Split ``[0, t_end]`` into full ``dt`` steps plus an exact remainder.

    Returns ``(n_full, dt_final)``: ``dt_final`` is ``None`` when ``dt``
    divides ``t_end`` (within :data:`_ALIGN_RTOL`), otherwise the exact
    final partial step ``t_end - n_full * dt`` so the integration lands
    on ``t_end`` instead of silently rounding the horizon.
    """
    if t_end <= 0:
        raise SolverError("t_end must be positive")
    if dt <= 0:
        raise SolverError("dt must be positive")
    ratio = t_end / dt
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= _ALIGN_RTOL * nearest:
        return int(nearest), None
    if ratio < 1.0:
        raise SolverError(
            f"t_end shorter than one step (t_end={t_end:g}, dt={dt:g})"
        )
    n_full = int(ratio)
    return n_full, t_end - n_full * dt


@dataclass
class TransientResult:
    """Recorded trajectory of a transient simulation.

    ``states`` holds one row per recorded instant; if a projector was
    given to the simulation, rows are projector outputs (e.g. per-block
    rises), otherwise full node rise vectors.
    """

    times: np.ndarray
    states: np.ndarray

    def final(self) -> np.ndarray:
        """State at the last recorded instant."""
        return self.states[-1]


class _ImplicitStepper:
    """Shared stepping core: one cached LU factor, 1-D or 2-D states.

    Subclasses provide the factorization and the two parts of the
    right-hand side of their implicit update.  A state is either a
    single vector of shape ``(n,)`` or a batch matrix of shape
    ``(n, K)`` whose columns are independent scenarios; SuperLU solves
    every column against the same factorization, and each column's
    result is bitwise identical to stepping it alone.
    """

    #: Factorization of the implicit system matrix, built by the
    #: subclass ``_factorize`` through :data:`LINEAR_BACKEND`.
    _factor: Factor

    def __init__(self, network: ThermalNetwork, dt: float) -> None:
        if dt <= 0:
            raise SolverError("dt must be positive")
        self.network = network
        self.dt = float(dt)
        self._factorize(network)
        _MATRIX_BUILDS.inc()

    def _factorize(self, network: ThermalNetwork) -> None:
        raise NotImplementedError

    def step(self, x: np.ndarray, p_now: np.ndarray,
             p_next: Optional[np.ndarray] = None) -> np.ndarray:
        """One time step from state(s) ``x`` under the given power(s)."""
        p_end = p_now if p_next is None else p_next
        return self.step_effective(x, self.effective_power(p_now, p_end))

    def effective_power(self, p_now: np.ndarray,
                        p_next: np.ndarray) -> np.ndarray:
        """The power term this method's RHS adds for one step.

        Vectorizes over any leading axes (elementwise, so precomputing
        a whole block of steps at once is bitwise identical to the
        per-step expression).
        """
        raise NotImplementedError

    def step_effective(self, x: np.ndarray,
                       p_eff: np.ndarray) -> np.ndarray:
        """One step with a precomputed :meth:`effective_power` term."""
        rhs = self._rhs_state(x)
        rhs += p_eff
        _STEPS.inc()
        if rhs.ndim == 2:
            return self._factor.solve_columns(rhs)
        return self._factor.solve(rhs)

    def _rhs_state(self, x: np.ndarray) -> np.ndarray:
        """The state-dependent part of the RHS (a fresh, writable array)."""
        raise NotImplementedError


class TrapezoidalStepper(_ImplicitStepper):
    """Crank-Nicolson stepper with a cached LU factorization.

    Advances ``(C/dt + A/2) x' = (C/dt - A/2) x + (p + p')/2``.
    """

    def _factorize(self, network: ThermalNetwork) -> None:
        c_over_dt = sparse.diags(network.capacitance / self.dt)
        a = network.system_matrix
        self._factor = LINEAR_BACKEND.factorize((c_over_dt + 0.5 * a).tocsc())
        self._rhs_matrix = (c_over_dt - 0.5 * a).tocsr()

    def effective_power(self, p_now: np.ndarray,
                        p_next: np.ndarray) -> np.ndarray:
        return 0.5 * (p_now + p_next)

    def _rhs_state(self, x: np.ndarray) -> np.ndarray:
        return csr_matvecs(self._rhs_matrix, x)


class BackwardEulerStepper(_ImplicitStepper):
    """Backward Euler stepper with a cached LU factorization.

    Advances ``(C/dt + A) x' = (C/dt) x + p'``.
    """

    def _factorize(self, network: ThermalNetwork) -> None:
        self._c_over_dt = network.capacitance / self.dt
        a = network.system_matrix
        self._factor = LINEAR_BACKEND.factorize(
            (sparse.diags(self._c_over_dt) + a).tocsc()
        )

    def effective_power(self, p_now: np.ndarray,
                        p_next: np.ndarray) -> np.ndarray:
        return np.asarray(p_next)

    def _rhs_state(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            return self._c_over_dt[:, None] * x
        return self._c_over_dt * x


_STEPPERS = {
    "trapezoidal": TrapezoidalStepper,
    "backward_euler": BackwardEulerStepper,
}


def stepper_class(method: str) -> Any:
    """The stepper class registered under ``method``."""
    try:
        return _STEPPERS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; pick from {sorted(_STEPPERS)}"
        ) from None


def checked_power(values: Any, t: float, n_nodes: int) -> np.ndarray:
    """``values`` as a float node-power vector; :class:`SolverError`
    unless it has shape ``(n_nodes,)`` and is finite."""
    vector = np.asarray(values, dtype=float)
    if vector.shape != (n_nodes,):
        raise SolverError(
            f"power vector at t={t:g} has shape {vector.shape}, "
            f"expected ({n_nodes},)"
        )
    if not np.all(np.isfinite(vector)):
        raise SolverError(
            f"power vector at t={t:g} contains non-finite values "
            "(NaN/Inf); check the power schedule before simulating"
        )
    return vector


def checked_x0(x0: Optional[np.ndarray], n_nodes: int) -> np.ndarray:
    """A fresh float copy of the initial rise state (zeros for
    ``None``); :class:`SolverError` unless it has shape ``(n_nodes,)``
    and is finite."""
    if x0 is None:
        return np.zeros(n_nodes)
    x = np.array(x0, dtype=float)
    if x.shape != (n_nodes,):
        raise SolverError(f"x0 has shape {x.shape}, expected ({n_nodes},)")
    if not np.all(np.isfinite(x)):
        raise SolverError("x0 contains non-finite values (NaN/Inf)")
    return x


def stacked_x0(x0s: Sequence[Optional[np.ndarray]],
               n_nodes: int) -> np.ndarray:
    """K :func:`checked_x0` states as one ``(n_nodes, K)`` matrix."""
    x = np.zeros((n_nodes, len(x0s)))
    for k, x0 in enumerate(x0s):
        if x0 is not None:
            x[:, k] = checked_x0(x0, n_nodes)
    return x


def power_source(power: PowerInput,
                 n_nodes: int) -> Callable[[float], np.ndarray]:
    """``t -> (n_nodes,)``: :func:`checked_power` node powers of a
    constant vector (checked once, here) or of a callable ``p(t)``."""
    if callable(power):
        source = power
        return lambda t: checked_power(source(t), t, n_nodes)
    constant = checked_power(power, 0.0, n_nodes)
    return lambda _t: constant


#: A walk advances its session and yields, after each step, the time
#: reached and whether that step must be recorded.
Walk = Iterator[Tuple[float, bool]]


class TransientSession:
    """The one stepping core: a network advanced step by step from ``x0``.

    ``x0`` is the checked state, ``(n_nodes,)`` for a serial run or
    ``(n_nodes, K)`` for K columns in lockstep through one factor;
    ``stepper`` is the method's stepper class.  The integrators
    :meth:`record` a walk (:meth:`grid` or :meth:`segments`); the DTM
    loop calls :meth:`advance` once per trace sample.
    """

    def __init__(self, network: ThermalNetwork, dt: float, x0: np.ndarray,
                 stepper: Any = TrapezoidalStepper) -> None:
        self.network = network
        self.stepper: _ImplicitStepper = stepper(network, dt)
        self.dt = self.stepper.dt
        self.x = x0
        self._stepper_cls = stepper
        self._short: Dict[float, _ImplicitStepper] = {}

    def advance(self, p_eff: np.ndarray,
                stepper: Optional[_ImplicitStepper] = None) -> np.ndarray:
        """One step (of ``dt``, or of ``stepper``'s) under the power term
        ``p_eff`` of :meth:`~_ImplicitStepper.effective_power`."""
        self.x = (stepper or self.stepper).step_effective(self.x, p_eff)
        return self.x

    def column(self, k: int) -> np.ndarray:
        """State column ``k`` as a contiguous vector."""
        if self.x.ndim == 1:
            return self.x
        return np.ascontiguousarray(self.x[:, k])

    def peek(self, p_eff: np.ndarray, stepper: _ImplicitStepper,
             k: int) -> np.ndarray:
        """Column ``k`` one ``stepper`` step ahead, without advancing."""
        p_column = p_eff if p_eff.ndim == 1 else p_eff[:, k]
        return stepper.step_effective(self.column(k), p_column)

    def observe(self, projector: Optional[Projector]) -> np.ndarray:
        """The state as recorded: a copy, or the projector's output
        (per column, on what a serial run would hand it)."""
        if projector is None:
            return self.x.copy()
        if self.x.ndim == 1:
            return projector(self.x)
        return np.stack([
            np.atleast_1d(np.asarray(projector(self.column(k)), dtype=float))
            for k in range(self.x.shape[1])
        ], axis=-1)

    def record(self, walk: Walk, record_every: int,
               projector: Optional[Projector] = None
               ) -> Tuple[List[float], List[np.ndarray]]:
        """Run ``walk``; record the initial state, every
        ``record_every``-th step and every step the walk marks."""
        if record_every < 1:
            raise SolverError("record_every must be >= 1")
        times = [0.0]
        records = [self.observe(projector)]
        for count, (t, marked) in enumerate(walk, 1):
            if marked or count % record_every == 0:
                times.append(t)
                records.append(self.observe(projector))
        return times, records

    def grid(self, powers: Callable[[float], np.ndarray], n_full: int,
             dt_final: Optional[float], t_end: float) -> Walk:
        """The walk of :func:`plan_fixed_steps`: ``n_full`` steps, then
        the partial step ``dt_final`` (if any) landing on ``t_end``.
        ``powers(t)`` is the node power at ``t``, ``(n_nodes[, K])``."""
        p_prev = powers(0.0)
        for index in range(1, n_full + 1):
            t = index * self.dt
            p_next = powers(t)
            self.advance(self.stepper.effective_power(p_prev, p_next))
            p_prev = p_next
            yield t, index == n_full and dt_final is None
        if dt_final is not None:
            final = self._stepper_cls(self.network, dt_final)
            p_end = powers(t_end)
            self.advance(final.effective_power(p_prev, p_end), final)
            yield t_end, True

    def segments(self, boundaries: Sequence[float],
                 powers: Callable[[int], np.ndarray]) -> Walk:
        """Segment ``i`` runs to ``boundaries[i + 1]`` under node power
        ``powers(i)``; its last step is shortened to land on it."""
        dt = self.dt
        now = 0.0
        for index in range(len(boundaries) - 1):
            seg_end = boundaries[index + 1]
            power = powers(index)
            # constant within the segment: one power term for its steps
            p_eff = self.stepper.effective_power(power, power)
            while now < seg_end - 1e-12:
                remaining = seg_end - now
                if remaining >= dt - 1e-12:
                    self.advance(p_eff)
                    now += dt
                else:
                    self.advance(p_eff, self._short_stepper(remaining))
                    now = seg_end
                yield now, now >= seg_end - 1e-12

    def _short_stepper(self, length: float) -> _ImplicitStepper:
        key = round(length, 15)
        if key not in self._short:
            self._short[key] = self._stepper_cls(self.network, length)
        return self._short[key]


def transient_simulate(
    network: ThermalNetwork,
    power: PowerInput,
    t_end: float,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Projector] = None,
) -> TransientResult:
    """Integrate the network from ``x0`` to ``t_end``.

    Parameters
    ----------
    power:
        Either a constant node power vector or a callable ``p(t)``
        evaluated at step boundaries.
    t_end, dt:
        Simulation horizon and fixed step size, seconds.  When ``dt``
        does not divide ``t_end``, the run finishes with one exact
        partial step so the recorded horizon is always ``t_end``.
    x0:
        Initial temperature-rise state (zeros = everything at ambient).
    method:
        ``"trapezoidal"`` or ``"backward_euler"``.
    record_every:
        Record every N-th step (plus the initial and final states).
    projector:
        Optional reduction applied to each recorded state (e.g.
        ``model.block_rise``) so long runs don't store full node fields.
    """
    stepper_cls = stepper_class(method)
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    powers = power_source(power, network.n_nodes)
    session = TransientSession(network, dt, checked_x0(x0, network.n_nodes),
                               stepper_cls)
    times, records = session.record(
        session.grid(powers, n_full, dt_final, t_end), record_every, projector
    )
    states = np.vstack(records) if records[0].ndim else np.asarray(records)
    return TransientResult(times=np.asarray(times), states=states)


def transient_step_response(
    network: ThermalNetwork,
    node_power: np.ndarray,
    t_end: float,
    dt: float,
    **kwargs: Any,
) -> TransientResult:
    """Step response from ambient: constant power applied at t = 0."""
    return transient_simulate(network, node_power, t_end, dt, x0=None, **kwargs)
