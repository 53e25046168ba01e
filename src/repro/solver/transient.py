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

Both derive from one stepping core that accepts either a single state
vector ``(n,)`` or a batch matrix ``(n, K)`` whose columns advance in
lockstep through the same LU factorization — the mechanism behind
:mod:`repro.solver.batched`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from .. import obs
from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from .backends import LINEAR_BACKEND, Factor, csr_matvecs

PowerInput = Union[np.ndarray, Callable[[float], np.ndarray]]

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

    def at(self, time: float) -> np.ndarray:
        """State at the recorded instant closest to ``time``."""
        index = int(np.argmin(np.abs(self.times - time)))
        return self.states[index]

    def series(self, column: int) -> np.ndarray:
        """One column of the recorded states as a time series."""
        return self.states[:, column]


class _ImplicitStepper:
    """Shared stepping core: one cached LU factor, 1-D or 2-D states.

    Subclasses provide the factorization and the right-hand side of
    their implicit update.  ``step`` accepts either a single state
    vector of shape ``(n,)`` or a batch matrix of shape ``(n, K)``
    whose columns are independent scenarios; SuperLU solves every
    column against the same factorization, and each column's result is
    bitwise identical to stepping it alone.
    """

    order: int = 0
    method: str = ""
    #: Factorization of the implicit system matrix, built by the
    #: subclass ``_factorize`` through :data:`LINEAR_BACKEND`.
    _factor: Factor

    def __init__(self, network: ThermalNetwork, dt: float) -> None:
        if dt <= 0:
            raise SolverError("dt must be positive")
        self.network = network
        self.dt = float(dt)
        with obs.span("solver.transient.factorize", method=self.method,
                      n_nodes=network.n_nodes, dt=self.dt):
            self._factorize(network)
        _MATRIX_BUILDS.inc()

    def _factorize(self, network: ThermalNetwork) -> None:
        raise NotImplementedError

    def _rhs(self, x: np.ndarray, p_now: np.ndarray,
             p_next: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def step(self, x: np.ndarray, p_now: np.ndarray,
             p_next: Optional[np.ndarray] = None) -> np.ndarray:
        """One time step from state(s) ``x`` under the given power(s)."""
        rhs = self._rhs(x, p_now, p_next)
        _STEPS.inc()
        if rhs.ndim == 2:
            return self._factor.solve_columns(rhs)
        return self._factor.solve(rhs)

    def effective_power(self, p_now: np.ndarray,
                        p_next: np.ndarray) -> np.ndarray:
        """The power term this method's RHS adds for one step.

        Vectorizes over any leading axes (elementwise, so precomputing
        a whole block of steps at once is bitwise identical to the
        per-step expression in ``_rhs``).
        """
        raise NotImplementedError

    def step_effective(self, x: np.ndarray,
                       p_eff: np.ndarray) -> np.ndarray:
        """Batched step with a precomputed :meth:`effective_power` term.

        The hot loop of :mod:`repro.solver.batched`: identical numbers
        to :meth:`step`, minus the per-step power arithmetic.
        """
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

    order = 2
    method = "trapezoidal"

    def _factorize(self, network: ThermalNetwork) -> None:
        c_over_dt = sparse.diags(network.capacitance / self.dt)
        a = network.system_matrix
        self._factor = LINEAR_BACKEND.factorize((c_over_dt + 0.5 * a).tocsc())
        self._rhs_matrix = (c_over_dt - 0.5 * a).tocsr()

    def _rhs(self, x: np.ndarray, p_now: np.ndarray,
             p_next: Optional[np.ndarray]) -> np.ndarray:
        if p_next is None:
            p_next = p_now
        if x.ndim == 2:
            out = csr_matvecs(self._rhs_matrix, x)
            out += 0.5 * (p_now + p_next)
            return out
        return self._rhs_matrix @ x + 0.5 * (p_now + p_next)

    def effective_power(self, p_now: np.ndarray,
                        p_next: np.ndarray) -> np.ndarray:
        return 0.5 * (p_now + p_next)

    def _rhs_state(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            return csr_matvecs(self._rhs_matrix, x)
        return np.asarray(self._rhs_matrix @ x)


class BackwardEulerStepper(_ImplicitStepper):
    """Backward Euler stepper with a cached LU factorization.

    Advances ``(C/dt + A) x' = (C/dt) x + p'``.
    """

    order = 1
    method = "backward_euler"

    def _factorize(self, network: ThermalNetwork) -> None:
        self._c_over_dt = network.capacitance / self.dt
        a = network.system_matrix
        self._factor = LINEAR_BACKEND.factorize(
            (sparse.diags(self._c_over_dt) + a).tocsc()
        )

    def _rhs(self, x: np.ndarray, p_now: np.ndarray,
             p_next: Optional[np.ndarray]) -> np.ndarray:
        p_end = p_now if p_next is None else p_next
        if x.ndim == 2:
            return self._c_over_dt[:, None] * x + p_end
        return self._c_over_dt * x + p_end

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


def transient_simulate(
    network: ThermalNetwork,
    power: PowerInput,
    t_end: float,
    dt: float,
    x0: Optional[np.ndarray] = None,
    method: str = "trapezoidal",
    record_every: int = 1,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
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
    if record_every < 1:
        raise SolverError("record_every must be >= 1")
    stepper_cls = stepper_class(method)
    n_full, dt_final = plan_fixed_steps(t_end, dt)
    stepper = stepper_cls(network, dt)

    n_steps = n_full + (1 if dt_final is not None else 0)
    n_nodes = network.n_nodes
    if callable(power):
        schedule = power
        power_at = lambda t: checked_power(schedule(t), t, n_nodes)  # noqa: E731
    else:
        constant = checked_power(power, 0.0, n_nodes)
        power_at = lambda _t: constant  # noqa: E731 - trivial closure

    x = checked_x0(x0, n_nodes)

    def observe(state: np.ndarray) -> np.ndarray:
        return projector(state) if projector is not None else state.copy()

    times: List[float] = [0.0]
    records: List[np.ndarray] = [observe(x)]
    p_now = np.asarray(power_at(0.0), dtype=float)
    with obs.span("solver.transient.simulate", method=method,
                  n_steps=n_steps, dt=dt, n_nodes=network.n_nodes):
        for step_index in range(1, n_full + 1):
            t_next = step_index * dt
            p_next = np.asarray(power_at(t_next), dtype=float)
            x = stepper.step(x, p_now, p_next)
            p_now = p_next
            if step_index % record_every == 0 or step_index == n_steps:
                times.append(t_next)
                records.append(observe(x))
        if dt_final is not None:
            # exact final partial step: a misaligned dt must not
            # silently shrink or stretch the simulated horizon
            final_stepper = stepper_cls(network, dt_final)
            p_next = np.asarray(power_at(t_end), dtype=float)
            x = final_stepper.step(x, p_now, p_next)
            times.append(t_end)
            records.append(observe(x))
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
