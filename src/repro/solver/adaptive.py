"""Error-controlled adaptive transient integration.

The fixed-step trapezoidal solver is ideal when the power input sets
the natural step (trace-driven runs).  For free-running studies that
cross several time scales at once -- e.g. an AIR-SINK warm-up, where
milliseconds matter early (the silicon mode) and nothing changes for
seconds late (the sink mode) -- a fixed step wastes work.  This module
integrates with step doubling: each step is taken once at ``dt`` and
again as two halves; the Richardson difference estimates the local
error, rejecting and shrinking when above tolerance and growing the
step when comfortably below.

Factorizations are cached per step size (quantized to a geometric
ladder), so the adaptive run reuses a handful of LU factors rather
than refactoring every adjustment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from .transient import (
    BackwardEulerStepper,
    TransientResult,
    checked_power,
    checked_x0,
)

PowerInput = Union[np.ndarray, Callable[[float], np.ndarray]]

#: Steps are quantized to this geometric ladder (relative to dt_min) so
#: the LU cache stays small.
_LADDER_BASE = 2.0

#: A final residual below this fraction of the pending step is float
#: accumulation residue, not physics: it is absorbed into the last
#: accepted step instead of paying a factorization for a sliver.
_SLIVER_FRACTION = 1e-9

#: Relative tolerance for reusing an existing factor for the final
#: partial step instead of building a fresh one.
_FACTOR_MATCH_RTOL = 1e-9


class AdaptiveTransientSolver:
    """Step-doubling adaptive integrator over a thermal network.

    Parameters
    ----------
    network:
        The thermal RC network.
    rtol, atol:
        Local error tolerances (on the temperature-rise vector, K).
    dt_min, dt_max:
        Step-size bounds, seconds.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        rtol: float = 1e-3,
        atol: float = 1e-3,
        dt_min: float = 1e-5,
        dt_max: float = 10.0,
    ) -> None:
        if dt_min <= 0 or dt_max <= dt_min:
            raise SolverError("need 0 < dt_min < dt_max")
        if rtol <= 0 or atol <= 0:
            raise SolverError("tolerances must be positive")
        self.network = network
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.dt_min = float(dt_min)
        self.dt_max = float(dt_max)
        self._steppers: Dict[int, BackwardEulerStepper] = {}
        self._final_steppers: Dict[float, BackwardEulerStepper] = {}

    def _stepper(self, rung: int) -> BackwardEulerStepper:
        if rung not in self._steppers:
            self._steppers[rung] = BackwardEulerStepper(
                self.network, self.dt_min * _LADDER_BASE ** rung
            )
        return self._steppers[rung]

    def _final_stepper(self, dt_final: float) -> BackwardEulerStepper:
        """A stepper for exactly ``dt_final``, reusing cached factors.

        A ladder (or previously built final) factor whose step matches
        within :data:`_FACTOR_MATCH_RTOL` is reused outright — the
        relative horizon error it introduces is far below the solver
        tolerances — and genuinely new final sizes are cached so
        repeated integrations over the same horizon factorize once.
        """
        for stepper in self._steppers.values():
            if abs(stepper.dt - dt_final) <= _FACTOR_MATCH_RTOL * stepper.dt:
                return stepper
        for stepper in self._final_steppers.values():
            if abs(stepper.dt - dt_final) <= _FACTOR_MATCH_RTOL * stepper.dt:
                return stepper
        stepper = BackwardEulerStepper(self.network, dt_final)
        self._final_steppers[dt_final] = stepper
        return stepper

    def _rung_for(self, dt: float) -> int:
        rung = int(np.floor(np.log(dt / self.dt_min) / np.log(_LADDER_BASE)))
        max_rung = int(np.floor(
            np.log(self.dt_max / self.dt_min) / np.log(_LADDER_BASE)
        ))
        return min(max(rung, 0), max_rung)

    def integrate(
        self,
        power: PowerInput,
        t_end: float,
        x0: Optional[np.ndarray] = None,
        projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        initial_dt: Optional[float] = None,
    ) -> TransientResult:
        """Integrate from 0 to ``t_end`` with adaptive steps.

        Records the state after every accepted step (projector applied
        if given).  Backward Euler is first order, so the Richardson
        estimate of the local error is simply the difference between
        the full step and the two half steps.
        """
        if t_end <= 0:
            raise SolverError("t_end must be positive")
        n_nodes = self.network.n_nodes
        if callable(power):
            source = power
            power_at = lambda t: checked_power(source(t), t, n_nodes)  # noqa: E731
        else:
            constant = checked_power(power, 0.0, n_nodes)
            power_at = lambda _t: constant  # noqa: E731
        x = checked_x0(x0, n_nodes)

        def observe(state: np.ndarray) -> np.ndarray:
            return projector(state) if projector is not None \
                else state.copy()

        if initial_dt is None:
            initial_dt = 100 * self.dt_min
        else:
            initial_dt = float(initial_dt)
            if initial_dt <= 0:
                raise SolverError("initial_dt must be positive")
            if initial_dt > self.dt_max:
                raise SolverError(
                    f"initial_dt {initial_dt:g} exceeds dt_max {self.dt_max:g}"
                )

        times: List[float] = [0.0]
        records: List[np.ndarray] = [observe(x)]
        now = 0.0
        eps = 1e-12 * max(1.0, t_end)
        rung = self._rung_for(initial_dt)
        max_rejects = 60
        while now < t_end - eps:
            rejects = 0
            while True:
                stepper = self._stepper(rung)
                dt = stepper.dt
                if now + dt > t_end - eps:
                    # final partial step: fixed, not error-controlled.
                    # Clamp the residual against float accumulation;
                    # absorb slivers into the last accepted step rather
                    # than factorizing for (or crashing on) them.
                    residual = t_end - now
                    if residual <= max(_SLIVER_FRACTION * dt, eps):
                        now = t_end
                        break
                    final = self._final_stepper(residual)
                    p = np.asarray(power_at(t_end), float)
                    x = final.step(x, p)
                    now = t_end
                    break
                p_mid = np.asarray(power_at(now + dt / 2.0), float)
                p_end = np.asarray(power_at(now + dt), float)
                full = stepper.step(x, p_end)
                if rung > 0:
                    half_stepper = self._stepper(rung - 1)
                    half = half_stepper.step(x, p_mid)
                    half = half_stepper.step(half, p_end)
                    scale = self.atol + self.rtol * np.maximum(
                        np.abs(half), np.abs(x)
                    )
                    error = float(np.max(np.abs(full - half) / scale))
                else:
                    half = full
                    error = 0.0
                if error <= 1.0:
                    # accept the (more accurate) half-step result
                    x = half
                    now += dt
                    if error < 0.25:
                        rung = self._rung_for(dt * _LADDER_BASE)
                    break
                rejects += 1
                if rung == 0 or rejects > max_rejects:
                    raise SolverError(
                        "adaptive integrator cannot meet the tolerance "
                        "even at dt_min"
                    )
                rung -= 1
            times.append(now)
            records.append(observe(x))
        return TransientResult(
            times=np.asarray(times), states=np.vstack(records)
        )
