"""The analytic steady-state engine: FFT-convolved Green's functions.

The fourth solver engine (after fixed-step, adaptive, and batched
transient): solves the steady problem of a
:class:`~repro.rcmodel.grid.ThermalGridModel` with **no sparse linear
algebra at all**.  One solve is two real FFTs plus an elementwise
multiply by the cached spectral kernel — ``O(N log N)`` with a tiny
constant — which is what makes analytical pre-screening of large
campaigns (:mod:`repro.campaign.triage`) cheap.

Accuracy contract (pinned by ``tests/test_solver_crosschecks.py`` and
documented in DESIGN.md §8):

* configurations with no overhanging layers and uniform convection are
  solved *exactly* (to FFT roundoff) — the spectral basis diagonalizes
  the discrete operator itself, not a continuum approximation of it;
* a non-uniform h(x) boundary (the paper's oil flow profile) is
  handled by a damped fixed-point (Born) iteration on the fluctuation
  field and converges to the same exact solution;
* overhanging layers (AIR-SINK spreader/sink, the secondary-path PCB)
  are folded in through an isothermal-rim Schur elimination that is
  exact for the uniform mode and approximate for the gradients — the
  residual error is what :mod:`repro.solver.analytic.envelope`
  measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

from ... import obs
from ...errors import SolverError
from ...rcmodel.grid import ThermalGridModel
from .images import forward_modes, inverse_modes
from .kernel import SpectralKernel, get_kernel
from .stack import SlabStack, stack_from_model

_SOLVES = obs.metrics().counter("solver.analytic.solves")
_SOLVE_SECONDS = obs.metrics().histogram("solver.analytic.solve_seconds")

BlockPower = Union[np.ndarray, Dict[str, float], Sequence[float]]


@dataclass(eq=False)
class AnalyticSolution:
    """One analytic steady solve: cell rise fields + iteration record."""

    #: Temperature rise of the active (power) silicon cells, flat grid
    #: order, Kelvin.
    active_rise: np.ndarray
    #: Rise of the die back-surface cells (what the IR camera sees).
    surface_rise: np.ndarray
    #: Fixed-point iterations spent on the non-uniform h correction
    #: (0 when the boundary is uniform).
    iterations: int
    #: Last update of the correction field, normalized by
    #: ``atol + norm(target)`` (so it stays finite as targets -> 0).
    residual: float
    #: Whether the correction iteration met its tolerance (vacuously
    #: true for uniform boundaries).
    converged: bool


class AnalyticSteadyEngine:
    """Green's-function steady solver bound to one grid model.

    Parameters
    ----------
    model:
        The assembled RC grid model; its matrix is read once to build
        the slab stack (see :mod:`repro.solver.analytic.stack`), after
        which solves never touch sparse data again.
    h_correction:
        Apply the fixed-point correction for non-uniform convection
        fields (h(x)).  With ``False`` the mean h is used — faster,
        exact only for uniform boundaries.
    max_iterations, rtol, atol:
        Stopping rule of the correction iteration: the update norm of
        every correction source below ``atol + rtol * norm(target)``,
        or give up (with ``converged=False`` on the solution) after
        ``max_iterations``.  The mixed criterion matters when the
        correction modes legitimately shrink toward zero (a nearly
        uniform ambient field): a purely relative test divides two
        rounding-noise-sized norms and can report non-convergence on a
        solve that is exact to machine precision, while ``atol`` (in
        the mode-amplitude unit, K-ish) accepts it.
    """

    def __init__(
        self,
        model: ThermalGridModel,
        h_correction: bool = True,
        max_iterations: int = 60,
        rtol: float = 1e-11,
        atol: float = 1e-12,
    ) -> None:
        if max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if rtol <= 0:
            raise SolverError("rtol must be positive")
        if atol <= 0:
            raise SolverError("atol must be positive")
        self.model = model
        self.h_correction = h_correction
        self.max_iterations = int(max_iterations)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.stack: SlabStack = stack_from_model(model)
        self.kernel: SpectralKernel = get_kernel(self.stack)

    # -- solves -------------------------------------------------------------

    def solve_cells(self, cell_power: np.ndarray) -> AnalyticSolution:
        """Solve for a per-cell power map on the active silicon layer.

        ``cell_power`` is flat grid order, Watts, shape
        ``(nx * ny,)`` — the same layout
        :meth:`~repro.rcmodel.grid.ThermalGridModel.node_power` injects.
        """
        stack = self.stack
        power = np.asarray(cell_power, dtype=float)
        if power.shape != (stack.n_cells,):
            raise SolverError(
                f"cell power has shape {power.shape}, expected "
                f"({stack.n_cells},)"
            )
        if not np.all(np.isfinite(power)):
            raise SolverError(
                "cell power map contains non-finite values (NaN/Inf)"
            )
        t0 = time.perf_counter()
        with obs.span("solver.analytic.solve", nx=stack.nx, ny=stack.ny,
                      n_layers=stack.n_layers) as span:
            solution = self._solve_spectral(power)
            span.annotate(iterations=solution.iterations,
                          converged=solution.converged)
        _SOLVES.inc()
        _SOLVE_SECONDS.observe(time.perf_counter() - t0)
        return solution

    def solve(self, block_power: BlockPower) -> AnalyticSolution:
        """Solve for a per-block power assignment (dict or vector)."""
        if isinstance(block_power, dict):
            block_power = self.model.floorplan.power_vector(block_power)
        cells = self.model.mapping.block_power_to_cells(
            np.asarray(block_power, dtype=float)
        )
        return self.solve_cells(cells)

    def block_rise(self, block_power: BlockPower) -> np.ndarray:
        """Per-block area-averaged steady rise, floorplan order (K)."""
        solution = self.solve(block_power)
        return self.model.mapping.cell_to_block_average(solution.active_rise)

    def block_temperatures(self, block_power: BlockPower) -> Dict[str, float]:
        """Per-block absolute steady temperatures (Kelvin) by name.

        The analytic mirror of
        :func:`repro.solver.steady.steady_block_temperatures`.
        """
        temps = self.block_rise(block_power) + self.model.config.ambient
        return self.model.floorplan.power_dict(temps)

    # -- internals ----------------------------------------------------------

    def _solve_spectral(self, power: np.ndarray) -> AnalyticSolution:
        stack, kernel = self.stack, self.kernel
        ny, nx = stack.ny, stack.nx
        active = stack.active_index
        power_modes = forward_modes(power.reshape(ny, nx))

        corrections: Dict[int, np.ndarray] = {}
        iterations, residual = 0, 0.0
        converged = True
        targets = stack.nonuniform_indices if self.h_correction else ()
        if targets:
            corrections = {
                t: np.zeros_like(power_modes) for t in targets
            }
            converged = False
            damping = 1.0
            previous = np.inf
            for iterations in range(1, self.max_iterations + 1):
                residual = 0.0
                all_within = True
                for t in targets:
                    layer = stack.layers[t]
                    assert layer.ambient_delta is not None
                    modes_t = kernel.response(t, active) * power_modes
                    for u, source in corrections.items():
                        modes_t += kernel.response(t, u) * source
                    field_t = inverse_modes(modes_t, ny, nx).ravel()
                    target = forward_modes(
                        (-layer.ambient_delta * field_t).reshape(ny, nx)
                    )
                    update = target - corrections[t]
                    upd_norm = float(np.linalg.norm(update))
                    tgt_norm = float(np.linalg.norm(target))
                    # mixed absolute/relative test: when the correction
                    # modes legitimately shrink toward zero, the ratio
                    # of two noise-sized norms must not veto convergence
                    if upd_norm > self.atol + self.rtol * tgt_norm:
                        all_within = False
                    residual = max(
                        residual, upd_norm / (self.atol + tgt_norm)
                    )
                    corrections[t] = corrections[t] + damping * update
                if all_within:
                    converged = True
                    break
                if residual > previous:
                    # the undamped map is expanding; halve the step
                    damping = max(damping / 2.0, 1.0 / 16.0)
                previous = residual

        def field_at(layer_index: int) -> np.ndarray:
            modes = kernel.response(layer_index, active) * power_modes
            for u, source in corrections.items():
                modes = modes + kernel.response(layer_index, u) * source
            return inverse_modes(modes, ny, nx).ravel()

        return AnalyticSolution(
            active_rise=field_at(active),
            surface_rise=field_at(stack.surface_index),
            iterations=iterations,
            residual=residual,
            converged=converged,
        )


def analytic_block_temperatures(
    model: ThermalGridModel,
    block_power: BlockPower,
    h_correction: bool = True,
) -> Dict[str, float]:
    """One-shot convenience: analytic per-block temperatures (Kelvin)."""
    engine = AnalyticSteadyEngine(model, h_correction=h_correction)
    return engine.block_temperatures(block_power)
