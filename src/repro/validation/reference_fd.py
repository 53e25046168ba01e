"""A 3-D finite-difference reference solver (the ANSYS stand-in).

Solves transient heat conduction in the silicon die,

    rho c_p dT/dt = div(k grad T) + q,

on a structured ``nx x ny x nz`` grid with:

* a convective (Robin) boundary on the top surface, using the same
  laminar flat-plate correlation inputs as the physical oil flow
  (uniform ``h_L`` or local ``h(x)``), optionally augmented with the
  boundary layer's areal heat capacity so the coolant's thermal inertia
  is represented;
* adiabatic side walls and (by default) an adiabatic bottom -- the
  bare-die-in-oil validation geometry of the paper's Figs. 2 and 3;
* volumetric power injected in the bottom cell layer (the active
  silicon), from a per-column (W) map.

The discretization (7-point finite volumes, fine grid, resolved
through-die gradient, backward-Euler time stepping) shares no code with
the compact RC model in :mod:`repro.rcmodel`; the two agreeing is a
genuine cross-check, which is exactly how the paper uses ANSYS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ..convection.flow import FlowSpec, local_h_field
from ..errors import SolverError
from ..materials import SILICON, Material
from ..units import require_positive


@dataclass
class FDTransientResult:
    """Probe trajectory from a transient reference solve."""

    times: np.ndarray
    values: np.ndarray

    def final(self) -> float:
        """Probe value at the end of the run."""
        return float(self.values[-1])


class ReferenceFDSolver:
    """Fine-grid 3-D conduction solver for a bare die under coolant flow.

    Parameters
    ----------
    die_width, die_height, die_thickness:
        Die dimensions in meters.
    flow:
        The coolant stream over the top surface.
    nx, ny, nz:
        Grid resolution; ``nz`` resolves the through-die direction.
    material:
        Die material (silicon by default).
    include_film_capacity:
        Attach the boundary layer's areal heat capacity
        (``rho_oil c_p,oil delta_t`` per unit area) to the surface
        cells, representing the coolant's thermal inertia in the
        transient response.
    """

    def __init__(
        self,
        die_width: float,
        die_height: float,
        die_thickness: float,
        flow: FlowSpec,
        nx: int = 40,
        ny: int = 40,
        nz: int = 5,
        material: Material = SILICON,
        include_film_capacity: bool = True,
    ) -> None:
        require_positive("die_width", die_width)
        require_positive("die_height", die_height)
        require_positive("die_thickness", die_thickness)
        if min(nx, ny, nz) < 1:
            raise SolverError("grid resolution must be >= 1 in every axis")
        self.die_width = die_width
        self.die_height = die_height
        self.die_thickness = die_thickness
        self.flow = flow
        self.nx, self.ny, self.nz = int(nx), int(ny), int(nz)
        self.material = material
        self.dx = die_width / nx
        self.dy = die_height / ny
        self.dz = die_thickness / nz
        self.n_cells = self.nx * self.ny * self.nz
        self._include_film = include_film_capacity
        self._build_system()

    # --- assembly ------------------------------------------------------------

    def _index(self, i: np.ndarray, j: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Flat index for cell (i, j, l): x fastest, then y, then z."""
        return (l * self.ny + j) * self.nx + i

    def _build_system(self) -> None:
        k = self.material.conductivity
        dx, dy, dz = self.dx, self.dy, self.dz
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []

        ii, jj, ll = np.meshgrid(
            np.arange(self.nx), np.arange(self.ny), np.arange(self.nz),
            indexing="ij",
        )

        def couple(mask, di, dj, dl, conductance):
            a = self._index(ii[mask], jj[mask], ll[mask])
            b = self._index(ii[mask] + di, jj[mask] + dj, ll[mask] + dl)
            g = np.full(a.shape, conductance)
            rows.append(a)
            cols.append(b)
            vals.append(g)

        couple(ii < self.nx - 1, 1, 0, 0, k * dy * dz / dx)
        couple(jj < self.ny - 1, 0, 1, 0, k * dx * dz / dy)
        couple(ll < self.nz - 1, 0, 0, 1, k * dx * dy / dz)

        row = np.concatenate(rows)
        col = np.concatenate(cols)
        val = np.concatenate(vals)
        n = self.n_cells
        off = sparse.coo_matrix(
            (np.concatenate([-val, -val]),
             (np.concatenate([row, col]), np.concatenate([col, row]))),
            shape=(n, n),
        ).tocsr()
        degree = -np.asarray(off.sum(axis=1)).ravel()
        laplacian = off + sparse.diags(degree)

        # Robin boundary on the top surface: top-cell center is dz/2
        # below the wetted surface, so the cell-to-ambient conductance is
        # the series of half-cell conduction and the film coefficient.
        xs = (np.arange(self.nx) + 0.5) * dx
        ys = (np.arange(self.ny) + 0.5) * dy
        gx, gy = np.meshgrid(xs, ys)  # (ny, nx)
        h_field = local_h_field(
            self.flow, gx.ravel(), gy.ravel(), self.die_width, self.die_height
        )
        area = dx * dy
        g_surface = area / (dz / (2.0 * k) + 1.0 / h_field)
        ambient = np.zeros(n)
        top = self._index(
            np.tile(np.arange(self.nx), self.ny),
            np.repeat(np.arange(self.ny), self.nx),
            np.full(self.nx * self.ny, self.nz - 1),
        )
        ambient[top] = g_surface
        self._top_cells = top

        capacitance = np.full(n, self.material.volumetric_heat * dx * dy * dz)
        if self._include_film:
            film_per_area = self.flow.capacitance_per_area(
                self.die_width, self.die_height
            )
            capacitance[top] += film_per_area * area

        self._system = (laplacian + sparse.diags(ambient)).tocsc()
        self._capacitance = capacitance
        self._steady_factor = None

    # --- power input ---------------------------------------------------------

    def uniform_power(self, total_watts: float) -> np.ndarray:
        """Node power vector: ``total_watts`` spread uniformly over the
        bottom (active) layer."""
        require_positive("total_watts", total_watts)
        vector = np.zeros(self.n_cells)
        bottom = self._index(
            np.tile(np.arange(self.nx), self.ny),
            np.repeat(np.arange(self.ny), self.nx),
            np.zeros(self.nx * self.ny, dtype=int),
        )
        vector[bottom] = total_watts / (self.nx * self.ny)
        return vector

    def rect_power(
        self, x0: float, x1: float, y0: float, y1: float, watts: float
    ) -> np.ndarray:
        """Node power vector: ``watts`` uniform over a bottom-layer
        rectangle [x0, x1) x [y0, y1) (area-weighted at the borders)."""
        require_positive("watts", watts)
        if not (0 <= x0 < x1 <= self.die_width + 1e-12
                and 0 <= y0 < y1 <= self.die_height + 1e-12):
            raise SolverError("power rectangle outside the die")
        xs = np.arange(self.nx) * self.dx
        ys = np.arange(self.ny) * self.dy
        wx = np.clip(np.minimum(xs + self.dx, x1) - np.maximum(xs, x0), 0, None)
        wy = np.clip(np.minimum(ys + self.dy, y1) - np.maximum(ys, y0), 0, None)
        weights = np.outer(wy, wx)  # (ny, nx)
        total_area = weights.sum()
        if total_area <= 0:
            raise SolverError("power rectangle covers no cells")
        vector = np.zeros(self.n_cells)
        flat = self._index(
            np.tile(np.arange(self.nx), self.ny),
            np.repeat(np.arange(self.ny), self.nx),
            np.zeros(self.nx * self.ny, dtype=int),
        )
        vector[flat] = watts * weights.ravel() / total_area
        return vector

    # --- solves ---------------------------------------------------------------

    def steady_rise(self, node_power: np.ndarray) -> np.ndarray:
        """Steady temperature rise for every cell (flat vector)."""
        node_power = np.asarray(node_power, dtype=float)
        if node_power.shape != (self.n_cells,):
            raise SolverError("power vector has the wrong length")
        if self._steady_factor is None:
            # symmetric minimum-degree ordering: the system is a
            # symmetric M-matrix, so this halves COLAMD's L+U fill
            self._steady_factor = splu(
                self._system,
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
        rise = self._steady_factor.solve(node_power)
        if not np.all(np.isfinite(rise)):
            raise SolverError("reference steady solve diverged")
        return rise

    def surface_rise(self, rise: np.ndarray) -> np.ndarray:
        """Top-surface (wetted) cell rises as an (ny, nx) map."""
        return rise[self._top_cells].reshape(self.ny, self.nx)

    def bottom_rise(self, rise: np.ndarray) -> np.ndarray:
        """Bottom (active-layer) cell rises as an (ny, nx) map."""
        bottom = self._index(
            np.tile(np.arange(self.nx), self.ny),
            np.repeat(np.arange(self.ny), self.nx),
            np.zeros(self.nx * self.ny, dtype=int),
        )
        return rise[bottom].reshape(self.ny, self.nx)

    def probe_index(self, x: float, y: float, layer: int = 0) -> int:
        """Flat index of the cell containing (x, y) in a given z layer."""
        i = min(int(x / self.dx), self.nx - 1)
        j = min(int(y / self.dy), self.ny - 1)
        layer = min(max(layer, 0), self.nz - 1)
        return int(self._index(np.array(i), np.array(j), np.array(layer)))

    def transient_probe(
        self,
        node_power: Union[np.ndarray, Callable[[float], np.ndarray]],
        t_end: float,
        dt: float,
        probe: int,
        x0: Optional[np.ndarray] = None,
    ) -> FDTransientResult:
        """Backward-Euler transient; records one probe cell's rise.

        ``dt`` must divide ``t_end`` (to one part in 1e9): the reference
        takes only whole steps and refuses to round the horizon.
        """
        if t_end <= 0 or dt <= 0:
            raise SolverError("t_end and dt must be positive")
        ratio = t_end / dt
        n_steps = int(round(ratio))
        if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
            raise SolverError(
                f"t_end={t_end:g} is not a whole number of dt={dt:g} steps"
            )
        lhs = splu(
            (sparse.diags(self._capacitance / dt) + self._system).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
        )
        x = np.zeros(self.n_cells) if x0 is None else np.asarray(x0, float).copy()
        if callable(node_power):
            power_at = node_power
        else:
            constant = np.asarray(node_power, dtype=float)
            power_at = lambda _t: constant  # noqa: E731
        times = [0.0]
        values = [float(x[probe])]
        for step in range(1, n_steps + 1):
            t = step * dt
            rhs = self._capacitance / dt * x + np.asarray(power_at(t), float)
            x = lhs.solve(rhs)
            times.append(t)
            values.append(float(x[probe]))
        self._last_state = x
        return FDTransientResult(np.asarray(times), np.asarray(values))
