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
through-die gradient, backward-Euler time stepping) and the linear
solver share no code with the compact RC model in :mod:`repro.rcmodel`
and :mod:`repro.solver`; the two agreeing is a genuine cross-check,
which is exactly how the paper uses ANSYS.

Every steady solve and every time step is one preconditioned
conjugate-gradient solve, with no factorization.  The die is one
material on uniform cells with adiabatic sides, so the lateral
operator separates: eigenpairs of the two 1-D lateral Laplacians
diagonalize it, leaving one tridiagonal system through the ``nz``
layers per lateral mode (the Fourier/eigenfunction idea of Kemper et
al., "Ultrafast Temperature Profile Calculation in IC Chips").  With
the film conductance replaced by its top-layer mean, that is an exact
inverse; a uniform ``h`` (Figs. 2 and 3) therefore converges in one
iteration, and a local ``h(x)`` in a few.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np
from scipy import sparse

from ..convection.flow import FlowSpec, local_h_field
from ..errors import SolverError
from ..materials import SILICON, Material
from ..units import is_count, require_positive

#: Conjugate-gradient stopping point: residual norm over right-hand-side norm.
RTOL = 1e-12

#: Conjugate-gradient iterations allowed before a solve raises ``SolverError``.
MAX_ITERATIONS = 200

Operator = Callable[[np.ndarray], np.ndarray]


def _grid_count(name: str, value: object) -> int:
    """``value`` as a cell count, or :class:`SolverError` if it is not a
    positive integer."""
    if not is_count(value):
        raise SolverError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _cell_vector(name: str, value: object, n_cells: int) -> np.ndarray:
    """``value`` as a finite float vector with one entry per cell, or
    :class:`SolverError`.  Both solves check every input through here:
    conjugate gradients cannot be trusted to surface a NaN themselves."""
    try:
        vector = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SolverError(f"{name} is not a numeric vector") from exc
    if vector.shape != (n_cells,):
        raise SolverError(
            f"{name} has shape {vector.shape}, expected ({n_cells},)"
        )
    if not np.all(np.isfinite(vector)):
        raise SolverError(f"{name} is not finite")
    return vector


def _path_laplacian(n: int) -> np.ndarray:
    """Dense Laplacian of ``n`` cells in a row with unit conductances and
    adiabatic ends."""
    laplacian = -np.eye(n, k=1) - np.eye(n, k=-1)
    np.fill_diagonal(laplacian, -laplacian.sum(axis=1))
    return laplacian


def _pcg(apply_a: Operator, apply_m: Operator, b: np.ndarray,
         x: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for SPD ``A`` by preconditioned conjugate
    gradients from the guess ``x``; ``apply_m`` approximates ``A^-1``."""
    x = x.copy()
    r = b - apply_a(x)
    tol = RTOL * float(np.linalg.norm(b))
    if np.linalg.norm(r) <= tol:
        return x
    z = apply_m(r)
    p = z
    rz = float(r @ z)
    for _ in range(MAX_ITERATIONS):
        ap = apply_a(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            return x
        z = apply_m(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    raise SolverError(
        f"reference solve did not reach relative residual {RTOL:g} "
        f"in {MAX_ITERATIONS} iterations"
    )


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
        self.die_width = die_width
        self.die_height = die_height
        self.die_thickness = die_thickness
        self.flow = flow
        self.nx = _grid_count("nx", nx)
        self.ny = _grid_count("ny", ny)
        self.nz = _grid_count("nz", nz)
        self.material = material
        self.dx = die_width / self.nx
        self.dy = die_height / self.ny
        self.dz = die_thickness / self.nz
        self.n_cells = self.nx * self.ny * self.nz
        self._include_film = include_film_capacity
        self._steady_inverse: Optional[Operator] = None
        self._build_system()

    # --- assembly ------------------------------------------------------------

    def _index(self, i: np.ndarray, j: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Flat index for cell (i, j, l): x fastest, then y, then z."""
        return (l * self.ny + j) * self.nx + i

    def _build_system(self) -> None:
        k = self.material.conductivity
        dx, dy, dz = self.dx, self.dy, self.dz
        # conductances between x-, y- and z-neighbours
        self._g = (k * dy * dz / dx, k * dx * dz / dy, k * dx * dy / dz)
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []

        ii, jj, ll = np.meshgrid(
            np.arange(self.nx), np.arange(self.ny), np.arange(self.nz),
            indexing="ij",
        )

        def couple(mask: np.ndarray, di: int, dj: int, dl: int,
                   conductance: float) -> None:
            a = self._index(ii[mask], jj[mask], ll[mask])
            b = self._index(ii[mask] + di, jj[mask] + dj, ll[mask] + dl)
            g = np.full(a.shape, conductance)
            rows.append(a)
            cols.append(b)
            vals.append(g)

        couple(ii < self.nx - 1, 1, 0, 0, self._g[0])
        couple(jj < self.ny - 1, 0, 1, 0, self._g[1])
        couple(ll < self.nz - 1, 0, 0, 1, self._g[2])

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
        self._film_mean = float(g_surface.mean())

        capacitance = np.full(n, self.material.volumetric_heat * dx * dy * dz)
        if self._include_film:
            film_per_area = self.flow.capacitance_per_area(
                self.die_width, self.die_height
            )
            capacitance[top] += film_per_area * area

        self._system = (laplacian + sparse.diags(ambient)).tocsr()
        self._capacitance = capacitance

    def _separable_inverse(self, layer_shift: np.ndarray) -> Operator:
        """Exact inverse of ``system + diag(shift)`` with every top-cell film
        conductance replaced by their mean; ``layer_shift`` holds one
        diagonal addition per z layer (``C/dt`` for a time step).

        ``eigh`` diagonalizes the x and y path Laplacians; each lateral
        mode then leaves a tridiagonal system through the layers, whose
        Thomas pivots are computed here once for all modes.
        """
        gx, gy, gz = self._g
        nx, ny, nz = self.nx, self.ny, self.nz
        lam_x, qx = np.linalg.eigh(gx * _path_laplacian(nx))
        lam_y, qy = np.linalg.eigh(gy * _path_laplacian(ny))
        diagonal = (lam_y[:, None] + lam_x[None, :])[None, :, :] + (
            gz * np.diag(_path_laplacian(nz)) + layer_shift
        )[:, None, None]
        diagonal[-1] += self._film_mean
        pivots = np.empty((nz, ny, nx))
        pivots[0] = diagonal[0]
        for layer in range(1, nz):
            pivots[layer] = diagonal[layer] - gz * gz / pivots[layer - 1]
        upper = gz / pivots

        def apply(r: np.ndarray) -> np.ndarray:
            modes = qy.T @ r.reshape(nz, ny, nx) @ qx
            modes[0] /= pivots[0]
            for layer in range(1, nz):
                modes[layer] = (modes[layer] + gz * modes[layer - 1]) / pivots[layer]
            for layer in range(nz - 2, -1, -1):
                modes[layer] += upper[layer] * modes[layer + 1]
            return (qy @ modes @ qx.T).ravel()

        return apply

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
        node_power = _cell_vector("power vector", node_power, self.n_cells)
        if self._steady_inverse is None:
            self._steady_inverse = self._separable_inverse(np.zeros(self.nz))
        return _pcg(self._system.dot, self._steady_inverse, node_power,
                    np.zeros(self.n_cells))

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
        if not (0 <= x <= self.die_width and 0 <= y <= self.die_height):
            raise SolverError(f"probe point ({x:g}, {y:g}) is outside the die")
        if not 0 <= layer < self.nz:
            raise SolverError(f"probe layer {layer} is outside [0, {self.nz})")
        i = min(int(x / self.dx), self.nx - 1)
        j = min(int(y / self.dy), self.ny - 1)
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
        takes only whole steps and refuses to round the horizon.  Each
        step's solve starts from the previous state.
        """
        if t_end <= 0 or dt <= 0:
            raise SolverError("t_end and dt must be positive")
        ratio = t_end / dt
        n_steps = int(round(ratio))
        if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
            raise SolverError(
                f"t_end={t_end:g} is not a whole number of dt={dt:g} steps"
            )
        n = self.n_cells
        if not isinstance(probe, numbers.Integral) or not 0 <= probe < n:
            raise SolverError(f"probe must be a cell index below {n}, got {probe!r}")
        x = np.zeros(n) if x0 is None else _cell_vector("x0", x0, n)
        if callable(node_power):
            power_at = node_power
        else:
            constant = _cell_vector("power vector", node_power, n)
            power_at = lambda _t: constant  # noqa: E731
        rate = self._capacitance / dt
        inverse = self._separable_inverse(
            rate.reshape(self.nz, -1).mean(axis=1)
        )

        def apply_lhs(v: np.ndarray) -> np.ndarray:
            conduction: np.ndarray = self._system @ v
            return conduction + rate * v

        times = [0.0]
        values = [float(x[probe])]
        for step in range(1, n_steps + 1):
            t = step * dt
            power = _cell_vector(f"power at t={t:g}", power_at(t), n)
            x = _pcg(apply_lhs, inverse, rate * x + power, x)
            times.append(t)
            values.append(float(x[probe]))
        return FDTransientResult(np.asarray(times), np.asarray(values))
