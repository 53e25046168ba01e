"""Mapping between floorplan blocks and a regular thermal grid.

The grid model discretizes the die into ``nx x ny`` rectangular cells.
A block generally covers many cells and a border cell may be shared by
several blocks, so the mapping is stored as a sparse matrix of overlap
areas:

* to distribute per-block power onto cells, each block's power is spread
  uniformly over its area (``P_cell = sum_b P_b * A_overlap / A_b``);
* to report per-block temperatures, each block averages the cells it
  covers, weighted by overlap area (what a uniform sensor integrated
  over the unit would read).

Both operators are built once per mapping: the overlap matrix, its
transpose and the block areas are cached, and every product runs the
scipy sparsetools kernel that ``@`` itself dispatches to, so a cached
product is bitwise the operator expression it replaces.  A 1-D input is
one vector; a 2-D input carries one vector per column (``K`` scenarios
at once), each column bitwise its 1-D product.

Cell (i, j) covers ``[i*dx, (i+1)*dx) x [j*dy, (j+1)*dy)``; the flat
cell index is ``j * nx + i`` (row-major in y).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from ..errors import GeometryError
from ..units import is_count
from .block import Floorplan

try:
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - scipy layout changed
    _sparsetools = None


def _spmv(matrix: sparse.spmatrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a CSR/CSC matrix, minus operator dispatch.

    Runs the same sparsetools kernel ``@`` picks (``<fmt>_matvec`` for a
    vector, ``<fmt>_matvecs`` for the columns of a 2-D ``x``) on the
    same zero-initialized output, so the result is bitwise ``matrix @
    x``; the per-call saving is scipy's validation and wrapping.
    """
    if _sparsetools is None:  # pragma: no cover
        return np.asarray(matrix @ x)
    n_row, n_col = matrix.shape
    args = (matrix.indptr, matrix.indices, matrix.data)
    if x.ndim == 1:
        out = np.zeros(n_row)
        getattr(_sparsetools, matrix.format + "_matvec")(
            n_row, n_col, *args, x, out
        )
        return out
    out = np.zeros((n_row, x.shape[1]))
    getattr(_sparsetools, matrix.format + "_matvecs")(
        n_row, n_col, x.shape[1], *args, np.ascontiguousarray(x).ravel(),
        out.ravel(),
    )
    return out


def _axis_overlaps(
    lo: float, hi: float, cell_size: float, n_cells: int
) -> Tuple[int, int, np.ndarray]:
    """Overlap lengths of interval [lo, hi) with each grid cell on an axis.

    Returns (first_cell, last_cell_exclusive, lengths) where ``lengths``
    has one entry per covered cell.
    """
    first = max(0, int(np.floor(lo / cell_size + 1e-12)))
    last = min(n_cells, int(np.ceil(hi / cell_size - 1e-12)))
    if last <= first:
        return first, first, np.zeros(0)
    edges_lo = np.maximum(np.arange(first, last) * cell_size, lo)
    edges_hi = np.minimum((np.arange(first, last) + 1) * cell_size, hi)
    return first, last, np.maximum(edges_hi - edges_lo, 0.0)


class GridMapping:
    """Precomputed block <-> cell overlap structure for one floorplan/grid."""

    def __init__(self, floorplan: Floorplan, nx: int, ny: int) -> None:
        for name, count in (("nx", nx), ("ny", ny)):
            if not is_count(count):
                raise GeometryError(
                    f"{name} must be a positive integer, got {count!r}"
                )
        self.floorplan = floorplan
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = floorplan.die_width / self.nx
        self.dy = floorplan.die_height / self.ny
        self.cell_area = self.dx * self.dy
        self.n_cells = self.nx * self.ny
        self.n_blocks = len(floorplan)
        self._overlap = self._build_overlap()
        #: cell x block view of the same buffers (CSC), the spreading
        #: operator before the per-area scaling.
        self._overlap_t = self._overlap.T
        self._areas = floorplan.areas()
        self._areas.setflags(write=False)
        covered = np.asarray(self._overlap.sum(axis=0)).ravel()
        #: Fraction of each cell covered by any block (1.0 for a gapless
        #: tiling; < 1 over floorplan gaps).
        self.cell_coverage = covered / self.cell_area

    def _build_overlap(self) -> sparse.csr_matrix:
        rows, cols, vals = [], [], []
        for b_idx, block in enumerate(self.floorplan):
            i0, i1, wx = _axis_overlaps(block.x, block.x2, self.dx, self.nx)
            j0, j1, wy = _axis_overlaps(block.y, block.y2, self.dy, self.ny)
            if wx.size == 0 or wy.size == 0:
                raise GeometryError(
                    f"block {block.name!r} does not overlap the grid; "
                    f"is it outside the die?"
                )
            areas = np.outer(wy, wx)  # (ny_cov, nx_cov)
            jj, ii = np.nonzero(areas > 0.0)
            rows.extend([b_idx] * len(ii))
            cols.extend(((jj + j0) * self.nx + (ii + i0)).tolist())
            vals.extend(areas[jj, ii].tolist())
        matrix = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_blocks, self.n_cells)
        )
        return matrix

    # --- power distribution ---------------------------------------------

    def block_power_to_cells(self, block_power: np.ndarray) -> np.ndarray:
        """Spread per-block power (W) uniformly onto grid cells (W/cell).

        ``block_power`` is ``(n_blocks,)`` or ``(n_blocks, K)``; the
        result is ``(n_cells,)`` or ``(n_cells, K)``.
        """
        block_power = np.asarray(block_power, dtype=float)
        if block_power.ndim not in (1, 2) or len(block_power) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} block powers, got {block_power.shape}"
            )
        areas = self._areas if block_power.ndim == 1 else self._areas[:, None]
        return _spmv(self._overlap_t, block_power / areas)

    # --- temperature aggregation ------------------------------------------

    def cell_to_block_average(self, cell_values: np.ndarray) -> np.ndarray:
        """Area-weighted average of a cell field over each block."""
        cell_values = np.asarray(cell_values, dtype=float)
        if cell_values.ndim not in (1, 2) or cell_values.shape[-1] != self.n_cells:
            raise ValueError(
                f"expected {self.n_cells} cell values, got {cell_values.shape}"
            )
        if cell_values.ndim == 1:
            return _spmv(self._overlap, cell_values) / self._areas
        # (T, n_cells) -> (T, n_blocks) for e.g. time series of maps.
        return _spmv(self._overlap, cell_values.T).T / self._areas

    def block_weight_vector(self, block_index: int) -> np.ndarray:
        """Per-cell weights whose dot with a cell field gives one
        block's area-weighted average (a row of the averaging operator)."""
        if not 0 <= block_index < self.n_blocks:
            raise GeometryError(f"no block with index {block_index}")
        row = self._overlap.getrow(block_index)
        weights = np.zeros(self.n_cells)
        weights[row.indices] = row.data / self._areas[block_index]
        return weights

    # --- geometry helpers --------------------------------------------------

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinates of cell centers as flat vectors."""
        xs = (np.arange(self.nx) + 0.5) * self.dx
        ys = (np.arange(self.ny) + 0.5) * self.dy
        gx, gy = np.meshgrid(xs, ys)
        return gx.ravel(), gy.ravel()

    def cell_index(self, x: float, y: float) -> int:
        """Flat index of the cell containing the point (x, y)."""
        if not (0 <= x < self.floorplan.die_width
                and 0 <= y < self.floorplan.die_height):
            raise GeometryError(f"point ({x}, {y}) is outside the die")
        i = min(int(x / self.dx), self.nx - 1)
        j = min(int(y / self.dy), self.ny - 1)
        return j * self.nx + i

    def as_grid(self, cell_values: np.ndarray) -> np.ndarray:
        """Reshape a flat cell vector to (ny, nx) with row 0 at y = 0."""
        cell_values = np.asarray(cell_values, dtype=float)
        return cell_values.reshape(self.ny, self.nx)
