"""Method-of-images transforms for adiabatic lateral walls.

The RC grid's lateral boundaries are adiabatic (Neumann): no heat
leaves through the die's side walls.  The classic method of images
handles such walls by mirroring every heat source across each
boundary; on the discrete grid this is *exact* — reflecting the
``(ny, nx)`` power map into a ``(2ny, 2nx)`` half-sample-even field
and solving the periodic problem reproduces the Neumann solution on
the original quadrant, because the DFT of the even extension
diagonalizes the path-graph (Neumann) Laplacian with eigenvalues
``2 (1 - cos(pi q / n))``.

The DFT of a half-sample-even field is, up to a phase per mode, the
DCT-II of the original quadrant, and its modes ``q >= n`` repeat the
modes ``2n - q`` with the same eigenvalue.  The transform pair the
spectral kernel is expressed in is therefore the orthonormal 2-D
DCT-II of the ``(ny, nx)`` field: the image construction without the
redundant three quarters of the extended grid.  :func:`even_extend`
keeps the explicit construction for reference and tests.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft


def even_extend(field: np.ndarray) -> np.ndarray:
    """Half-sample-even (mirror) extension of a ``(ny, nx)`` field.

    Lays out the four image quadrants ``[[F, F_x], [F_y, F_xy]]`` where
    ``F_x``/``F_y``/``F_xy`` flip the field across the right, top, and
    corner walls.  The result is ``(2ny, 2nx)`` and periodic-symmetric,
    so a periodic solve on it is the Neumann solve on the original.
    """
    wide = np.concatenate([field, field[:, ::-1]], axis=1)
    return np.concatenate([wide, wide[::-1, :]], axis=0)


def forward_modes(field: np.ndarray) -> np.ndarray:
    """Neumann-mode coefficients of a ``(ny, nx)`` field.

    The orthonormal 2-D DCT-II, shape ``(ny, nx)`` real; mode
    ``(qy, qx)`` has eigenvalue ``lam_y[qy] + lam_x[qx]`` under the
    path Laplacian (:func:`neumann_eigenvalues`).
    """
    return _fft.dctn(field, type=2, norm="ortho")


def inverse_modes(modes: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """Invert :func:`forward_modes` back to a ``(ny, nx)`` field."""
    if modes.shape != (ny, nx):
        raise ValueError(
            f"modes have shape {modes.shape}, expected ({ny}, {nx})"
        )
    return _fft.idctn(modes, type=2, norm="ortho")


def neumann_eigenvalues(n: int, n_modes: int) -> np.ndarray:
    """Eigenvalues of the 1-D Neumann path Laplacian on ``n`` cells.

    ``lam[q] = 2 (1 - cos(pi q / n))`` for ``q = 0 .. n_modes - 1`` —
    the DCT-II spectrum for ``q < n``, continued to the periodic
    frequencies of the 2n-point even extension.
    """
    q = np.arange(n_modes)
    return 2.0 * (1.0 - np.cos(np.pi * q / n))
