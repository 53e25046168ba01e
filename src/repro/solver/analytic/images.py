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

These helpers implement the transform pair the spectral kernel is
expressed in: even extension + ``rfft2`` forward, ``irfft2`` + crop
back.  The image construction lives here, once, so the kernel and the
engine cannot disagree on conventions.
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
    """Spectral coefficients of a field's even extension.

    Returns the ``rfft2`` of :func:`even_extend`, shape
    ``(2 ny, nx + 1)`` complex.
    """
    return _fft.rfft2(even_extend(field))


def inverse_modes(modes: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """Invert :func:`forward_modes` and crop to the physical quadrant."""
    full = _fft.irfft2(modes, s=(2 * ny, 2 * nx))
    return np.ascontiguousarray(full[:ny, :nx])


def neumann_eigenvalues(n: int, n_modes: int) -> np.ndarray:
    """Eigenvalues of the 1-D Neumann path Laplacian on ``n`` cells.

    ``lam[q] = 2 (1 - cos(pi q / n))`` for ``q = 0 .. n_modes - 1`` —
    evaluated at the periodic frequencies of the 2n-point extension,
    which coincide with the Neumann (DCT-II) spectrum.
    """
    q = np.arange(n_modes)
    return 2.0 * (1.0 - np.cos(np.pi * q / n))
