"""The one linear-algebra engine behind every thermal solve.

Every solver engine — steady, transient, adaptive, batched — reduces to
the same operations on a constant system matrix: factorize once, then
back-solve many times (one RHS, or a lockstep batch of columns).  All
of them factor through :data:`LINEAR_BACKEND`: SuperLU with a symmetric
minimum-degree ordering, back-solved column by column so that a batch
column is bitwise the serial solve (DESIGN.md §5.4–5.5).

Factorization failures (singular SuperLU ``RuntimeError``, scipy
validation ``ValueError``, ``LinAlgError``) are normalized to
:class:`~repro.errors.SolverError` here, so callers see one exception
type.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .. import obs
from ..errors import SolverError

try:
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    def csr_matvecs(matrix: Any, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` for 2-D ``x`` without operator-dispatch cost.

        Calls the same C kernel scipy's ``@`` runs (``csr_matvecs``),
        which accumulates each output column in exactly the single-
        vector order — so column ``k`` is bitwise ``matrix @ x[:, k]``.
        The batched stepping loop calls this every step, where the
        public operator's per-call validation would dominate on small
        grids.
        """
        n_row, n_col = matrix.shape
        n_vecs = x.shape[1]
        x = np.ascontiguousarray(x)
        out = np.zeros((n_row, n_vecs))
        _scipy_sparsetools.csr_matvecs(
            n_row, n_col, n_vecs, matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), out.ravel(),
        )
        return out
except ImportError:  # pragma: no cover - scipy layout changed
    def csr_matvecs(matrix: Any, x: np.ndarray) -> np.ndarray:
        return matrix @ x


class Factor:
    """A factorization of one system matrix, ready for repeated solves."""

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve one right-hand-side vector ``(n,)``."""
        raise NotImplementedError

    def solve_columns(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve a multi-column RHS ``(n, K)``.

        Solves column by column against the shared factorization — the
        exact serial operation sequence, so ``solve_columns(rhs)[:, k]``
        is bitwise ``solve(rhs[:, k])`` by construction (see DESIGN.md
        §5.4 for why SuperLU's blocked multi-RHS kernel cannot be
        certified bitwise).
        """
        rhs = np.asfortranarray(rhs)  # column slices become copy-free views
        out = np.empty(rhs.shape)  # C order: the next RHS ravels for free
        for k in range(rhs.shape[1]):
            out[:, k] = self.solve(rhs[:, k])
        return out


class _SuperLUFactor(Factor):
    """Wraps a SuperLU object; inherits the bitwise column loop."""

    def __init__(self, lu: Any) -> None:
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


class LinearBackend:
    """SuperLU with a symmetric fill-reducing ordering.

    Every system factored here is a symmetric, diagonally dominant
    M-matrix, so ``splu`` orders columns by minimum degree on
    ``A^T + A`` (``MMD_AT_PLUS_A``) in symmetric mode rather than with
    COLAMD, which is built for unsymmetric matrices: about half the
    L+U fill and half the back-solve time.  SuperLU's default partial
    pivoting stays on; on these matrices it keeps the diagonal (no
    row interchanges), and a matrix that is not diagonally dominant is
    still pivoted safely.  The ordering suits the complex symmetric
    ``G + jωC`` systems of the frequency analysis as well.
    """

    def factorize(self, matrix: sparse.spmatrix) -> Factor:
        """Factorize a sparse system matrix, or raise SolverError."""
        with obs.span("solver.backend.factorize",
                      n_nodes=matrix.shape[0], nnz=int(matrix.nnz)):
            try:
                lu = splu(
                    matrix.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True),
                )
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                # RuntimeError: SuperLU singular-matrix errors;
                # ValueError: scipy input validation.
                raise SolverError(f"factorization failed: {exc}") from exc
            except np.linalg.LinAlgError as exc:
                # A ValueError subclass on recent numpy, but derives
                # straight from Exception on older releases — name it
                # explicitly so the 3.9 CI lane normalizes it too.
                raise SolverError(f"factorization failed: {exc}") from exc
        return _SuperLUFactor(lu)


#: The engine every solver factors through.
LINEAR_BACKEND = LinearBackend()
