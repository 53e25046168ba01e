"""Steady-state solution of a thermal RC network.

Steady state solves ``A x = P`` for the vector of temperature rises
``x = T - T_ambient``, where ``A`` is the symmetric positive definite
system matrix of the network.  :func:`steady_state` factors through
:data:`~repro.solver.backends.LINEAR_BACKEND`, solves and drops the
factor: nothing is cached on the network.  Many powers for one network
go in as the columns of one call; a loop whose next power depends on
the last solve factors once with :func:`steady_factor` and passes it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Union

import numpy as np
from scipy import sparse

from .. import obs
from ..errors import SolverError
from ..rcmodel.grid import ThermalGridModel
from ..rcmodel.network import ThermalNetwork
from .backends import LINEAR_BACKEND, Factor

_FACTORIZATIONS = obs.metrics().counter("solver.steady.factorizations")
_SOLVES = obs.metrics().counter("solver.steady.solves")


def system_fingerprint(matrix: sparse.spmatrix) -> str:
    """A fast content hash of a CSC/CSR sparse matrix.

    Hashes the storage format, shape, array dtypes, and the
    value/index/pointer arrays; two matrices share a fingerprint iff
    they hold identical sparse content in the same representation.
    The format and index dtype matter: the same logical matrix stored
    CSC vs CSR (or with int32 vs int64 indices) factorizes through
    different code paths, so the raw buffer bytes alone are not a safe
    identity.  Cost is linear in nnz (a memory pass), negligible next
    to a factorization.
    """
    digest = hashlib.sha256()
    digest.update(matrix.format.encode())
    digest.update(repr(matrix.shape).encode())
    digest.update(str(matrix.data.dtype).encode())
    digest.update(str(matrix.indices.dtype).encode())
    digest.update(str(matrix.indptr.dtype).encode())
    digest.update(np.ascontiguousarray(matrix.data).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    return digest.hexdigest()


def steady_factor(network: ThermalNetwork) -> Factor:
    """Factor the network's steady system for repeated solves."""
    # factorize normalizes SuperLU's failure modes to SolverError
    factor = LINEAR_BACKEND.factorize(network.system_matrix)
    _FACTORIZATIONS.inc()
    return factor


def steady_state(
    network: ThermalNetwork,
    node_power: np.ndarray,
    factor: Optional[Factor] = None,
) -> np.ndarray:
    """Node temperature rises for a ``(n_nodes,)`` or ``(n_nodes, K)``
    node power (W); column ``k`` is bitwise the solve of that column
    alone.  ``factor`` (:func:`steady_factor` of this network) skips
    the factorization."""
    node_power = np.asarray(node_power, dtype=float)
    if node_power.ndim not in (1, 2) or len(node_power) != network.n_nodes:
        raise SolverError(
            f"power vector has shape {node_power.shape}, "
            f"expected ({network.n_nodes},) or ({network.n_nodes}, K)"
        )
    if not np.all(np.isfinite(node_power)):
        raise SolverError(
            "power vector contains non-finite values (NaN/Inf); "
            "check the block power map before solving"
        )
    if factor is None:
        factor = steady_factor(network)
    if node_power.ndim == 1:
        rise = factor.solve(node_power)
    else:
        rise = factor.solve_columns(node_power)
    if not np.all(np.isfinite(rise)):
        raise SolverError(
            "steady-state solve produced non-finite temperatures"
        )
    _SOLVES.inc(1 if node_power.ndim == 1 else node_power.shape[1])
    return rise


def steady_block_temperatures(
    model: ThermalGridModel,
    block_power: Union[np.ndarray, Dict[str, float]],
) -> Dict[str, float]:
    """Per-block steady temperatures (Kelvin) for a power assignment.

    Convenience wrapper: expands block power onto the grid, solves, and
    aggregates back to named blocks.
    """
    rise = steady_state(model.network, model.node_power(block_power))
    temps = model.block_temperatures(rise)
    return model.floorplan.power_dict(temps)
