"""Steady-state solution of a thermal RC network.

Steady state solves ``A x = P`` for the vector of temperature rises
``x = T - T_ambient``, where ``A`` is the symmetric positive definite
system matrix of the network.  The factorization goes through
:data:`~repro.solver.backends.LINEAR_BACKEND` and is cached on the
network, so repeated solves (e.g. the four flow directions of the
paper's Fig. 11, or DTM sweeps) refactor only when the network
changes.  The cache is keyed on a fingerprint of the system matrix
itself, so mutating the network (or rebuilding its system matrix)
after a solve triggers refactorization instead of silently reusing a
stale factor.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Union

import numpy as np
from scipy import sparse

from .. import obs
from ..errors import SolverError
from ..rcmodel.grid import ThermalGridModel
from ..rcmodel.network import ThermalNetwork
from .backends import LINEAR_BACKEND, Factor

_FACTOR_CACHE_ATTR = "_cached_lu_factor"

_FACTORIZATIONS = obs.metrics().counter("solver.steady.factorizations")
_FACTOR_CACHE_HITS = obs.metrics().counter("solver.steady.factor_cache_hits")
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
    to a factorization but enough to catch in-place mutation.
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


def _factorize(network: ThermalNetwork) -> Factor:
    matrix = network.system_matrix
    key = system_fingerprint(matrix)
    cached = getattr(network, _FACTOR_CACHE_ATTR, None)
    if cached is not None and cached[0] == key:
        _FACTOR_CACHE_HITS.inc()
        factor: Factor = cached[1]
        return factor
    # factorize normalizes SuperLU's failure modes to SolverError
    factor = LINEAR_BACKEND.factorize(matrix)
    _FACTORIZATIONS.inc()
    setattr(network, _FACTOR_CACHE_ATTR, (key, factor))
    return factor


def steady_state(
    network: ThermalNetwork,
    node_power: np.ndarray,
) -> np.ndarray:
    """Solve for node temperature rises given a node power vector (W)."""
    node_power = np.asarray(node_power, dtype=float)
    if node_power.shape != (network.n_nodes,):
        raise SolverError(
            f"power vector has shape {node_power.shape}, "
            f"expected ({network.n_nodes},)"
        )
    if not np.all(np.isfinite(node_power)):
        raise SolverError(
            "power vector contains non-finite values (NaN/Inf); "
            "check the block power map before solving"
        )
    factor = _factorize(network)
    rise = factor.solve(node_power)
    if not np.all(np.isfinite(rise)):
        raise SolverError(
            "steady-state solve produced non-finite temperatures"
        )
    _SOLVES.inc()
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
