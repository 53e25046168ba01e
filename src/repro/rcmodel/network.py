"""Generic thermal RC networks.

A thermal network is an undirected graph of nodes with thermal
capacitances, conductances between node pairs, and conductances from
individual nodes to the ambient (a Dirichlet boundary folded out of the
system).  Writing ``x = T - T_ambient`` for the vector of temperature
rises:

* steady state:  ``A x = P``
* transient:     ``C dx/dt = P(t) - A x``

where ``A = L + diag(g_amb)`` combines the graph Laplacian ``L`` of the
inter-node conductances with the per-node ambient conductances.  ``A``
is symmetric and, whenever at least one node reaches ambient, positive
definite -- properties the tests assert and the solvers rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..errors import ModelBuildError
from ..units import require_non_negative

#: Anything the vectorized builder methods broadcast over.
ArrayLike = Union[float, Sequence[float], np.ndarray]

_NO_NODES = np.zeros(0, dtype=int)
_NO_VALUES = np.zeros(0)


class ThermalNetwork:
    """An assembled thermal RC network (see module docstring).

    The network is immutable: its vectors are made read-only here, so
    the cached system matrix can never fall out of step with them.
    """

    def __init__(
        self,
        conductance: sparse.spmatrix,
        ambient_conductance: np.ndarray,
        capacitance: np.ndarray,
        node_labels: Optional[Dict[str, int]] = None,
    ) -> None:
        n = conductance.shape[0]
        if conductance.shape != (n, n):
            raise ModelBuildError("conductance matrix must be square")
        if ambient_conductance.shape != (n,) or capacitance.shape != (n,):
            raise ModelBuildError("vector lengths do not match matrix size")
        if np.any(capacitance <= 0):
            raise ModelBuildError("every node needs positive capacitance")
        if np.any(ambient_conductance < 0):
            raise ModelBuildError("ambient conductances must be >= 0")
        if ambient_conductance.sum() <= 0:
            raise ModelBuildError(
                "no path to ambient: the steady-state problem is singular"
            )
        self._laplacian = conductance.tocsr()
        ambient_conductance.setflags(write=False)
        capacitance.setflags(write=False)
        self.ambient_conductance = ambient_conductance
        self.capacitance = capacitance
        self.node_labels = dict(node_labels or {})
        self._system: Optional[sparse.csc_matrix] = None

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network (ambient excluded)."""
        return self._laplacian.shape[0]

    @property
    def laplacian(self) -> sparse.csr_matrix:
        """Graph Laplacian of inter-node conductances (no ambient)."""
        return self._laplacian

    @property
    def system_matrix(self) -> sparse.csc_matrix:
        """``A = L + diag(g_amb)``, cached in CSC form for factorization.

        The returned matrix is the cached instance itself, shared by
        every solve of this network, so its CSC buffers are frozen:
        ``.copy()`` the matrix before editing it.
        """
        if self._system is None:
            system = (
                self._laplacian + sparse.diags(self.ambient_conductance)
            ).tocsc()
            system.data.setflags(write=False)
            system.indices.setflags(write=False)
            system.indptr.setflags(write=False)
            self._system = system
        return self._system

    def total_ambient_conductance(self) -> float:
        """Sum of all conductances to ambient, W/K."""
        return float(self.ambient_conductance.sum())

    def total_capacitance(self) -> float:
        """Sum of all node capacitances, J/K."""
        return float(self.capacitance.sum())

    def heat_to_ambient(self, rise: np.ndarray) -> float:
        """Total heat flow into the ambient for a temperature-rise state."""
        return float(self.ambient_conductance @ rise)


class NetworkBuilder:
    """Incremental construction of a :class:`ThermalNetwork`.

    Conductances between the same node pair accumulate (parallel
    combination); capacitance added to the same node accumulates too.
    Every method appends whole arrays, validated once per call; the
    scalar methods are one-element calls of their array forms, and
    :meth:`build` concatenates the chunks in call order.
    """

    def __init__(self) -> None:
        self._n_nodes = 0
        self._node_caps: List[np.ndarray] = []
        self._labels: Dict[str, int] = {}
        #: (nodes, values) capacitance additions, applied in order
        self._cap_adds: List[Tuple[np.ndarray, np.ndarray]] = []
        self._edges: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._ambient: List[Tuple[np.ndarray, np.ndarray]] = []

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return self._n_nodes

    def add_node(self, capacitance: float, label: Optional[str] = None) -> int:
        """Add one node; returns its index."""
        require_non_negative("capacitance", capacitance)
        if label is not None and label in self._labels:
            raise ModelBuildError(f"duplicate node label {label!r}")
        index = int(self.add_nodes([capacitance])[0])
        if label is not None:
            self._labels[label] = index
        return index

    def add_nodes(self, capacitances: Sequence[float]) -> np.ndarray:
        """Add a block of nodes; returns their indices as an array."""
        capacitances = np.array(capacitances, dtype=float).ravel()
        if np.any(~np.isfinite(capacitances)) or np.any(capacitances < 0):
            raise ModelBuildError("capacitances must be finite and >= 0")
        start = self._n_nodes
        self._node_caps.append(capacitances)
        self._n_nodes += len(capacitances)
        return np.arange(start, self._n_nodes)

    def add_capacitance(self, node: int, capacitance: float) -> None:
        """Add extra capacitance to an existing node (e.g. the oil layer
        lumped onto the wetted silicon surface, paper Fig. 7(b))."""
        self.add_capacitances(np.array([node]), capacitance)

    def add_capacitances(self, nodes: np.ndarray, capacitances: ArrayLike) -> None:
        """Add capacitance to existing nodes (array form)."""
        nodes = np.asarray(nodes, dtype=int).ravel()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._n_nodes):
            raise ModelBuildError("capacitance added to an unknown node")
        values = _non_negative("capacitance", capacitances, nodes.shape)
        self._cap_adds.append((nodes, values))

    def connect(self, a: int, b: int, conductance: float) -> None:
        """Add a conductance (W/K) between nodes ``a`` and ``b``."""
        self.connect_many(np.array([a]), np.array([b]), conductance)

    def connect_many(
        self,
        a_nodes: Union[Sequence[int], np.ndarray],
        b_nodes: Union[Sequence[int], np.ndarray],
        conductances: ArrayLike,
    ) -> None:
        """Add conductances (W/K) between parallel node index arrays.

        Exact-zero conductances are omitted edges.
        """
        a_nodes = np.asarray(a_nodes, dtype=int).ravel()
        b_nodes = np.asarray(b_nodes, dtype=int).ravel()
        if a_nodes.shape != b_nodes.shape:
            raise ModelBuildError(
                f"{a_nodes.size} a-nodes but {b_nodes.size} b-nodes"
            )
        if np.any(a_nodes == b_nodes):
            raise ModelBuildError("cannot connect a node to itself")
        values = _non_negative("conductance", conductances, a_nodes.shape)
        keep = values != 0.0  # exact zero = omitted edge
        self._edges.append((a_nodes[keep], b_nodes[keep], values[keep]))

    def to_ambient(self, node: int, conductance: float) -> None:
        """Add a conductance from ``node`` to the ambient."""
        self.to_ambient_many(np.array([node]), conductance)

    def to_ambient_many(
        self,
        nodes: Union[Sequence[int], np.ndarray],
        conductances: ArrayLike,
    ) -> None:
        """Add conductances from each of ``nodes`` to the ambient.

        Exact-zero conductances add no ambient path.
        """
        nodes = np.asarray(nodes, dtype=int).ravel()
        values = _non_negative("conductance", conductances, nodes.shape)
        keep = values != 0.0  # exact zero = no ambient path
        self._ambient.append((nodes[keep], values[keep]))

    def build(self) -> ThermalNetwork:
        """Assemble the sparse Laplacian and return the network."""
        n = self._n_nodes
        if n == 0:
            raise ModelBuildError("network has no nodes")
        a = np.concatenate([edge[0] for edge in self._edges] + [_NO_NODES])
        b = np.concatenate([edge[1] for edge in self._edges] + [_NO_NODES])
        g = np.concatenate([edge[2] for edge in self._edges] + [_NO_VALUES])
        rows = np.concatenate((a, b))
        cols = np.concatenate((b, a))
        vals = np.concatenate((g, g))
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ModelBuildError("connection references an unknown node")
        off_diag = sparse.coo_matrix((-vals, (rows, cols)), shape=(n, n)).tocsr()
        degree = -np.asarray(off_diag.sum(axis=1)).ravel()
        laplacian = off_diag + sparse.diags(degree)
        ambient = np.zeros(n)
        for nodes, values in self._ambient:
            np.add.at(ambient, nodes, values)
        capacitance = np.concatenate(self._node_caps)
        for nodes, values in self._cap_adds:
            np.add.at(capacitance, nodes, values)
        if np.any(capacitance <= 0):
            zero = int(np.argmin(capacitance))
            raise ModelBuildError(
                f"node {zero} ended up with non-positive capacitance; every "
                f"physical node must store heat"
            )
        return ThermalNetwork(laplacian, ambient, capacitance, self._labels)


def _non_negative(name: str, values: ArrayLike, shape: Tuple[int, ...]) -> np.ndarray:
    """``values`` broadcast to ``shape`` as a fresh float array, checked
    finite and non-negative once for the whole call."""
    array = np.array(np.broadcast_to(np.asarray(values, dtype=float), shape))
    bad = ~(np.isfinite(array) & (array >= 0.0))
    if bad.any():
        raise ValueError(
            f"{name} must be a finite non-negative number, got "
            f"{float(array[bad][0])!r}"
        )
    return array
