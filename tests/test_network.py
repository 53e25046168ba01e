"""Tests for the generic thermal RC network builder."""

import numpy as np
import pytest

from repro.errors import ModelBuildError
from repro.rcmodel import NetworkBuilder


def build_two_node():
    builder = NetworkBuilder()
    a = builder.add_node(1.0, label="a")
    b = builder.add_node(2.0, label="b")
    builder.connect(a, b, 0.5)
    builder.to_ambient(b, 0.25)
    return builder.build(), a, b


def test_basic_build():
    net, a, b = build_two_node()
    assert net.n_nodes == 2
    assert net.node_labels == {"a": 0, "b": 1}
    np.testing.assert_allclose(net.capacitance, [1.0, 2.0])
    np.testing.assert_allclose(net.ambient_conductance, [0.0, 0.25])


def test_laplacian_structure():
    net, a, b = build_two_node()
    lap = net.laplacian.toarray()
    np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]])
    # rows sum to zero: pure inter-node conduction conserves heat
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-15)


def test_system_matrix_is_symmetric_positive_definite():
    net, _, _ = build_two_node()
    a = net.system_matrix.toarray()
    np.testing.assert_allclose(a, a.T)
    eigvals = np.linalg.eigvalsh(a)
    assert np.all(eigvals > 0)


def test_system_matrix_buffers_are_frozen():
    """Every solve shares the cached CSC: a would-be in-place edit of
    its buffers raises instead of silently desynchronizing the matrix
    from the network's fields."""
    net, _, _ = build_two_node()
    system = net.system_matrix
    assert not system.data.flags.writeable
    with pytest.raises(ValueError):
        system.data[0] = 99.0
    # reads and copies still work
    assert system.toarray().shape == (2, 2)
    mutable = system.copy()
    mutable.data[0] = 99.0  # a copy is fair game


def test_network_vectors_are_read_only():
    """The network is immutable: an in-place edit of a vector the
    cached system matrix was built from raises."""
    net, a, _ = build_two_node()
    with pytest.raises(ValueError, match="read-only"):
        net.ambient_conductance[a] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        net.capacitance[a] = 5.0
    np.testing.assert_allclose(net.system_matrix.toarray(),
                               [[0.5, -0.5], [-0.5, 0.75]])


def test_parallel_conductances_accumulate():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.connect(a, b, 0.5)
    builder.connect(b, a, 0.5)  # same pair, either order
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.laplacian[0, 1] == pytest.approx(-1.0)


def test_zero_conductance_is_ignored():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_node(1.0)
    builder.connect(a, 1, 0.0)
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.laplacian.nnz == 0


def test_self_connection_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    with pytest.raises(ModelBuildError):
        builder.connect(a, a, 1.0)


def test_duplicate_labels_rejected():
    builder = NetworkBuilder()
    builder.add_node(1.0, label="x")
    with pytest.raises(ModelBuildError):
        builder.add_node(1.0, label="x")


def test_no_ambient_path_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.connect(a, b, 1.0)
    with pytest.raises(ModelBuildError):
        builder.build()


def test_negative_conductance_rejected():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_node(1.0)
    with pytest.raises(ValueError):
        builder.connect(a, 1, -1.0)


def test_add_capacitance_accumulates():
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    builder.add_capacitance(a, 0.5)
    builder.to_ambient(a, 1.0)
    net = builder.build()
    assert net.capacitance[0] == pytest.approx(1.5)


def test_vectorized_builders_match_scalar():
    b1 = NetworkBuilder()
    nodes = b1.add_nodes([1.0, 1.0, 1.0])
    b1.connect_many(nodes[:-1], nodes[1:], [0.5, 0.25])
    b1.to_ambient_many(nodes, 0.1)
    net1 = b1.build()

    b2 = NetworkBuilder()
    for _ in range(3):
        b2.add_node(1.0)
    b2.connect(0, 1, 0.5)
    b2.connect(1, 2, 0.25)
    for i in range(3):
        b2.to_ambient(i, 0.1)
    net2 = b2.build()

    np.testing.assert_allclose(
        net1.system_matrix.toarray(), net2.system_matrix.toarray()
    )


def test_heat_to_ambient():
    net, _, _ = build_two_node()
    rise = np.array([3.0, 4.0])
    assert net.heat_to_ambient(rise) == pytest.approx(0.25 * 4.0)


def test_totals():
    net, _, _ = build_two_node()
    assert net.total_capacitance() == pytest.approx(3.0)
    assert net.total_ambient_conductance() == pytest.approx(0.25)


class PerEdgeNetworkBuilder:
    """The list-based builder whose array methods looped per edge through
    the scalar ones; the reference the array appends must match."""

    def __init__(self):
        self._capacitance, self._labels = [], {}
        self._rows, self._cols, self._vals = [], [], []
        self._amb_nodes, self._amb_vals = [], []

    def add_node(self, capacitance, label=None):
        index = len(self._capacitance)
        self._capacitance.append(float(capacitance))
        if label is not None:
            self._labels[label] = index
        return index

    def add_nodes(self, capacitances):
        start = len(self._capacitance)
        self._capacitance.extend(np.asarray(capacitances, float).tolist())
        return np.arange(start, len(self._capacitance))

    def add_capacitance(self, node, capacitance):
        self._capacitance[node] += float(capacitance)

    def add_capacitances(self, nodes, capacitances):
        values = np.broadcast_to(np.asarray(capacitances, float),
                                 np.shape(nodes))
        for node, value in zip(np.asarray(nodes).ravel(), values.ravel()):
            self.add_capacitance(int(node), float(value))

    def connect(self, a, b, conductance):
        if conductance == 0.0:  # exact zero = omitted edge
            return
        self._rows.append(int(a))
        self._cols.append(int(b))
        self._vals.append(float(conductance))

    def connect_many(self, a_nodes, b_nodes, conductances):
        a_nodes = np.asarray(a_nodes).ravel()
        b_nodes = np.asarray(b_nodes).ravel()
        values = np.broadcast_to(np.asarray(conductances, float),
                                 a_nodes.shape)
        for a, b, g in zip(a_nodes, b_nodes, values):
            self.connect(int(a), int(b), float(g))

    def to_ambient(self, node, conductance):
        if conductance == 0.0:  # exact zero = no ambient path
            return
        self._amb_nodes.append(int(node))
        self._amb_vals.append(float(conductance))

    def to_ambient_many(self, nodes, conductances):
        nodes = np.asarray(nodes).ravel()
        values = np.broadcast_to(np.asarray(conductances, float), nodes.shape)
        for node, g in zip(nodes, values):
            self.to_ambient(int(node), float(g))

    def build(self):
        from scipy import sparse

        from repro.rcmodel import ThermalNetwork

        n = len(self._capacitance)
        rows = np.asarray(self._rows + self._cols, dtype=int)
        cols = np.asarray(self._cols + self._rows, dtype=int)
        vals = np.asarray(self._vals + self._vals, dtype=float)
        off_diag = sparse.coo_matrix((-vals, (rows, cols)),
                                     shape=(n, n)).tocsr()
        degree = -np.asarray(off_diag.sum(axis=1)).ravel()
        ambient = np.zeros(n)
        np.add.at(ambient, np.asarray(self._amb_nodes, dtype=int),
                  np.asarray(self._amb_vals, dtype=float))
        return ThermalNetwork(off_diag + sparse.diags(degree), ambient,
                              np.asarray(self._capacitance), self._labels)


@pytest.mark.parametrize("package", ["air", "oil"])
def test_array_appends_equal_per_edge_build(monkeypatch, package):
    from repro.campaign import ModelSpec

    spec = ModelSpec(package=package, nx=12, ny=12,
                     include_secondary=package == "oil")
    arrays = spec.build().network
    monkeypatch.setattr("repro.rcmodel.grid.NetworkBuilder",
                        PerEdgeNetworkBuilder)
    per_edge = spec.build().network
    for a, b in ((arrays.system_matrix, per_edge.system_matrix),
                 (arrays.laplacian, per_edge.laplacian)):
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(arrays.ambient_conductance,
                          per_edge.ambient_conductance)
    assert np.array_equal(arrays.capacitance, per_edge.capacitance)
    assert arrays.node_labels == per_edge.node_labels


def test_array_appends_validate_once_per_call():
    builder = NetworkBuilder()
    nodes = builder.add_nodes([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="conductance"):
        builder.connect_many(nodes[:-1], nodes[1:], [0.5, np.nan])
    with pytest.raises(ValueError, match="conductance"):
        builder.to_ambient_many(nodes, [0.1, -0.1, 0.1])
    with pytest.raises(ModelBuildError, match="itself"):
        builder.connect_many(nodes, nodes[::-1], 1.0)
    with pytest.raises(ModelBuildError, match="unknown node"):
        builder.add_capacitances(np.array([0, 3]), 1.0)
    # a rejected call appends nothing
    builder.to_ambient_many(nodes, 0.1)
    net = builder.build()
    assert net.laplacian.nnz == 0
