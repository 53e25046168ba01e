"""The one linear-algebra engine (DESIGN.md §5.5).

Pins what every solver relies on: SuperLU factors with a symmetric
minimum-degree ordering (the fill of the fig12 OIL system is pinned,
so a silent return to COLAMD fails), a multi-column solve is bitwise
the per-column one, factorization failures surface as
:class:`SolverError`, the steady factor cache is keyed on the system
matrix's content, and a cached steady solve is bitwise a fresh
factor-and-solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.campaign.spec import ModelSpec
from repro.errors import SolverError
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import steady_state
from repro.solver.backends import LINEAR_BACKEND
from repro.solver.steady import _FACTOR_CACHE_ATTR, system_fingerprint

# Tests that factor through the engine take it as a parameter whose id
# names it: SuperLU with a serial per-column back-solve.
on_engine = pytest.mark.parametrize(
    "engine", [LINEAR_BACKEND], ids=["superlu-serial"]
)


@pytest.fixture(scope="module")
def ev6_model():
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, uniform_h=True,
        include_secondary=False, ambient=318.15,
    )
    return ThermalGridModel(plan, config, nx=8, ny=8)


@pytest.fixture(scope="module")
def random_network():
    """A random SPD thermal network (random topology + ambient links)."""
    rng = np.random.default_rng(42)
    builder = NetworkBuilder()
    n = 30
    for _ in range(n):
        builder.add_node(rng.uniform(0.5, 2.0))
    for i in range(n - 1):  # a spanning chain keeps it connected
        builder.connect(i, i + 1, rng.uniform(0.1, 2.0))
    for _ in range(2 * n):  # plus random extra couplings
        i, j = rng.integers(0, n, size=2)
        if i != j:
            builder.connect(int(i), int(j), rng.uniform(0.05, 1.0))
    for i in range(n):
        builder.to_ambient(i, rng.uniform(0.05, 0.5))
    return builder.build()


def _floating_node_network():
    """Two coupled nodes plus one with zero conductance anywhere:
    the system matrix has an all-zero row, i.e. is exactly singular."""
    builder = NetworkBuilder()
    a = builder.add_node(1.0)
    b = builder.add_node(1.0)
    builder.add_node(1.0)  # floating: no connections, no ambient link
    builder.connect(a, b, 1.0)
    builder.to_ambient(a, 0.5)
    return builder.build()


def test_default_backend_orders_for_symmetric_fill():
    """The fig12 OIL trapezoidal system (24x24 EV6, dt = 1e-5) factors
    with a symmetric minimum-degree ordering: COLAMD's ~820k L+U
    entries would fail the bound, and partial pivoting on this
    M-matrix keeps the diagonal (no row interchanges)."""
    model = ModelSpec(
        chip="ev6", package="oil", nx=24, ny=24, uniform_h=True,
        target_resistance=0.3, include_secondary=True, ambient_c=45.0,
    ).build()
    network = model.network
    assert network.n_nodes == 3472
    matrix = sparse.diags(network.capacitance / 1e-5) + 0.5 * network.system_matrix
    lu = LINEAR_BACKEND.factorize(matrix.tocsc())._lu
    assert lu.L.nnz + lu.U.nnz <= 400_000
    assert np.array_equal(lu.perm_r, lu.perm_c)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_solve_columns_bitwise_per_column_property(seed, k):
    """``solve_columns(rhs)[:, j] == solve(rhs[:, j])`` for arbitrary
    SPD systems and batch widths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    b = rng.normal(size=(n, n))
    spd = sparse.csc_matrix(b @ b.T + n * np.eye(n))
    rhs = rng.normal(size=(n, k))
    factor = LINEAR_BACKEND.factorize(spd)
    blocked = factor.solve_columns(rhs)
    for j in range(k):
        assert np.array_equal(blocked[:, j], factor.solve(rhs[:, j]))


# -- the cached steady solve is a fresh factor-and-solve --------------------


@on_engine
def test_steady_equivalence_ev6(ev6_model, engine):
    rng = np.random.default_rng(3)
    power = ev6_model.node_power(
        rng.uniform(0.5, 8.0, len(ev6_model.floorplan.names))
    )
    network = ev6_model.network
    cached = steady_state(network, power)
    fresh = engine.factorize(network.system_matrix).solve(power)
    assert np.array_equal(cached, fresh)


@on_engine
def test_steady_equivalence_random_network(random_network, engine):
    rng = np.random.default_rng(5)
    power = rng.uniform(0.0, 3.0, random_network.n_nodes)
    cached = steady_state(random_network, power)
    fresh = engine.factorize(random_network.system_matrix).solve(power)
    assert np.array_equal(cached, fresh)


# -- failure normalization: SolverError at the boundary ----------------------


@on_engine
def test_floating_node_raises_solver_error(engine):
    """A zero-conductance (floating) node makes the steady system
    singular; that must surface as SolverError."""
    network = _floating_node_network()
    with pytest.raises(SolverError, match="factorization failed"):
        steady_state(network, np.zeros(network.n_nodes))
    with pytest.raises(SolverError, match="factorization failed"):
        engine.factorize(network.system_matrix)


@on_engine
def test_singular_matrix_factorize_raises_solver_error(engine):
    singular = sparse.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SolverError):
        engine.factorize(singular)


# -- fingerprint and factor-cache identity -----------------------------------


def test_fingerprint_distinguishes_storage_format():
    matrix = sparse.random(12, 12, density=0.3, random_state=0,
                           format="csc")
    assert system_fingerprint(matrix) != system_fingerprint(matrix.tocsr())


def test_fingerprint_distinguishes_index_dtype():
    matrix = sparse.random(12, 12, density=0.3, random_state=0,
                           format="csc")
    widened = matrix.copy()
    widened.indices = widened.indices.astype(np.int64)
    widened.indptr = widened.indptr.astype(np.int64)
    assert system_fingerprint(matrix) != system_fingerprint(widened)


def test_fingerprint_stable_for_identical_content():
    matrix = sparse.random(12, 12, density=0.3, random_state=0,
                           format="csc")
    assert system_fingerprint(matrix) == system_fingerprint(matrix.copy())


def test_same_backend_reuses_cached_factor(random_network):
    power = np.ones(random_network.n_nodes)
    steady_state(random_network, power)
    key_before, factor_before = getattr(random_network, _FACTOR_CACHE_ATTR)
    assert key_before == system_fingerprint(random_network.system_matrix)
    steady_state(random_network, 2.0 * power)
    _, factor_after = getattr(random_network, _FACTOR_CACHE_ATTR)
    assert factor_after is factor_before
