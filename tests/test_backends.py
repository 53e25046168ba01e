"""The pluggable linear-algebra backend layer.

Pins the backend contract of DESIGN.md §5.5: ``superlu-serial``
factors with a symmetric minimum-degree ordering (the fill of the
fig12 OIL system is pinned, so a silent return to COLAMD fails) and
its batched results are bitwise the serial ones, tolerance
backends (``cholesky``, ``dense``) agree with the reference within
their declared rtol envelope, selection follows the documented
precedence (explicit arg > override scope > env var > default), every
backend's factorization failure surfaces as :class:`SolverError`, and
backend identity keys both the steady factor cache and the campaign
content hash.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.campaign.spec import CampaignSpec, JobSpec, ModelSpec
from repro.errors import SolverError
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import (
    AdaptiveTransientSolver,
    BatchScenario,
    batched_transient_simulate,
    steady_state,
    transient_simulate,
)
from repro.solver import backends
from repro.solver.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    LinearBackend,
    available_backends,
    backend_override,
    get_backend,
    register_backend,
)
from repro.solver.steady import _FACTOR_CACHE_ATTR, system_fingerprint

ALL_BACKENDS = ("superlu-serial", "cholesky", "dense")
TOLERANCE_BACKENDS = tuple(
    n for n in ALL_BACKENDS if not get_backend(n).bitwise
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


# -- registry and selection precedence ---------------------------------------


def test_all_three_backends_registered():
    assert set(ALL_BACKENDS) <= set(available_backends())


def test_default_backend_is_bitwise_superlu():
    backend = get_backend()
    assert backend.name == DEFAULT_BACKEND == "superlu-serial"
    assert backend.bitwise
    assert backend.rtol == 0.0  # repro-ok: float-equality; exact sentinel = bitwise engine


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
    lu = get_backend().factorize(matrix.tocsc())._lu
    assert lu.L.nnz + lu.U.nnz <= 400_000
    assert np.array_equal(lu.perm_r, lu.perm_c)


def test_tolerance_backends_declare_envelopes():
    assert TOLERANCE_BACKENDS  # at least one non-bitwise engine ships
    for name in TOLERANCE_BACKENDS:
        backend = get_backend(name)
        assert not backend.bitwise
        assert 0.0 < backend.rtol <= 1e-6


def test_unknown_backend_raises_solver_error():
    with pytest.raises(SolverError, match="unknown solver backend"):
        get_backend("does-not-exist")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "dense")
    assert get_backend().name == "dense"
    monkeypatch.setenv(ENV_VAR, "")  # empty: fall through to default
    assert get_backend().name == DEFAULT_BACKEND


def test_override_beats_env_var_and_explicit_beats_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "dense")
    with backend_override("cholesky") as scoped:
        assert scoped.name == "cholesky"
        assert get_backend().name == "cholesky"
        assert get_backend("superlu-serial").name == "superlu-serial"
    assert get_backend().name == "dense"


def test_override_validates_eagerly():
    with pytest.raises(SolverError, match="unknown solver backend"):
        with backend_override("no-such-engine"):
            pytest.fail("scope must not be entered")  # pragma: no cover


def test_override_scopes_nest_and_restore():
    with backend_override("dense"):
        with backend_override("cholesky"):
            assert get_backend().name == "cholesky"
        assert get_backend().name == "dense"
    assert get_backend().name == DEFAULT_BACKEND


def test_duplicate_registration_rejected():
    class Dupe(LinearBackend):
        name = "superlu-serial"

    with pytest.raises(SolverError, match="already registered"):
        register_backend(Dupe())


# -- equivalence vs the superlu-serial reference -----------------------------


def _reference_steady(network, power):
    return steady_state(network, power, backend="superlu-serial")


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_steady_equivalence_ev6(ev6_model, name):
    rng = np.random.default_rng(3)
    power = ev6_model.node_power(
        rng.uniform(0.5, 8.0, len(ev6_model.floorplan.names))
    )
    reference = _reference_steady(ev6_model.network, power)
    ev6_model.network.invalidate()  # drop the cached reference factor
    result = steady_state(ev6_model.network, power, backend=name)
    backend = get_backend(name)
    if backend.bitwise:
        assert np.array_equal(result, reference)
    else:
        np.testing.assert_allclose(result, reference, rtol=backend.rtol,
                                   atol=1e-12)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_steady_equivalence_random_network(random_network, name):
    rng = np.random.default_rng(5)
    power = rng.uniform(0.0, 3.0, random_network.n_nodes)
    reference = _reference_steady(random_network, power)
    random_network.invalidate()
    result = steady_state(random_network, power, backend=name)
    backend = get_backend(name)
    if backend.bitwise:
        assert np.array_equal(result, reference)
    else:
        np.testing.assert_allclose(result, reference, rtol=backend.rtol,
                                   atol=1e-12)


@pytest.mark.parametrize("name", ALL_BACKENDS)
@pytest.mark.parametrize("method", ("trapezoidal", "backward_euler"))
def test_transient_equivalence_ev6(ev6_model, name, method):
    rng = np.random.default_rng(11)
    power = ev6_model.node_power(
        rng.uniform(0.5, 8.0, len(ev6_model.floorplan.names))
    )
    reference = transient_simulate(
        ev6_model.network, power, t_end=0.05, dt=0.001, method=method,
        backend="superlu-serial",
    )
    result = transient_simulate(
        ev6_model.network, power, t_end=0.05, dt=0.001, method=method,
        backend=name,
    )
    assert np.array_equal(result.times, reference.times)
    backend = get_backend(name)
    if backend.bitwise:
        assert np.array_equal(result.states, reference.states)
    else:
        # error accumulates over steps; a modest multiple of the
        # per-solve envelope still pins the contract tightly
        np.testing.assert_allclose(
            result.states, reference.states,
            rtol=100 * backend.rtol, atol=1e-9,
        )


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_adaptive_equivalence_ev6(ev6_model, name):
    rng = np.random.default_rng(13)
    power = ev6_model.node_power(
        rng.uniform(0.5, 8.0, len(ev6_model.floorplan.names))
    )
    reference = AdaptiveTransientSolver(
        ev6_model.network, dt_min=1e-4, dt_max=0.1,
        backend="superlu-serial",
    ).integrate(power, t_end=0.2)
    result = AdaptiveTransientSolver(
        ev6_model.network, dt_min=1e-4, dt_max=0.1, backend=name,
    ).integrate(power, t_end=0.2)
    backend = get_backend(name)
    if backend.bitwise:
        assert np.array_equal(result.times, reference.times)
        assert np.array_equal(result.states, reference.states)
    else:
        # the error estimator may pick a different step sequence, so
        # compare the physics: the final states must agree
        np.testing.assert_allclose(
            result.final(), reference.final(),
            rtol=1000 * backend.rtol, atol=1e-9,
        )


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_batched_matches_serial_per_backend(ev6_model, name):
    """The ``batched == serial`` gate, applied per backend."""
    rng = np.random.default_rng(17)
    net = ev6_model.network
    powers = [rng.uniform(0.0, 5.0, net.n_nodes) for _ in range(3)]
    scenarios = [BatchScenario(power=p) for p in powers]
    batched = batched_transient_simulate(
        net, scenarios, t_end=0.05, dt=0.001, backend=name
    )
    backend = get_backend(name)
    for k, p in enumerate(powers):
        serial = transient_simulate(
            net, p, t_end=0.05, dt=0.001, backend=name
        )
        column = batched.scenario(k)
        assert np.array_equal(serial.times, column.times)
        if backend.bitwise:
            assert np.array_equal(serial.states, column.states)
        else:
            np.testing.assert_allclose(
                column.states, serial.states,
                rtol=100 * backend.rtol, atol=1e-9,
            )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_solve_columns_bitwise_per_column_property(seed, k):
    """``solve_columns(rhs)[:, j] == solve(rhs[:, j])`` (bitwise
    backends), for arbitrary SPD systems and batch widths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    b = rng.normal(size=(n, n))
    spd = sparse.csc_matrix(b @ b.T + n * np.eye(n))
    rhs = rng.normal(size=(n, k))
    for name in ALL_BACKENDS:
        backend = get_backend(name)
        if not backend.bitwise:
            continue
        factor = backend.factorize(spd)
        blocked = factor.solve_columns(rhs)
        for j in range(k):
            assert np.array_equal(blocked[:, j], factor.solve(rhs[:, j]))


@pytest.mark.parametrize("name", TOLERANCE_BACKENDS)
def test_solve_columns_within_envelope(name):
    rng = np.random.default_rng(23)
    n, k = 20, 5
    b = rng.normal(size=(n, n))
    spd = sparse.csc_matrix(b @ b.T + n * np.eye(n))
    rhs = rng.normal(size=(n, k))
    backend = get_backend(name)
    factor = backend.factorize(spd)
    blocked = factor.solve_columns(rhs)
    for j in range(k):
        np.testing.assert_allclose(
            blocked[:, j], factor.solve(rhs[:, j]),
            rtol=backend.rtol, atol=1e-12,
        )


# -- failure normalization (satellite: SolverError at the boundary) ----------


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_floating_node_raises_solver_error(name):
    """A zero-conductance (floating) node makes the steady system
    singular; every backend must surface that as SolverError."""
    network = _floating_node_network()
    with pytest.raises(SolverError, match="factorization failed|positive"):
        steady_state(network, np.zeros(network.n_nodes), backend=name)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_singular_matrix_factorize_raises_solver_error(name):
    singular = sparse.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SolverError):
        get_backend(name).factorize(singular)


@pytest.mark.parametrize("name", TOLERANCE_BACKENDS)
def test_symmetric_only_backends_reject_asymmetry(name):
    asym = sparse.csc_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(SolverError, match="symmetric"):
        get_backend(name).factorize(asym)


@pytest.mark.parametrize("name", TOLERANCE_BACKENDS)
def test_spd_backends_reject_indefinite(name):
    indefinite = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolverError):
        get_backend(name).factorize(indefinite)


# -- fingerprint and factor-cache identity (satellite: cache keying) ---------


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


def test_switching_backends_refactorizes(random_network):
    power = np.ones(random_network.n_nodes)
    steady_state(random_network, power, backend="superlu-serial")
    key_serial, factor_serial = getattr(random_network, _FACTOR_CACHE_ATTR)
    steady_state(random_network, power, backend="cholesky")
    key_chol, factor_chol = getattr(random_network, _FACTOR_CACHE_ATTR)
    assert key_serial != key_chol  # backend identity is part of the key
    assert factor_chol is not factor_serial
    # and coming back does not serve the cholesky factor either
    steady_state(random_network, power, backend="superlu-serial")
    key_back, factor_back = getattr(random_network, _FACTOR_CACHE_ATTR)
    assert key_back == key_serial
    assert factor_back is not factor_chol


def test_same_backend_reuses_cached_factor(random_network):
    power = np.ones(random_network.n_nodes)
    steady_state(random_network, power, backend="cholesky")
    _, factor_before = getattr(random_network, _FACTOR_CACHE_ATTR)
    steady_state(random_network, 2.0 * power, backend="cholesky")
    _, factor_after = getattr(random_network, _FACTOR_CACHE_ATTR)
    assert factor_after is factor_before


# -- campaign spec integration -----------------------------------------------


def test_backend_participates_in_job_hash():
    base = JobSpec.make("steady", "a", model=ModelSpec(nx=8, ny=8))
    pinned = JobSpec.make("steady", "a", model=ModelSpec(nx=8, ny=8),
                          backend="cholesky")
    assert base.content_hash != pinned.content_hash
    assert pinned.payload()["backend"] == "cholesky"
    assert base.payload()["backend"] is None


def test_campaign_backend_propagates_to_jobs():
    spec = CampaignSpec(
        name="c",
        jobs=(
            JobSpec.make("steady", "a", model=ModelSpec()),
            JobSpec.make("steady", "b", model=ModelSpec(),
                         backend="dense"),
        ),
        backend="cholesky",
    )
    assert spec.jobs[0].backend == "cholesky"  # campaign default applied
    assert spec.jobs[1].backend == "dense"  # job-explicit wins
    plain = CampaignSpec(
        name="c",
        jobs=(
            JobSpec.make("steady", "a", model=ModelSpec()),
            JobSpec.make("steady", "b", model=ModelSpec(),
                         backend="dense"),
        ),
    )
    assert spec.content_hash != plain.content_hash


def test_campaign_runs_under_pinned_backend(ev6_model):
    """An executed job resolves solver calls to the spec's backend."""
    from repro.campaign.executor import _backend_scope

    spec = JobSpec.make("steady", "a", model=ModelSpec(), backend="dense")
    with _backend_scope(spec):
        assert backends.get_backend().name == "dense"
    assert backends.get_backend().name == DEFAULT_BACKEND


def test_batch_groups_split_by_backend():
    from repro.campaign.batching import batch_groups

    model = ModelSpec(nx=8, ny=8)
    jobs = [
        JobSpec.make("trace_transient", f"a{i}", model=model)
        for i in range(2)
    ] + [
        JobSpec.make("trace_transient", f"b{i}", model=model,
                     backend="cholesky")
        for i in range(2)
    ]
    groups, rest = batch_groups(jobs)
    assert not rest
    assert len(groups) == 2  # one per backend, never mixed
    for group in groups:
        assert len({spec.backend for spec in group}) == 1
