"""Property-based tests (hypothesis) on core invariants.

These cover the structural guarantees the thermal solvers rely on:
energy conservation, positivity, monotonicity in power, superposition
(the network is linear), and the correctness of the block/grid overlap
algebra for arbitrary geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.convection.correlations import (
    average_heat_transfer_coefficient,
    local_heat_transfer_coefficient,
    thermal_boundary_layer_thickness,
)
from repro.floorplan import GridMapping, uniform_grid_floorplan
from repro.floorplan.block import Block
from repro.materials import MINERAL_OIL
from repro.package import oil_silicon_package
from repro.rcmodel import NetworkBuilder, ThermalGridModel
from repro.solver import steady_state, transient_simulate

# A shared small model: building one per example would dominate runtime.
_PLAN = uniform_grid_floorplan(16e-3, 16e-3, nx=2, ny=2, prefix="q")
_CONFIG = oil_silicon_package(
    16e-3, 16e-3, uniform_h=True, include_secondary=False, ambient=300.0
)
_MODEL = ThermalGridModel(_PLAN, _CONFIG, nx=8, ny=8)


@given(
    powers=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=4, max_size=4
    )
)
@settings(max_examples=30, deadline=None)
def test_steady_rise_nonnegative_and_conserves_energy(powers):
    power = _MODEL.node_power(np.asarray(powers))
    rise = steady_state(_MODEL.network, power)
    assert np.all(rise >= -1e-9)
    assert _MODEL.network.heat_to_ambient(rise) == pytest.approx(
        sum(powers), abs=1e-9 + 1e-9 * sum(powers)
    )


@given(
    p1=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4,
                max_size=4),
    p2=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4,
                max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_superposition(p1, p2):
    r1 = steady_state(_MODEL.network, _MODEL.node_power(np.asarray(p1)))
    r2 = steady_state(_MODEL.network, _MODEL.node_power(np.asarray(p2)))
    r12 = steady_state(
        _MODEL.network, _MODEL.node_power(np.asarray(p1) + np.asarray(p2))
    )
    np.testing.assert_allclose(r12, r1 + r2, rtol=1e-9, atol=1e-9)


@given(
    base=st.floats(min_value=1.0, max_value=50.0),
    extra=st.floats(min_value=0.1, max_value=50.0),
    block=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_monotone_in_power(base, extra, block):
    p_lo = np.full(4, base)
    p_hi = p_lo.copy()
    p_hi[block] += extra
    r_lo = steady_state(_MODEL.network, _MODEL.node_power(p_lo))
    r_hi = steady_state(_MODEL.network, _MODEL.node_power(p_hi))
    assert np.all(r_hi >= r_lo - 1e-12)


@given(
    dt=st.floats(min_value=1e-3, max_value=0.2),
    power=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=15, deadline=None)
def test_transient_bounded_by_steady(dt, power):
    node_power = _MODEL.node_power(np.full(4, power / 4.0))
    steady = steady_state(_MODEL.network, node_power)
    result = transient_simulate(
        _MODEL.network, node_power, t_end=min(20 * dt, 2.0), dt=dt
    )
    # heating from ambient never overshoots the steady state
    assert np.all(result.states <= steady[None, :] * (1 + 1e-9) + 1e-12)
    assert np.all(result.states >= -1e-12)


@given(
    nx=st.integers(min_value=1, max_value=9),
    ny=st.integers(min_value=1, max_value=9),
    gx=st.integers(min_value=1, max_value=13),
    gy=st.integers(min_value=1, max_value=13),
)
@settings(max_examples=30, deadline=None)
def test_grid_mapping_conserves_power_and_area(nx, ny, gx, gy):
    plan = uniform_grid_floorplan(11e-3, 7e-3, nx=nx, ny=ny)
    mapping = GridMapping(plan, nx=gx, ny=gy)
    power = np.linspace(1.0, 2.0, nx * ny)
    cells = mapping.block_power_to_cells(power)
    assert cells.sum() == pytest.approx(power.sum(), rel=1e-9)
    field = np.full(mapping.n_cells, 3.14)
    np.testing.assert_allclose(
        mapping.cell_to_block_average(field), 3.14, rtol=1e-9
    )


@given(
    width=st.floats(min_value=1e-4, max_value=5e-3),
    height=st.floats(min_value=1e-4, max_value=5e-3),
    x=st.floats(min_value=0.0, max_value=5e-3),
    y=st.floats(min_value=0.0, max_value=5e-3),
)
@settings(max_examples=50, deadline=None)
def test_block_overlap_symmetry_and_bounds(width, height, x, y):
    a = Block("a", 2e-3, 2e-3, 1e-3, 1e-3)
    b = Block("b", width, height, x, y)
    overlap = a.overlap_area(b)
    assert overlap == pytest.approx(b.overlap_area(a), rel=1e-12)
    assert 0.0 <= overlap <= min(a.area, b.area) + 1e-18


@given(
    velocity=st.floats(min_value=0.2, max_value=20.0),
    length=st.floats(min_value=5e-3, max_value=50e-3),
)
@settings(max_examples=40, deadline=None)
def test_convection_correlation_identities(velocity, length):
    # Eqn 8's local coefficient at x = L is exactly half Eqn 2's
    # average over [0, L]; delta_t shrinks as velocity grows.
    h_avg = average_heat_transfer_coefficient(velocity, length, MINERAL_OIL)
    h_end = local_heat_transfer_coefficient(
        velocity, np.array([length]), MINERAL_OIL, length
    )[0]
    assert h_end == pytest.approx(h_avg / 2.0, rel=1e-9)
    d1 = thermal_boundary_layer_thickness(velocity, length, MINERAL_OIL)
    d2 = thermal_boundary_layer_thickness(2 * velocity, length, MINERAL_OIL)
    assert d2 < d1


@given(
    caps=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=3,
                  max_size=6),
    conducts=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2,
                      max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_arbitrary_chain_network_is_spd(caps, conducts):
    builder = NetworkBuilder()
    nodes = [builder.add_node(c) for c in caps]
    for i in range(len(nodes) - 1):
        builder.connect(nodes[i], nodes[i + 1], conducts[i % len(conducts)])
    builder.to_ambient(nodes[0], 0.5)
    net = builder.build()
    matrix = net.system_matrix.toarray()
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(matrix) > 0)


# --- block model properties --------------------------------------------------

from repro.rcmodel import ThermalBlockModel

_BLOCK_MODEL = ThermalBlockModel(
    _PLAN,
    oil_silicon_package(
        16e-3, 16e-3, uniform_h=True, include_secondary=False,
        ambient=300.0,
    ),
)


@given(
    powers=st.lists(
        st.floats(min_value=0.0, max_value=60.0), min_size=4, max_size=4
    )
)
@settings(max_examples=25, deadline=None)
def test_block_model_conserves_and_stays_positive(powers):
    power = _BLOCK_MODEL.node_power(np.asarray(powers))
    rise = steady_state(_BLOCK_MODEL.network, power)
    assert np.all(rise >= -1e-9)
    assert _BLOCK_MODEL.network.heat_to_ambient(rise) == pytest.approx(
        sum(powers), abs=1e-9 + 1e-9 * sum(powers)
    )


@given(
    block=st.integers(min_value=0, max_value=3),
    watts=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=20, deadline=None)
def test_block_and_grid_models_agree_on_hottest(block, watts):
    power = np.zeros(4)
    power[block] = watts
    rise_b = _BLOCK_MODEL.block_rise(
        steady_state(_BLOCK_MODEL.network, _BLOCK_MODEL.node_power(power))
    )
    rise_g = _MODEL.block_rise(
        steady_state(_MODEL.network, _MODEL.node_power(power))
    )
    assert int(np.argmax(rise_b)) == int(np.argmax(rise_g)) == block


# --- schedule properties ------------------------------------------------------

from repro.solver.events import PiecewiseConstantSchedule


@given(
    durations=st.lists(
        st.floats(min_value=1e-3, max_value=2.0), min_size=1, max_size=6
    ),
    levels=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6
    ),
)
@settings(max_examples=40, deadline=None)
def test_schedule_average_is_duration_weighted(durations, levels):
    n = min(len(durations), len(levels))
    segments = [
        (durations[i], np.array([levels[i]])) for i in range(n)
    ]
    schedule = PiecewiseConstantSchedule.from_segments(segments)
    # lookups return exactly the segment levels
    t = 0.0
    for i in range(n):
        mid = t + durations[i] / 2
        assert schedule.power_at(mid)[0] == pytest.approx(levels[i])
        t += durations[i]


# --- synthesizer properties ----------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_synthesizer_stays_in_envelope(seed):
    from repro.microarch import (
        MicroarchSimulator, TraceSynthesizer, gcc_like_workload,
    )
    from repro.floorplan import ev6_floorplan
    plan = ev6_floorplan()
    simulator = MicroarchSimulator(plan)
    base = simulator.run(gcc_like_workload(instructions=40_000, seed=0))
    synth = TraceSynthesizer(base, simulator.last_window_phases, seed=seed)
    long_trace = synth.synthesize(duration=0.002)
    # every synthesized row is a copy of a measured row: the envelope
    # can never be exceeded
    assert long_trace.samples.max() <= base.samples.max() + 1e-12
    assert long_trace.samples.min() >= base.samples.min() - 1e-12
    assert long_trace.dt == base.dt
