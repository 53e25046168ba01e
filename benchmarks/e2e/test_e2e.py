"""Tests of the end-to-end benchmark and its layer tracer.

Run with ``pytest benchmarks/e2e``.
"""

import json
import os

import numpy as np
import pytest

from benchmarks.e2e import layers, run


def _two_node_network():
    from repro.rcmodel.network import NetworkBuilder

    net = NetworkBuilder()
    a = net.add_node(1.0)
    b = net.add_node(2.0)
    net.connect(a, b, 0.5)
    net.to_ambient(b, 0.25)
    return net.build()


def test_identity_wrapping_catches_from_import_binding():
    import repro.experiments.fig03 as fig03  # binds steady_state by from-import
    import repro.solver.steady as steady

    original = steady.steady_state
    network = _two_node_network()
    tracer = layers.Tracer(
        {"solver.drive": (layers.Target("repro.solver.steady", "steady_state"),)},
        {},
    )
    with tracer:
        assert fig03.steady_state is steady.steady_state is not original
        fig03.steady_state(network, np.array([1.0, 0.0]))
    assert fig03.steady_state is original and steady.steady_state is original
    assert tracer.stats["solver.drive"].calls == 1


def test_nested_self_time_arithmetic():
    now = [0.0]
    tracer = layers.Tracer({}, {}, clock=lambda: now[0])
    outer_stats = layers.LayerStats()
    inner_stats = layers.LayerStats()
    items_stats = layers.LayerStats()

    def inner():
        now[0] += 2.0

    def items():
        for _ in range(3):
            now[0] += 0.5
            yield wrapped_inner()

    def outer():
        now[0] += 1.0
        wrapped_inner()
        for _ in wrapped_items():
            now[0] += 0.25
        now[0] += 4.0

    wrapped_inner = tracer._wrap(inner, inner_stats, None, True)
    wrapped_items = tracer._wrap(items, items_stats, layers._count_item, True)
    tracer._wrap(outer, outer_stats, None, True)()

    # inner: 1 direct call + 3 from the generator, 2 s each
    assert inner_stats.calls == 4
    assert inner_stats.self_s == pytest.approx(8)
    # the generator's own work is 3 x 0.5 s; its resumptions hold inner
    assert (items_stats.calls, items_stats.counts["items"]) == (1, 3)
    assert items_stats.self_s == pytest.approx(1.5)
    assert items_stats.total_s == pytest.approx(7.5)
    assert outer_stats.self_s == pytest.approx(1 + 3 * 0.25 + 4)
    assert outer_stats.total_s == pytest.approx(outer_stats.self_s + 2 + 7.5)
    assert not tracer._stack


def test_inherited_method_wrapping_leaves_results_bitwise_unchanged():
    from repro.experiments.common import ev6_air_model
    from repro.solver import (BatchScenario, batched_transient_simulate,
                              steady_state)
    from repro.solver import backends

    def compute():
        # a fresh model each time: no factor cached on the network
        model = ev6_air_model(nx=6, ny=6)
        power = model.node_power({"IntReg": 2.0, "Dcache": 1.0})
        rise = steady_state(model.network, power)
        batched = batched_transient_simulate(
            model.network, [BatchScenario(power), BatchScenario(2 * power)],
            t_end=0.01, dt=1e-3)
        return rise, batched.states

    expected = compute()
    subclass = backends._SuperLUFactor
    own_before = set(vars(subclass))
    tracer = layers.Tracer()
    with tracer:
        # solve_columns is inherited from Factor: no own entry is added
        assert set(vars(subclass)) == own_before
        traced = compute()
    assert set(vars(subclass)) == own_before
    for want, got in zip(expected, traced):
        assert np.array_equal(want, got)
    assert tracer.stats["solver.factorize"].calls == 2
    # 10 steps x 2 columns solved one by one, plus the steady solve
    assert tracer.stats["solver.solve"].calls == 1 + 10 * (1 + 2)


@pytest.mark.slow
def test_fig12_trace_iteration_emits_every_benchmark_metric():
    with open(os.path.join(run.REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    result = run.measure("fig12-trace", seed=0, seconds=0, trace=True)

    assert result["failures"] == []
    assert (result["attempted"], result["failed"]) == (2, 0)
    for metric in spec["end_to_end"]:
        assert result["samples"][metric["name"]], metric["name"]
    per_layer = result["per_layer"]
    assert set(per_layer) == {metric["name"] for metric in spec["per_layer"]}
    assert per_layer["microarch.simulate.calls"] == 0
    assert per_layer["solver.factorize.calls"] == 4
    assert per_layer["solver.transient.steps"] == 7800
    assert per_layer["trace.coverage"] >= 0.9
