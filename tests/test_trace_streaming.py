"""Trace schedules stream block powers through the stepper.

The streamed path must equal the materialized node-power path kept in
``tests/schedule_reference.py`` bit for bit, serially and batched, and
must never hold an ``(n_samples, n_nodes)`` array.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.campaign import JobSpec, ModelSpec
from repro.errors import PowerTraceError
from repro.experiments.common import gcc_synthesized_trace
from repro.experiments.fig12 import fig12_ensemble_campaign
from repro.solver import PiecewiseConstantSchedule

from tests.schedule_reference import (
    reference_block_rise,
    reference_node_power,
    reference_trace_transient,
)

INSTRUCTIONS = 30_000


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")


def _jobs(package, stride, init, seeds, duration=0.004):
    model = fig12_ensemble_campaign(
        [0], package=package, nx=12, ny=12
    ).jobs[0].model
    return [
        JobSpec.make(
            "trace_transient", tag=f"seed{seed}", model=model,
            duration=duration, instructions=INSTRUCTIONS, seed=seed,
            thermal_stride=stride, init=init,
        )
        for seed in seeds
    ]


def _trace(job):
    trace = gcc_synthesized_trace(
        float(job.param("duration")), INSTRUCTIONS, int(job.param("seed"))
    )
    stride = int(job.param("thermal_stride"))
    return trace.resampled(stride) if stride > 1 else trace


def _assert_matches_reference(job, result):
    times, rises = reference_trace_transient(
        job.model.build(), _trace(job), init=job.param("init")
    )
    assert np.array_equal(result.arrays["times"], times)
    assert np.array_equal(result.arrays["block_rise_k"], rises)


@pytest.mark.parametrize("init", ["steady", "ambient"])
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("package", ["oil", "air"])
def test_serial_runner_equals_materialized_reference(package, stride, init):
    from repro.campaign.runners import run_trace_transient

    (job,) = _jobs(package, stride, init, seeds=[0])
    _assert_matches_reference(job, run_trace_transient(job))


@pytest.mark.parametrize("init", ["steady", "ambient"])
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("package", ["oil", "air"])
def test_batched_runner_equals_materialized_reference(package, stride, init):
    from repro.campaign.batching import batch_trace_transient

    jobs = _jobs(package, stride, init, seeds=[0, 1, 2])
    results = batch_trace_transient(jobs)
    for job in jobs:
        _assert_matches_reference(job, results[job.tag])


def test_cached_grid_operators_equal_operator_expressions():
    model = ModelSpec(nx=12, ny=12, uniform_h=True).build()
    rng = np.random.default_rng(4)
    powers = rng.uniform(0.0, 5.0, (model.n_blocks, 3))
    for k in range(3):
        assert np.array_equal(model.node_power(powers[:, k]),
                              reference_node_power(model, powers[:, k]))
    columns = model.inject(powers, np.zeros((model.n_nodes, 3)))
    states = rng.uniform(0.0, 30.0, (3, model.n_nodes))
    rises = model.block_rise(states)
    for k in range(3):
        assert np.array_equal(columns[:, k],
                              reference_node_power(model, powers[:, k]))
        assert np.array_equal(rises[k], reference_block_rise(model, states[k]))
        assert np.array_equal(model.block_rise(states[k]), rises[k])


def test_trace_job_never_materializes_node_powers(monkeypatch):
    """Peak traced allocation of the 12x12 OIL fig12 job stays well
    below one (n_samples x n_nodes) node-power schedule."""
    from repro.campaign.runners import run_trace_transient

    (job,) = _jobs("oil", 10, "steady", seeds=[0], duration=0.13)
    raw = gcc_synthesized_trace(0.13, INSTRUCTIONS, 0)
    monkeypatch.setattr(
        "repro.experiments.common.gcc_synthesized_trace",
        lambda duration, instructions, seed, mean_dwell, stride:
            raw.resampled(stride),
    )
    n_samples = raw.n_samples // 10
    n_nodes = job.model.build().n_nodes
    assert (n_samples, n_nodes) == (3900, 880)

    tracemalloc.start()
    try:
        result = run_trace_transient(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.arrays["block_rise_k"].shape == (n_samples + 1, 18)
    assert peak < 0.25 * n_samples * n_nodes * 8


def test_trace_job_holds_one_factor_at_a_time(monkeypatch):
    """The 12x12 OIL fig12 job drops its steady factor before it
    factors the trapezoidal system, so its peak holds one LU."""
    from repro.campaign.runners import run_trace_transient
    from repro.solver.backends import LINEAR_BACKEND

    live = weakref.WeakSet()
    live_counts = []
    factorize = LINEAR_BACKEND.factorize

    def tracked(matrix):
        factor = factorize(matrix)
        live.add(factor)
        live_counts.append(len(live))
        return factor

    monkeypatch.setattr(LINEAR_BACKEND, "factorize", tracked)
    (job,) = _jobs("oil", 10, "steady", seeds=[0])
    run_trace_transient(job)
    assert live_counts == [1, 1]  # the steady LU, then the trapezoidal one


@pytest.fixture(scope="module")
def oil_model():
    return ModelSpec(nx=6, ny=6, uniform_h=True).build()


@pytest.mark.parametrize("powers, match", [
    (np.array([[1.0] * 17 + [np.nan]]), "non-finite"),
    (np.ones((4, 17)), "17 columns"),
    (np.ones(18), "2-D"),
], ids=["nan-sample", "wrong-column-count", "not-2d"])
def test_block_schedule_rejected_at_construction(oil_model, powers, match):
    with pytest.raises(PowerTraceError, match=match):
        PiecewiseConstantSchedule.uniform(powers, 1e-3, oil_model)


def test_block_schedule_expands_one_segment_into_the_buffer(oil_model):
    rows = np.random.default_rng(2).uniform(0.0, 3.0, (3, 18))
    schedule = PiecewiseConstantSchedule.uniform(rows, 1e-3, oil_model)
    assert schedule.n_nodes == oil_model.n_nodes
    buffer = np.zeros(oil_model.n_nodes)
    for index in range(3):
        out = schedule.node_power(index, buffer)
        assert out is buffer
        assert np.array_equal(out, oil_model.node_power(rows[index]))
    assert np.array_equal(schedule.power_at(1.5e-3),
                          oil_model.node_power(rows[1]))
