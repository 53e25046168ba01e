"""Tests for the batched transient engine and campaign batch execution.

The contract under test is strict: a batched column must be **bitwise
identical** (``np.array_equal``, no tolerance) to running that scenario
alone.  SuperLU solves a 2-D right-hand side column by column in the
serial operation order, so any divergence is a bug in how the batch
assembles powers or states, never legitimate float noise.
"""

import numpy as np
import pytest

from repro.errors import CampaignError, ConfigurationError, SolverError
from repro.floorplan import uniform_grid_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import (
    BatchScenario,
    PiecewiseConstantSchedule,
    batched_simulate_schedules,
    batched_transient_simulate,
    simulate_schedule,
    transient_simulate,
)


@pytest.fixture(scope="module")
def model():
    plan = uniform_grid_floorplan(16e-3, 16e-3, nx=3, ny=3)
    config = oil_silicon_package(16e-3, 16e-3, uniform_h=True,
                                 include_secondary=False, ambient=318.15)
    return ThermalGridModel(plan, config, nx=6, ny=6)


@pytest.fixture(scope="module")
def powers(model):
    rng = np.random.default_rng(7)
    return [rng.uniform(0.0, 2.0, model.n_nodes) for _ in range(4)]


def assert_column_identical(serial, batched, key):
    column = batched.scenario(key)
    assert np.array_equal(serial.times, column.times)
    assert np.array_equal(serial.states, column.states)


# --- batched_transient_simulate ---------------------------------------------


def test_constant_powers_bitwise_identical(model, powers):
    net = model.network
    scenarios = [BatchScenario(power=p) for p in powers]
    batched = batched_transient_simulate(net, scenarios, t_end=0.5, dt=0.01)
    assert batched.n_scenarios == len(powers)
    for k, p in enumerate(powers):
        serial = transient_simulate(net, p, t_end=0.5, dt=0.01)
        assert_column_identical(serial, batched, k)


def test_nonuniform_x0_columns_bitwise_identical(model, powers):
    net = model.network
    rng = np.random.default_rng(11)
    x0s = [None, np.zeros(net.n_nodes),
           rng.uniform(0.0, 5.0, net.n_nodes),
           rng.uniform(0.0, 5.0, net.n_nodes)]
    scenarios = [BatchScenario(power=p, x0=x0)
                 for p, x0 in zip(powers, x0s)]
    batched = batched_transient_simulate(net, scenarios, t_end=0.3, dt=0.01)
    for k, (p, x0) in enumerate(zip(powers, x0s)):
        serial = transient_simulate(net, p, t_end=0.3, dt=0.01, x0=x0)
        assert_column_identical(serial, batched, k)


def test_callable_powers_bitwise_identical(model, powers):
    net = model.network
    base = powers[0]

    def make(scale):
        return lambda t: base * (1.0 + scale * np.sin(7.0 * t))

    fns = [make(s) for s in (0.1, 0.5, 0.9)]
    batched = batched_transient_simulate(
        net, [BatchScenario(power=f) for f in fns], t_end=0.3, dt=0.01
    )
    for k, f in enumerate(fns):
        serial = transient_simulate(net, f, t_end=0.3, dt=0.01)
        assert_column_identical(serial, batched, k)


def test_misaligned_horizon_bitwise_identical(model, powers):
    net = model.network
    scenarios = [BatchScenario(power=p) for p in powers]
    batched = batched_transient_simulate(net, scenarios, t_end=0.505, dt=0.01)
    assert batched.times[-1] == 0.505  # exact horizon
    for k, p in enumerate(powers):
        serial = transient_simulate(net, p, t_end=0.505, dt=0.01)
        assert_column_identical(serial, batched, k)


def test_projector_record_every_and_backward_euler(model, powers):
    net = model.network
    scenarios = [BatchScenario(power=p, tag=f"job{k}")
                 for k, p in enumerate(powers)]
    batched = batched_transient_simulate(
        net, scenarios, t_end=0.5, dt=0.01, method="backward_euler",
        record_every=5, projector=model.block_rise,
    )
    assert batched.tags == ("job0", "job1", "job2", "job3")
    for k, p in enumerate(powers):
        serial = transient_simulate(
            net, p, t_end=0.5, dt=0.01, method="backward_euler",
            record_every=5, projector=model.block_rise,
        )
        assert_column_identical(serial, batched, f"job{k}")


def test_schedule_power_fast_path_matches_callable(model, powers):
    # a schedule column inside batched_transient_simulate must sample
    # exactly like handing power_at to the serial integrator
    net = model.network
    rng = np.random.default_rng(3)
    schedules = [
        PiecewiseConstantSchedule(
            (0.0, 0.1, 0.25, 0.4),
            tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(3)),
        )
        for _ in range(3)
    ]
    batched = batched_transient_simulate(
        net, [BatchScenario(power=s) for s in schedules],
        t_end=0.4, dt=0.005,
    )
    for k, schedule in enumerate(schedules):
        serial = transient_simulate(net, schedule.power_at,
                                    t_end=0.4, dt=0.005)
        assert_column_identical(serial, batched, k)


def test_batch_validation(model, powers):
    net = model.network
    with pytest.raises(SolverError):
        batched_transient_simulate(net, [], t_end=0.1, dt=0.01)
    with pytest.raises(SolverError):
        batched_transient_simulate(
            net, [BatchScenario(power=powers[0], tag="a"),
                  BatchScenario(power=powers[1], tag="a")],
            t_end=0.1, dt=0.01,
        )
    with pytest.raises(SolverError):
        batched_transient_simulate(
            net, [BatchScenario(power=powers[0][:3])], t_end=0.1, dt=0.01
        )
    with pytest.raises(SolverError):
        batched_transient_simulate(
            net, [BatchScenario(power=powers[0],
                                x0=np.zeros(3))], t_end=0.1, dt=0.01
        )
    result = batched_transient_simulate(
        net, [BatchScenario(power=powers[0])], t_end=0.1, dt=0.01
    )
    with pytest.raises(SolverError):
        result.index_of("nope")


# --- batched_simulate_schedules ----------------------------------------------


def test_schedule_walk_bitwise_identical(model):
    net = model.network
    rng = np.random.default_rng(5)
    boundaries = (0.0, 0.1, 0.25, 0.4)
    schedules = [
        PiecewiseConstantSchedule(
            boundaries,
            tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(3)),
        )
        for _ in range(3)
    ]
    # dt=0.007 does not divide the segments: exercises short-stepper
    # insertion at every boundary
    batched = batched_simulate_schedules(net, schedules, dt=0.007)
    for k, schedule in enumerate(schedules):
        serial = simulate_schedule(net, schedule, dt=0.007)
        assert_column_identical(serial, batched, k)


def test_schedule_walk_with_x0s_and_projector(model):
    net = model.network
    rng = np.random.default_rng(9)
    boundaries = (0.0, 0.05, 0.2)
    schedules = [
        PiecewiseConstantSchedule(
            boundaries,
            tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(2)),
        )
        for _ in range(2)
    ]
    x0s = [rng.uniform(0.0, 4.0, net.n_nodes), None]
    batched = batched_simulate_schedules(
        net, schedules, dt=0.005, x0s=x0s,
        projector=model.block_rise, tags=["a", "b"],
    )
    for k, (schedule, x0) in enumerate(zip(schedules, x0s)):
        serial = simulate_schedule(net, schedule, dt=0.005, x0=x0,
                                   projector=model.block_rise)
        assert_column_identical(serial, batched, k)


def test_mismatched_boundary_grids_rejected(model):
    net = model.network
    rng = np.random.default_rng(1)
    a = PiecewiseConstantSchedule(
        (0.0, 0.1, 0.2),
        tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(2)),
    )
    b = PiecewiseConstantSchedule(
        (0.0, 0.15, 0.2),
        tuple(rng.uniform(0.0, 2.0, net.n_nodes) for _ in range(2)),
    )
    with pytest.raises(SolverError):
        batched_simulate_schedules(net, [a, b], dt=0.01)


# --- campaign batch execution ------------------------------------------------


def _trace_ensemble_campaign(n_seeds=3, nx=8, ny=8):
    from repro.campaign import CampaignSpec, JobSpec, ModelSpec

    model = ModelSpec(chip="ev6", package="oil", nx=nx, ny=ny,
                      uniform_h=True, target_resistance=0.3, ambient_c=45.0)
    jobs = tuple(
        JobSpec.make("trace_transient", tag=f"seed{s}", model=model,
                     duration=0.008, instructions=30_000, seed=s,
                     thermal_stride=10, init="steady")
        for s in range(n_seeds)
    )
    return CampaignSpec(name="batch-test-ensemble", jobs=jobs)


def test_campaign_batches_same_model_trace_jobs():
    from repro.campaign import run_campaign

    spec = _trace_ensemble_campaign()
    serial = run_campaign(spec, batch=False)
    batched = run_campaign(spec, batch=True)
    assert serial.ok and batched.ok
    for outcome in batched.outcomes:
        assert outcome.worker == "batched"
    for outcome in serial.outcomes:
        assert outcome.worker != "batched"
    for job in spec.jobs:
        a = serial.result_for(job.tag)
        b = batched.result_for(job.tag)
        assert np.array_equal(a.arrays["times"], b.arrays["times"])
        assert np.array_equal(a.arrays["block_rise_k"],
                              b.arrays["block_rise_k"])
    assert batched.summary.n_jobs == serial.summary.n_jobs == 3


def test_batched_cold_jobs_count_as_cache_misses(tmp_path):
    from repro import obs
    from repro.campaign import ResultCache, run_campaign

    before = obs.metrics().snapshot()
    run = run_campaign(_trace_ensemble_campaign(),
                       cache=ResultCache(tmp_path))
    counters = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    assert all(outcome.worker == "batched" for outcome in run.outcomes)
    assert run.summary.n_cached == 0 and run.summary.n_jobs == 3
    assert counters["campaign.cache.misses"] == 3
    assert "campaign.cache.hits" not in counters


def test_campaign_batches_dtm_policy_groups():
    from repro.campaign import run_campaign
    from repro.experiments.dtm_study import dtm_campaign

    spec = dtm_campaign(nx=8, ny=8, cycles=3)
    serial = run_campaign(spec, batch=False)
    batched = run_campaign(spec, batch=True)
    assert serial.ok and batched.ok
    assert all(o.worker == "batched" for o in batched.outcomes)
    for job in spec.jobs:
        a = serial.result_for(job.tag)
        b = batched.result_for(job.tag)
        # closed-loop scalars are bitwise equal, not approximately equal
        assert a.scalars == b.scalars


def test_heterogeneous_models_fall_through_to_singles():
    from repro.campaign import JobSpec, ModelSpec, batch_groups

    oil = ModelSpec(chip="ev6", package="oil", nx=8, ny=8)
    air = ModelSpec(chip="ev6", package="air", nx=8, ny=8)
    jobs = [
        JobSpec.make("trace_transient", tag="a", model=oil, seed=0),
        JobSpec.make("trace_transient", tag="b", model=air, seed=0),
        JobSpec.make("trace_transient", tag="c", model=oil, seed=1),
        JobSpec.make("diagnostic", tag="d", value=1.0),
    ]
    groups, singles = batch_groups(jobs)
    assert len(groups) == 1
    assert sorted(job.tag for job in groups[0]) == ["a", "c"]
    assert sorted(job.tag for job in singles) == ["b", "d"]


def test_failing_batch_falls_back_to_per_job_execution(monkeypatch):
    from repro.campaign import batching, run_campaign

    spec = _trace_ensemble_campaign()

    def boom(specs):
        raise RuntimeError("injected batch failure")

    monkeypatch.setitem(batching.BATCH_RUNNERS, "trace_transient", boom)
    run = run_campaign(spec, batch=True)
    assert run.ok
    for outcome in run.outcomes:
        assert outcome.worker != "batched"


# --- lockstep DTM ------------------------------------------------------------


def test_run_dtm_batch_bitwise_identical_to_serial():
    from repro.campaign import ModelSpec
    from repro.campaign.runners import dtm_setup
    from repro.campaign.spec import JobSpec
    from repro.dtm.batch import run_dtm_batch

    model = ModelSpec(chip="ev6", package="oil", nx=8, ny=8,
                      uniform_h=True, target_resistance=1.0,
                      include_secondary=False, ambient_c=45.0).build()
    specs = [
        JobSpec.make("dtm_policy", tag=policy, model=None,
                     policy=policy, strength=strength, targets=targets,
                     cycles=3, base_power={"Dcache": 4.0})
        for policy, strength, targets in (
            ("fetch_throttle", 0.3, ["Dcache", "IntReg"]),
            ("dvfs", 0.7, None),
            ("clock_gating", 0.15, ["Dcache"]),
        )
    ]
    pairs = [dtm_setup(spec, model) for spec in specs]
    runs = run_dtm_batch([c for c, _ in pairs], [t for _, t in pairs])
    for (controller, trace), batched in zip(pairs, runs):
        serial = controller.run(trace)
        assert np.array_equal(serial.times, batched.times)
        assert np.array_equal(serial.true_max, batched.true_max)
        assert np.array_equal(serial.block_temps, batched.block_temps)
        assert np.array_equal(serial.engaged, batched.engaged)
        assert serial.performance == batched.performance
        assert serial.n_engagements == batched.n_engagements
        # sensor series match wherever sampled (NaN-safe comparison)
        assert np.array_equal(serial.sensor_max, batched.sensor_max,
                              equal_nan=True)


def test_run_dtm_batch_rejects_mixed_models_and_grids():
    from repro.campaign import ModelSpec
    from repro.campaign.runners import dtm_setup
    from repro.campaign.spec import JobSpec
    from repro.dtm.batch import run_dtm_batch

    spec_of = ModelSpec(chip="ev6", package="oil", nx=8, ny=8,
                        uniform_h=True, target_resistance=1.0,
                        include_secondary=False, ambient_c=45.0)
    model_a = spec_of.build()
    model_b = spec_of.build()
    job = JobSpec.make("dtm_policy", tag="p", model=None,
                       policy="dvfs", strength=0.7, cycles=2)
    ca, ta = dtm_setup(job, model_a)
    cb, tb = dtm_setup(job, model_b)
    with pytest.raises(ConfigurationError):
        run_dtm_batch([ca, cb], [ta, tb])
    short_job = JobSpec.make("dtm_policy", tag="q", model=None,
                             policy="dvfs", strength=0.7, cycles=1)
    ca2, short_trace = dtm_setup(short_job, model_a)
    with pytest.raises(ConfigurationError):
        run_dtm_batch([ca, ca2], [ta, short_trace])
    with pytest.raises(ConfigurationError):
        run_dtm_batch([], [])


def test_mixed_trace_grids_raise_in_batch_runner():
    from repro.campaign import ModelSpec
    from repro.campaign.batching import batch_trace_transient
    from repro.campaign.spec import JobSpec

    model = ModelSpec(chip="ev6", package="oil", nx=8, ny=8,
                      uniform_h=True, target_resistance=0.3, ambient_c=45.0)
    jobs = [
        JobSpec.make("trace_transient", tag="fine", model=model,
                     duration=0.008, instructions=30_000, seed=0,
                     thermal_stride=10, init="steady"),
        JobSpec.make("trace_transient", tag="coarse", model=model,
                     duration=0.008, instructions=30_000, seed=0,
                     thermal_stride=20, init="steady"),
    ]
    with pytest.raises((CampaignError, SolverError)):
        batch_trace_transient(jobs)


def test_schedule_walk_rejects_a_wrong_number_of_initial_states(model):
    net = model.network
    schedule = PiecewiseConstantSchedule.from_segments(
        [(0.01, np.ones(model.n_nodes))]
    )
    with pytest.raises(SolverError, match="initial states"):
        batched_simulate_schedules(net, [schedule, schedule], dt=0.01,
                                   x0s=[None])
