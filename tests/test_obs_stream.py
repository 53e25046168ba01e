"""Tests for repro.obs campaign events and registry consistency."""

import threading
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    run_campaign,
)
from repro.obs.metrics import MetricsRegistry

TWO_BLOCK_POWER = (("IntReg", 3.0), ("Dcache", 2.0))


def steady_job(tag="job", nx=6):
    return JobSpec.make(
        "steady_blocks",
        tag=tag,
        model=ModelSpec(chip="ev6", package="oil", nx=nx, ny=nx,
                        direction="left_to_right", ambient_c=45.0),
        power="blocks", power_blocks=TWO_BLOCK_POWER,
    )


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


def batched_jobs(n=3):
    base = ModelSpec(chip="ev6", package="oil", nx=6, ny=6,
                     direction="left_to_right", ambient_c=45.0)
    return tuple(
        JobSpec.make(
            "trace_transient", tag=f"t{i}", model=base,
            duration=0.002, instructions=20_000, seed=i, init="ambient",
        )
        for i in range(n)
    )


@pytest.mark.parametrize("mode", ["serial", "batched", "pool"])
def test_campaign_events_start_each_job_before_it_finishes(mode):
    """The parent emits one job_started per job, before that job's
    job_finished, whichever way the job is executed."""
    if mode == "batched":
        pytest.importorskip("scipy")
        jobs = batched_jobs()
    else:
        jobs = tuple(steady_job(f"j{i}", nx=6 + i) for i in range(3))
    campaign = CampaignSpec(name=f"events-{mode}", jobs=jobs)
    events = []
    run = run_campaign(
        campaign, jobs=2 if mode == "pool" else 1, cache=None,
        batch=mode == "batched", on_event=events.append,
    )
    assert run.ok
    if mode == "batched":
        assert all(o.worker == "batched" for o in run.outcomes)
    types = [e["type"] for e in events]
    assert types[0] == "campaign_started"
    assert types[-1] == "campaign_finished"
    for spec in campaign.jobs:
        mine = [e["type"] for e in events if e["tag"] == spec.tag]
        assert mine == ["job_started", "job_finished"], f"{spec.tag}: {mine}"


def test_streaming_leaves_summary_metrics_identical():
    """A run with an on_event callback leaves the same summary metrics
    and the same global counter deltas as a run without one."""
    jobs = tuple(steady_job(f"m{i}", nx=8 + i) for i in range(2))

    def counted(**kwargs):
        before = obs.metrics().snapshot()
        run = run_campaign(jobs=1, cache=None, **kwargs)
        after = obs.metrics().snapshot()
        return run, obs.snapshot_diff(after, before)["counters"]

    plain, c_plain = counted(
        campaign=CampaignSpec(name="ident-plain", jobs=jobs))
    events = []
    streamed, c_streamed = counted(
        campaign=CampaignSpec(name="ident-stream", jobs=jobs),
        on_event=events.append)
    assert events
    assert plain.summary.metrics == streamed.summary.metrics
    assert c_plain["solver.steady.solves"] == 2.0
    assert c_plain == c_streamed


def test_campaign_stream_emits_cached_events(tmp_path):
    campaign = CampaignSpec(name="stream-cached", jobs=(steady_job("c1"),))
    cache = ResultCache(tmp_path / "cache")
    run_campaign(campaign, jobs=1, cache=cache)
    events = []
    run = run_campaign(campaign, jobs=1, cache=cache, on_event=events.append)
    assert run.outcomes[0].status == "cached"
    types = [e["type"] for e in events]
    assert "job_cached" in types
    assert "job_started" not in types  # cache hits are never dispatched


# ---------------------------------------------------------------------------
# satellite: cache counters survive concurrent read-modify-write
# ---------------------------------------------------------------------------


def test_cache_counters_concurrent_bumps_lose_nothing(tmp_path):
    """Two campaigns bumping one store must not interleave-and-lose.

    Each thread opens its own ResultCache (its own lockfile fd, like a
    separate process would); the flock around the read-modify-write
    makes the persisted total exact.
    """
    root = tmp_path / "store"
    ResultCache(root)  # create the store layout once
    n_threads, n_bumps = 8, 30
    barrier = threading.Barrier(n_threads)

    def hammer():
        cache = ResultCache(root)
        barrier.wait()
        for _ in range(n_bumps):
            cache._bump("hits")

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    persisted = ResultCache(root).persisted_counters()
    assert persisted["hits"] == n_threads * n_bumps


# ---------------------------------------------------------------------------
# satellite: internally consistent registry snapshots
# ---------------------------------------------------------------------------


def test_registry_instruments_share_one_lock():
    registry = MetricsRegistry()
    solves = registry.counter("solver.steady.solves")
    factorizations = registry.counter("solver.steady.factorizations")
    assert solves._lock is registry._lock
    assert factorizations._lock is registry._lock


def test_registry_snapshot_consistent_under_concurrent_increments():
    registry = MetricsRegistry()
    a = registry.counter("solver.steady.solves")
    b = registry.counter("solver.steady.factorizations")
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            a.inc()
            b.inc()

    def reader():
        while not stop.is_set():
            snap = registry.snapshot()["counters"]
            va = snap.get("solver.steady.solves", 0.0)
            vb = snap.get("solver.steady.factorizations", 0.0)
            # a is always incremented first, so a consistent view can
            # never show b ahead of a
            if vb > va:
                torn.append((va, vb))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert torn == []
