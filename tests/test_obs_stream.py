"""Tests for repro.obs campaign events, progress and the ``obs tail`` CLI."""

import io
import json
import os
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
from repro.cli import main
from repro.obs.events import read_events_jsonl
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
    counter = registry.counter("solver.steady.solves")
    hist = registry.histogram("solver.steady.solve_seconds")
    wall = registry.histogram("campaign.job.wall_seconds")
    assert counter._lock is registry._lock
    assert hist._lock is registry._lock
    assert wall._lock is registry._lock


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


# ---------------------------------------------------------------------------
# the progress model and live renderer
# ---------------------------------------------------------------------------


def _synthetic_run_events():
    return [
        obs.make_event("campaign_started", campaign="fake", total=3,
                       tags=["a", "b", "c"]),
        obs.make_event("job_cached", tag="a", elapsed_s=0.01),
        obs.make_event("job_started", tag="b", kind="steady_blocks"),
        obs.make_event("job_finished", tag="b", status="ok", elapsed_s=0.1),
        obs.make_event("job_started", tag="c", kind="steady_blocks"),
    ]


def test_progress_model_folds_lifecycle():
    progress = obs.CampaignProgress()
    for event in _synthetic_run_events():
        progress.observe(event)
    counts = progress.counts()
    assert counts["cached"] == 1
    assert counts["finished"] == 1
    assert counts["running"] == 1
    assert progress.done == 2
    assert progress.total == 3
    assert progress.cache_hit_rate() == 0.5
    assert progress.eta_s() is not None
    [job_b] = [j for j in progress.jobs() if j.tag == "b"]
    assert job_b.state == "finished"
    line = progress.render_line()
    assert "2/3 done" in line
    assert "1 running" in line
    table = progress.render_table()
    assert "cached" in table and "running" in table


def test_progress_finishes_and_eta_drops_to_zero():
    progress = obs.CampaignProgress()
    events = _synthetic_run_events() + [
        obs.make_event("job_finished", tag="c", status="failed",
                       elapsed_s=0.2, error="boom"),
        obs.make_event("campaign_finished", campaign="fake", total=3),
    ]
    for event in events:
        progress.observe(event)
    assert progress.finished
    assert progress.counts()["failed"] == 1
    assert progress.eta_s() == 0.0
    assert progress.throughput() >= 0.0


def _two_job_run_events(campaign="smoke"):
    return [
        obs.make_event("campaign_started", campaign=campaign, total=2,
                       tags=["a", "b"]),
        obs.make_event("job_started", tag="a"),
        obs.make_event("job_finished", tag="a", status="ok", elapsed_s=0.1),
        obs.make_event("job_started", tag="b"),
        obs.make_event("job_finished", tag="b", status="ok", elapsed_s=0.1),
        obs.make_event("campaign_finished", campaign=campaign, total=2),
    ]


def test_campaign_started_begins_a_fresh_fold():
    """A sidecar appended across runs: run 2's campaign_started must
    clear run 1's finished jobs and finish time."""
    progress = obs.CampaignProgress()
    for event in _two_job_run_events():
        progress.observe(event)
    assert progress.finished
    progress.observe(obs.make_event("campaign_started", campaign="smoke",
                                    total=2, tags=["a", "b"]))
    assert not progress.finished
    assert progress.done == 0
    assert progress.counts()["pending"] == 2
    assert "smoke: 0/2 done" in progress.render_line()


def test_live_renderer_prints_one_final_line_on_a_pipe():
    out = io.StringIO()  # not a TTY: one printed line per paint
    renderer = obs.LiveRenderer(obs.CampaignProgress(), out=out,
                                min_interval_s=0.0)
    for event in _two_job_run_events():
        renderer.on_event(event)
    renderer.close()
    lines = out.getvalue().splitlines()
    assert [line for line in lines if "2/2 done" in line] == lines[-1:]


def test_live_renderer_close_paints_an_unfinished_run_once():
    out = io.StringIO()
    renderer = obs.LiveRenderer(obs.CampaignProgress(), out=out,
                                min_interval_s=60.0)
    for event in _two_job_run_events()[:-1]:  # no campaign_finished
        renderer.on_event(event)
    renderer.close()
    lines = out.getvalue().splitlines()
    assert [line for line in lines if "2/2 done" in line] == lines[-1:]


def test_live_renderer_paints_to_stream():
    out = io.StringIO()
    renderer = obs.LiveRenderer(obs.CampaignProgress(), out=out,
                                min_interval_s=0.0)
    for event in _synthetic_run_events():
        renderer.on_event(event)
    renderer.close()
    text = out.getvalue()
    assert "done" in text
    assert "eta" in text


# ---------------------------------------------------------------------------
# the CLI: obs tail and campaign --live
# ---------------------------------------------------------------------------


def test_cli_campaign_live_and_obs_tail(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    manifest = str(tmp_path / "run.jsonl")
    code = main([
        "-q", "campaign", "run", "smoke", "--no-cache",
        "--manifest", manifest, "--live",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "2/2 done" in line] == [
        err.splitlines()[-1]
    ]
    assert os.path.exists(manifest + ".events.jsonl")
    events = read_events_jsonl(manifest + ".events.jsonl")
    types = [e["type"] for e in events]
    assert types[0] == "campaign_started"
    assert types[-1] == "campaign_finished"
    assert len(events[0]["tags"]) == 2
    for tag in events[0]["tags"]:
        mine = [e["type"] for e in events if e["tag"] == tag]
        assert mine == ["job_started", "job_finished"], f"{tag}: {mine}"

    assert main(["obs", "tail", manifest, "--no-follow"]) == 0
    out = capsys.readouterr().out
    assert "done" in out
    assert main(["obs", "tail", manifest, "--no-follow", "--raw"]) == 0
    raw = capsys.readouterr().out
    assert "campaign_finished" in raw


def test_cli_obs_tail_missing_stream_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["obs", "tail", missing, "--no-follow"]) == 1
    assert "--live" in capsys.readouterr().err


def test_cli_obs_tail_follows_the_latest_run_of_a_reused_sidecar(
    tmp_path, capsys
):
    """Run 1 finished, run 2 just started: following must not stop at
    run 1's campaign_finished (it waits for run 2 until the timeout)."""
    sidecar = tmp_path / "run.jsonl.events.jsonl"
    events = _two_job_run_events() + _two_job_run_events()[:1]
    sidecar.write_text(
        "".join(json.dumps(event, sort_keys=True) + "\n" for event in events),
        encoding="utf-8",
    )
    t0 = time.monotonic()
    assert main(["obs", "tail", str(sidecar), "--timeout", "0.3"]) == 0
    assert time.monotonic() - t0 >= 0.3
    out = capsys.readouterr().out
    assert "smoke: 0/2 done" in out
