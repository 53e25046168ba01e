"""Tests for the campaign engine: specs, cache, executor, manifests."""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobOutcome,
    JobResult,
    JobSpec,
    ModelSpec,
    ResultCache,
    get_campaign,
    list_campaigns,
    manifest_summary,
    read_manifest,
    run_campaign,
)
from repro.campaign import executor
from repro.errors import CampaignError, ConfigurationError
from repro.power import PowerTrace

_TEST_PID = os.getpid()

TWO_BLOCK_POWER = (("IntReg", 3.0), ("Dcache", 2.0))


def steady_job(tag="job", nx=6, direction="left_to_right"):
    return JobSpec.make(
        "steady_blocks",
        tag=tag,
        model=ModelSpec(chip="ev6", package="oil", nx=nx, ny=nx,
                        direction=direction, ambient_c=45.0),
        power="blocks", power_blocks=TWO_BLOCK_POWER,
    )


# ---------------------------------------------------------------------------
# specs and hashing
# ---------------------------------------------------------------------------


def test_spec_hash_is_deterministic_and_param_sensitive():
    a = steady_job()
    b = steady_job()
    assert a.content_hash == b.content_hash
    assert a.content_hash != steady_job(nx=8).content_hash
    assert a.content_hash != steady_job(direction="top_to_bottom").content_hash
    # the tag is a label, not an identity: same work shares a hash
    assert a.content_hash == steady_job(tag="other").content_hash


def test_spec_hash_stable_across_processes():
    """Same spec in a fresh interpreter (different hash seed) -> same hash."""
    expected = steady_job().content_hash
    code = (
        "from repro.campaign import JobSpec, ModelSpec\n"
        "spec = JobSpec.make('steady_blocks', tag='job',\n"
        "    model=ModelSpec(chip='ev6', package='oil', nx=6, ny=6,\n"
        "                    direction='left_to_right', ambient_c=45.0),\n"
        "    power='blocks', power_blocks=(('IntReg', 3.0), ('Dcache', 2.0)))\n"
        "print(spec.content_hash)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "12345"  # prove independence of hash seed
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


def test_campaign_rejects_duplicate_tags_and_empty():
    with pytest.raises(CampaignError):
        CampaignSpec(name="dup", jobs=(steady_job("x"), steady_job("x")))
    with pytest.raises(CampaignError):
        CampaignSpec(name="empty", jobs=())


def test_params_must_be_primitives():
    with pytest.raises(CampaignError):
        JobSpec.make("diagnostic", tag="bad", callback=lambda: None)


@pytest.mark.parametrize("field, value", [
    ("chip", "pentium"), ("package", "water"), ("direction", "up"),
])
def test_unknown_model_names_are_configuration_errors(field, value):
    with pytest.raises(ConfigurationError, match=f"unknown {field} '{value}'"):
        ModelSpec(nx=4, ny=4, **{field: value}).build()


def test_registered_campaign_hashes_are_pinned():
    """Stored campaign results stay warm: a change to any spec, its
    defaults or its hash input moves one of these, and must re-pin it
    together with a ``SPEC_VERSION`` bump."""
    from repro.experiments.design_space import design_space_campaign
    from repro.experiments.dtm_study import dtm_campaign
    from repro.experiments.fig11 import fig11_campaign
    from repro.experiments.fig12 import fig12_campaign

    assert {
        "fig11": fig11_campaign().content_hash,
        "fig12": fig12_campaign().content_hash,
        "dtm": dtm_campaign().content_hash,
        "design_space": design_space_campaign().content_hash,
    } == {
        "fig11": "f8044fa8189b7a7d7c3c6753ec26cbc2efa8156d4daf3d8b9f38473dd25c4fe2",
        "fig12": "8ab3ad80c48207e33ca34abab96b6089540df13fcade4500609a1fe59a0ef346",
        "dtm": "03b41cc25808c6114926a71fa9b4be0133af67c08cf38bedad42f898952031ca",
        "design_space": "9dbbc3370e49833c1dca2574cd2dcafa37ded6b24dc36980f0267bf69e1ddd68",
    }


def test_registered_campaigns_cross_the_pool_boundary():
    """Every registered campaign's jobs, and what a job returns, survive
    the pickling that a pool worker's call and return go through."""
    for definition in list_campaigns():
        params = {} if definition.name == "smoke" else {"nx": 8}
        for job in get_campaign(definition.name, **params).jobs:
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert clone.content_hash == job.content_hash
    result = JobResult(
        scalars={"t_max_k": 330.25},
        arrays={"block_rise_k": np.arange(12.0).reshape(4, 3)},
        meta={"block_names": ["a", "b", "c"], "ambient_k": 318.15},
    )
    outcome = pickle.loads(pickle.dumps(
        JobOutcome(spec=steady_job(), status="ok", result=result)))
    assert outcome.result.same_values(result)
    assert outcome.spec.content_hash == steady_job().content_hash


# ---------------------------------------------------------------------------
# cache round trips
# ---------------------------------------------------------------------------


def test_cache_round_trip_steady_and_transient_shapes(tmp_path):
    cache = ResultCache(tmp_path)
    steady = JobResult(
        scalars={"t_max_k": 330.25},
        arrays={"block_temps_k": np.linspace(300.0, 330.0, 18)},
        meta={"block_names": ["a", "b"], "ambient_k": 318.15},
    )
    transient = JobResult(
        arrays={"times": np.arange(50) * 1e-3,
                "block_rise_k": np.random.default_rng(0).normal(size=(50, 18))},
        meta={"block_names": ["a", "b"]},
    )
    cache.put("k-steady", steady)
    cache.put("k-transient", transient)
    assert cache.get("k-steady").same_values(steady)
    assert cache.get("k-transient").same_values(transient)
    assert cache.get("missing-key") is None
    stats = cache.stats()
    assert stats["n_results"] == 2 and stats["bytes"] > 0


def test_cache_trace_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    trace = PowerTrace(["a", "b"],
                       np.abs(np.random.default_rng(1).normal(size=(9, 2))),
                       dt=3.3e-6)
    cache.put_trace("trace/v1/test", trace)
    loaded = cache.get_trace("trace/v1/test")
    assert loaded.block_names == trace.block_names
    assert loaded.dt == trace.dt
    np.testing.assert_array_equal(loaded.samples, trace.samples)
    assert cache.get_trace("trace/v1/other") is None


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    (tmp_path / "results" / "bad.json").write_text("{not json")
    assert cache.get("bad") is None


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def test_serial_and_parallel_runs_are_identical(tmp_path):
    campaign = CampaignSpec(
        name="equiv",
        jobs=(steady_job("l2r", direction="left_to_right"),
              steady_job("t2b", direction="top_to_bottom")),
    )
    serial = run_campaign(campaign, jobs=1)
    parallel = run_campaign(campaign, jobs=2)
    assert serial.ok and parallel.ok
    assert parallel.parallel
    for tag in ("l2r", "t2b"):
        assert serial.result_for(tag).same_values(parallel.result_for(tag))


def test_pool_merges_worker_counters_like_a_serial_run():
    from repro import obs

    campaign = CampaignSpec(
        name="counts",
        jobs=tuple(steady_job(direction, direction=direction)
                   for direction in ("left_to_right", "top_to_bottom")),
    )

    def counter_delta(jobs):
        before = obs.metrics().snapshot()
        run = run_campaign(campaign, jobs=jobs)
        assert run.ok and run.parallel == (jobs > 1)
        return obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]

    serial = counter_delta(1)
    assert serial["solver.steady.factorizations"] == 2
    assert serial["rcmodel.grid.assemblies"] == 2
    assert counter_delta(2) == serial


def test_unknown_kind_fails_cleanly():
    job = JobSpec.make("no_such_runner", tag="x")
    run = run_campaign(CampaignSpec(name="bad", jobs=(job,)))
    assert run.outcome_for("x").status == "failed"
    assert "unknown job kind" in run.outcome_for("x").error


def test_failed_job_records_the_time_it_ran(tmp_path):
    job = JobSpec.make(
        "steady_blocks", tag="bad",
        model=ModelSpec(chip="ev6", package="oil", nx=6, ny=6,
                        direction="left_to_right", ambient_c=45.0),
        power="blocks", power_blocks=(("NoSuchBlock", 1.0),),
    )
    manifest = tmp_path / "m.jsonl"
    run = run_campaign(CampaignSpec(name="bad-block", jobs=(job,)),
                       manifest_path=str(manifest))
    outcome = run.outcome_for("bad")
    assert outcome.status == "failed"
    assert outcome.wall_s > 0
    (record,) = [r for r in read_manifest(manifest) if r["type"] == "job"]
    assert record["wall_s"] == round(outcome.wall_s, 6)
    assert run.summary.p50_wall_s == record["wall_s"]


def _runner_that_dies_in_a_worker(doomed):
    """A ``get_runner`` whose runner for job ``doomed`` kills its pool
    worker; in this process it runs the real runner."""
    real = executor.get_runner

    def get_runner(kind):
        job_runner = real(kind)

        def run(spec):
            if spec.tag == doomed and os.getpid() != _TEST_PID:
                os._exit(1)
            return job_runner(spec)

        return run

    return get_runner


def test_dead_worker_runs_every_job_once(monkeypatch):
    # fork carries the patch into the pool workers
    monkeypatch.setattr(executor, "get_runner",
                        _runner_that_dies_in_a_worker("probe-1"))
    jobs = tuple(JobSpec.make("diagnostic", tag=f"probe-{i}", value=float(i))
                 for i in range(4))
    lines = []
    before = obs.metrics().snapshot()
    run = run_campaign(CampaignSpec(name="dead-worker", jobs=jobs), jobs=2,
                       progress=lines.append)
    counters = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    assert [o.status for o in run.outcomes] == ["ok"] * 4
    for spec in jobs:
        finished = [line for line in lines
                    if line.startswith(f"[     OK] {spec.tag}: ")]
        assert len(finished) == 1, (spec.tag, lines)
    assert counters["campaign.jobs.attempts"] == 4
    assert sum("BrokenProcessPool" in line for line in lines) == 1
    for i in range(4):
        assert run.result_for(f"probe-{i}").scalars["value"] == i


def test_dead_worker_leaves_the_serial_counts(monkeypatch):
    campaign = CampaignSpec(
        name="dead-counts",
        jobs=tuple(steady_job(direction, direction=direction)
                   for direction in ("left_to_right", "top_to_bottom")),
    )

    def counter_delta(jobs):
        before = obs.metrics().snapshot()
        run = run_campaign(campaign, jobs=jobs)
        assert run.ok
        return obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]

    serial = counter_delta(1)
    monkeypatch.setattr(executor, "get_runner",
                        _runner_that_dies_in_a_worker("top_to_bottom"))
    assert counter_delta(2) == serial


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_configuration_error(jobs):
    campaign = CampaignSpec(name="bad-jobs", jobs=(steady_job("a"),))
    with pytest.raises(ConfigurationError, match="at least 1"):
        run_campaign(campaign, jobs=jobs)


# ---------------------------------------------------------------------------
# cache + executor: the short-circuit path
# ---------------------------------------------------------------------------


def test_second_run_is_all_cache_hits(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = CampaignSpec(
        name="cached",
        jobs=(steady_job("l2r", direction="left_to_right"),
              steady_job("b2t", direction="bottom_to_top")),
    )
    manifest = tmp_path / "run.jsonl"
    cold = run_campaign(campaign, cache=cache)
    warm = run_campaign(campaign, cache=cache, manifest_path=str(manifest))
    assert cold.summary.hit_rate == 0.0
    assert warm.summary.hit_rate == 1.0
    assert all(o.status == "cached" for o in warm.outcomes)
    for tag in ("l2r", "b2t"):
        assert cold.result_for(tag).same_values(warm.result_for(tag))
    summary = manifest_summary(manifest)
    assert summary.n_cached == 2 and summary.all_ok
    # force recomputes despite the warm cache
    forced = run_campaign(campaign, cache=cache, force=True)
    assert forced.summary.hit_rate == 0.0
    assert forced.ok


# ---------------------------------------------------------------------------
# registry and figure integration
# ---------------------------------------------------------------------------


def test_registry_builds_parameterized_campaigns():
    spec = get_campaign("fig11", nx=6, instructions=10_000)
    assert spec.name == "fig11" and len(spec) == 4
    assert {j.tag for j in spec.jobs} == {
        "left_to_right", "right_to_left", "bottom_to_top", "top_to_bottom"
    }
    with pytest.raises(CampaignError):
        get_campaign("no_such_campaign")
    with pytest.raises(CampaignError):
        get_campaign("fig11", bogus_parameter=1)


def test_fig11_through_cache_matches_direct(tmp_path, monkeypatch):
    """The refactored figure gives identical numbers cached and fresh."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.experiments.fig11 import run_fig11

    cache = ResultCache(tmp_path / "cache")
    fresh = run_fig11(nx=6, instructions=10_000, cache=cache)
    cached = run_fig11(nx=6, instructions=10_000, cache=cache)
    assert fresh.temps_c == cached.temps_c


def test_gcc_trace_disk_cache_round_trips(tmp_path, monkeypatch):
    """The functional-simulation trace persists across 'processes'."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.experiments.common import gcc_power_trace

    gcc_power_trace.cache_clear()
    first = gcc_power_trace(instructions=10_000)
    gcc_power_trace.cache_clear()  # simulate a fresh process
    second = gcc_power_trace(instructions=10_000)
    assert first is not second  # loaded from disk, not the lru
    np.testing.assert_array_equal(first.samples, second.samples)
    store = ResultCache(tmp_path / "machine")
    assert store.stats()["n_traces"] == 1
    gcc_power_trace.cache_clear()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_campaign_list(capsys):
    from repro.cli import main

    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig11", "fig12", "design_space", "dtm_policies", "smoke"):
        assert name in out


def test_cli_campaign_run_and_rerun_hit_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "machine"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    from repro.cli import main

    argv = [
        "campaign", "run", "fig11", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--manifest", str(tmp_path / "run.jsonl"),
        "-P", "nx=6", "-P", "instructions=10000",
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "4/4 jobs ok" in cold and "hit rate 0%" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "4 cached" in warm and "hit rate 100%" in warm

    records = read_manifest(tmp_path / "run.jsonl")
    jobs = [r for r in records if r["type"] == "job"]
    assert len(jobs) == 8  # two runs appended to one manifest
    assert all(r["cached"] for r in jobs[4:])
    assert {"wall_s", "worker", "status", "key"} <= set(jobs[0])

    assert main(["campaign", "status",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(tmp_path / "run.jsonl")]) == 0
    status = capsys.readouterr().out
    assert "results: 4" in status and "hit rate 100%" in status


def test_cli_campaign_run_smoke_no_cache(capsys):
    from repro.cli import main

    assert main(["campaign", "run", "smoke", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "2/2 jobs ok" in out


def test_cli_campaign_status_reads_a_manifest_with_retries_keys(tmp_path,
                                                               capsys):
    """Manifests written before retries and per-job capture were
    removed still summarize."""
    from repro.cli import main

    manifest = tmp_path / "old.jsonl"
    old_jobs = [
        {"type": "job", "campaign": "old", "tag": "a", "kind": "diagnostic",
         "key": "k-a", "status": "ok", "cached": False, "wall_s": 0.25,
         "worker": "101", "retries": 1, "error": None, "obs": None},
        {"type": "job", "campaign": "old", "tag": "b", "kind": "diagnostic",
         "key": "k-b", "status": "timeout", "cached": False, "wall_s": 0.5,
         "worker": "", "retries": 0, "error": "exceeded 0.5 s budget",
         "obs": None},
        {"type": "job", "campaign": "old", "tag": "c", "kind": "diagnostic",
         "key": "k-c", "status": "ok", "cached": False, "wall_s": 0.75,
         "worker": "102", "retries": 0, "error": None,
         "obs": {"worker_pid": 102,
                 "spans": {"campaign.job": {"count": 1, "total_s": 0.75}},
                 "metrics": {"solver.steady.solves": 1.0}}},
    ]
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in old_jobs))
    assert main(["campaign", "status", "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(manifest)]) == 0
    assert "campaign old: 2/3 ok" in capsys.readouterr().out


PARENT_SUMMARY = {
    "type": "summary", "campaign": "old", "n_jobs": 2, "n_ok": 2,
    "n_failed": 0, "n_cached": 1, "hit_rate": 0.5, "p50_wall_s": 0.25,
    "p95_wall_s": 0.5, "total_wall_s": 0.75,
    "metrics": {"campaign.cache.hits": 1.0, "campaign.cache.misses": 1.0},
}


def _status_of(tmp_path, *records):
    from repro.cli import main

    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
    return main(["campaign", "status", "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(manifest)])


def test_cli_campaign_status_reads_a_summary_line_with_metrics(tmp_path,
                                                              capsys):
    """Summary lines written while the summary copied the engine counts
    still summarize; the extra key, and a line that is not a JSON
    object, are ignored."""
    assert _status_of(tmp_path, [1, 2], PARENT_SUMMARY) == 0
    assert "campaign old: 2/2 ok, hit rate 50%" in capsys.readouterr().out


@pytest.mark.parametrize("record, missing", [
    ({"type": "summary", "campaign": "x", "n_jobs": 1}, "n_ok"),
    ({"type": "job", "campaign": "x", "tag": "a", "status": "ok",
      "cached": False}, "wall_s"),
    ({"type": "job", "campaign": "x", "tag": "a", "status": "ok",
      "cached": False, "wall_s": None}, "wall_s"),
], ids=["summary-line", "job-line", "job-line-null"])
def test_cli_campaign_status_rejects_a_record_missing_a_field(
        tmp_path, capsys, record, missing):
    assert _status_of(tmp_path, record) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert "Traceback" not in err


def test_cli_campaign_status_after_two_runs(tmp_path, capsys):
    """Two runs against one store leave only entries there; status
    reports them and the manifest's last (all-cached) summary."""
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    manifest = tmp_path / "smoke.jsonl"
    for _ in range(2):
        assert main(["-q", "campaign", "run", "smoke", "--cache-dir",
                     str(cache_dir), "--manifest", str(manifest)]) == 0
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        "results", "traces"]
    capsys.readouterr()
    assert main(["campaign", "status", "--cache-dir", str(cache_dir),
                 "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "results: 2  traces: 0  size:" in out
    assert "campaign smoke: 2/2 ok, hit rate 100%" in out


def test_cli_campaign_run_rejects_jobs_below_one(capsys):
    from repro.cli import main

    assert main(["campaign", "run", "smoke", "--jobs", "-3",
                 "--no-cache"]) == 1
    assert "error: jobs must be at least 1" in capsys.readouterr().err
