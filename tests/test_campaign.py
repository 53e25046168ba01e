"""Tests for the campaign engine: specs, cache, executor, manifests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    JobResult,
    JobSpec,
    ModelSpec,
    ResultCache,
    get_campaign,
    manifest_summary,
    read_manifest,
    run_campaign,
)
from repro.errors import CampaignError
from repro.power import PowerTrace

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
    assert cache.contains("k-steady")
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


def test_executor_retries_injected_failure(tmp_path):
    job = JobSpec.make(
        "diagnostic", tag="flaky", value=7.0,
        fail_times=1, marker_dir=str(tmp_path / "markers"),
    )
    run = run_campaign(CampaignSpec(name="retry", jobs=(job,)),
                       retries=2, backoff=0.0)
    assert run.ok
    outcome = run.outcome_for("flaky")
    assert outcome.status == "ok"
    assert outcome.retries == 1
    assert run.result_for("flaky").scalars["value"] == 7.0


def test_executor_reports_exhausted_retries(tmp_path):
    job = JobSpec.make(
        "diagnostic", tag="doomed", fail_times=99,
        marker_dir=str(tmp_path / "markers"),
    )
    manifest = tmp_path / "run.jsonl"
    run = run_campaign(CampaignSpec(name="fail", jobs=(job,)),
                       retries=1, backoff=0.0, manifest_path=str(manifest))
    assert not run.ok
    outcome = run.outcome_for("doomed")
    assert outcome.status == "failed"
    assert outcome.retries == 1
    assert "injected failure" in outcome.error
    with pytest.raises(CampaignError):
        run.result_for("doomed")
    records = read_manifest(manifest)
    job_records = [r for r in records if r["type"] == "job"]
    assert job_records[0]["status"] == "failed"
    assert job_records[0]["retries"] == 1


def test_executor_times_out_stragglers():
    jobs = (
        JobSpec.make("diagnostic", tag="straggler", sleep=1.5),
        JobSpec.make("diagnostic", tag="quick", value=1.0),
    )
    run = run_campaign(CampaignSpec(name="slow", jobs=jobs),
                       jobs=2, timeout=0.3, retries=0)
    assert run.outcome_for("straggler").status == "timeout"
    assert run.outcome_for("quick").ok
    assert not run.ok


def test_unknown_kind_fails_cleanly():
    job = JobSpec.make("no_such_runner", tag="x")
    run = run_campaign(CampaignSpec(name="bad", jobs=(job,)), retries=0)
    assert run.outcome_for("x").status == "failed"
    assert "unknown job kind" in run.outcome_for("x").error


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
    assert {"wall_s", "worker", "retries", "status", "key"} <= set(jobs[0])

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
