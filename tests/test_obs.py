"""Tests for repro.obs: tracing, metrics, exporters, logging, CLI."""

import gc
import json
import logging
import os
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    read_manifest,
    run_campaign,
)
from repro.cli import main
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


@pytest.fixture(autouse=True)
def clean_tracer():
    """Leave the global tracer disabled and empty around every test."""
    obs.disable_tracing()
    obs.tracer().clear()
    yield
    obs.disable_tracing()
    obs.tracer().clear()


# ---------------------------------------------------------------------------
# spans and the tracer
# ---------------------------------------------------------------------------


def test_disabled_tracer_returns_shared_null_span():
    assert not obs.tracing_enabled()
    first = obs.span("anything", key="value")
    second = obs.span("else")
    assert first is obs.NULL_SPAN
    assert second is obs.NULL_SPAN
    with first as entered:
        entered.annotate(ignored=True)  # must be a silent no-op
    assert obs.tracer().roots == []


def test_span_nesting_and_ordering():
    tracer = obs.enable_tracing()
    with obs.span("outer", level=0):
        with obs.span("child-a"):
            with obs.span("grandchild"):
                pass
        with obs.span("child-b"):
            pass
    roots = tracer.drain()
    assert [r.name for r in roots] == ["outer"]
    outer = roots[0]
    assert [c.name for c in outer.children] == ["child-a", "child-b"]
    assert [g.name for g in outer.children[0].children] == ["grandchild"]
    assert outer.attrs == {"level": 0}
    assert outer.duration_s >= outer.children[0].duration_s >= 0.0
    assert outer.status == "ok"


def test_span_records_error_status():
    tracer = obs.enable_tracing()
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("nope")
    (root,) = tracer.drain()
    assert root.status == "error"
    assert root.attrs["error"] == "ValueError"


def test_span_dict_round_trip():
    tracer = obs.enable_tracing()
    with obs.span("parent", n=3):
        with obs.span("kid"):
            pass
    (root,) = tracer.drain()
    rebuilt = obs.Span.from_dict(root.to_dict())
    assert rebuilt.to_dict() == root.to_dict()
    assert rebuilt.children[0].name == "kid"


def test_trace_decorator_and_current():
    tracer = obs.enable_tracing()

    @tracer.trace("worker.fn")
    def fn():
        current = tracer.current()
        assert current is not None and current.name == "worker.fn"
        return 7

    assert fn() == 7
    assert [r.name for r in tracer.drain()] == ["worker.fn"]
    assert tracer.current() is None


def test_root_cap_counts_dropped_spans():
    tracer = obs.Tracer(enabled=True, max_roots=2)
    for i in range(4):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.roots) == 2
    assert tracer.dropped == 2


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    counter = reg.counter("events")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    reg.gauge("depth").set(4.0)
    assert reg.gauge("depth").value == 4.0
    hist = reg.histogram("lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        hist.observe(v)
    assert hist.count == 3
    assert hist.bucket_counts == [1, 1, 1]  # <=0.1, <=1.0, overflow
    assert hist.sum == pytest.approx(5.55)
    with pytest.raises(ValueError):
        reg.gauge("events")  # name already registered as a counter


def test_snapshot_diff_and_merge_across_registries():
    worker = MetricsRegistry()
    before = worker.snapshot()
    worker.counter("solves").inc(3)
    worker.histogram("t", buckets=(1.0,)).observe(0.5)
    delta = obs.snapshot_diff(worker.snapshot(), before)
    assert delta["counters"] == {"solves": 3.0}

    parent = MetricsRegistry()
    parent.counter("solves").inc(1)
    parent.merge(delta)
    parent.merge(delta)  # merging twice adds twice (caller de-dupes)
    assert parent.counter("solves").value == 7.0
    assert parent.histogram("t", buckets=(1.0,)).count == 2
    flat = obs.flatten_snapshot(parent.snapshot())
    assert flat["solves"] == 7.0
    assert flat["t.count"] == 2.0


def test_solver_metrics_count_factorizations_and_steps():
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package
    from repro.rcmodel import ThermalGridModel
    from repro.solver import steady_state, transient_simulate

    before = obs.metrics().snapshot()
    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height)
    model = ThermalGridModel(plan, config, nx=6, ny=6)
    power = model.node_power({"IntReg": 3.0})
    steady_state(model.network, power)
    transient_simulate(model.network, power, t_end=0.01, dt=0.001)
    flat = obs.flatten_snapshot(
        obs.snapshot_diff(obs.metrics().snapshot(), before)
    )
    assert flat["rcmodel.grid.assemblies"] == 1.0
    assert flat["solver.steady.solves"] == 1.0
    assert flat["solver.transient.steps"] == 10.0
    assert flat["solver.transient.matrix_builds"] == 1.0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

GOLDEN_ROOT = {
    "name": "campaign.run",
    "t_wall": 100.0,
    "duration_s": 2.0,
    "pid": 11,
    "tid": 7,
    "status": "ok",
    "attrs": {"campaign": "fig11"},
    "children": [
        {
            "name": "solver.steady.solve",
            "t_wall": 100.5,
            "duration_s": 1.25,
            "pid": 11,
            "tid": 7,
            "status": "error",
            "attrs": {"error": "SolverError"},
            "children": [],
        }
    ],
}

GOLDEN_CHROME = {
    "traceEvents": [
        {
            "name": "campaign.run",
            "cat": "campaign",
            "ph": "X",
            "ts": 100.0 * 1e6,
            "dur": 2.0 * 1e6,
            "pid": 11,
            "tid": 7,
            "args": {"campaign": "fig11"},
        },
        {
            "name": "solver.steady.solve",
            "cat": "solver",
            "ph": "X",
            "ts": 100.5 * 1e6,
            "dur": 1.25 * 1e6,
            "pid": 11,
            "tid": 7,
            "args": {"error": "SolverError", "status": "error"},
        },
    ],
    "displayTimeUnit": "ms",
    "otherData": {"generator": "repro.obs"},
}


def test_chrome_trace_matches_golden():
    assert obs.chrome_trace([GOLDEN_ROOT]) == GOLDEN_CHROME


def test_chrome_trace_file_round_trip_and_validation(tmp_path):
    path = str(tmp_path / "trace.json")
    count = obs.write_chrome_trace([GOLDEN_ROOT], path)
    assert count == 2
    kind, data = obs.read_trace_file(path)
    assert kind == "chrome"
    assert data == json.loads(json.dumps(GOLDEN_CHROME, sort_keys=True))
    assert obs.validate_chrome_trace(data) == []


def test_validate_chrome_trace_reports_problems():
    assert obs.validate_chrome_trace([]) != []
    assert obs.validate_chrome_trace({"traceEvents": "nope"}) != []
    bad_event = {"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1}
    errors = obs.validate_chrome_trace({"traceEvents": [bad_event]})
    assert any("name" in e for e in errors)


def test_jsonl_export_and_sniffing(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    assert obs.write_spans_jsonl([GOLDEN_ROOT], path) == 1
    assert obs.write_spans_jsonl([GOLDEN_ROOT], path) == 1  # appends
    kind, roots = obs.read_trace_file(path)
    assert kind == "jsonl"
    assert len(roots) == 2
    assert roots[0]["children"][0]["name"] == "solver.steady.solve"


def test_span_summary_and_summary_tree():
    summary = obs.span_summary([GOLDEN_ROOT, GOLDEN_ROOT])
    assert summary["campaign.run"] == {"count": 2, "total_s": 4.0}
    assert summary["solver.steady.solve"]["count"] == 2

    tree = obs.summary_tree([GOLDEN_ROOT])
    lines = tree.splitlines()
    assert "span" in lines[0] and "share" in lines[0]
    assert lines[1].lstrip().startswith("campaign.run")
    assert "100.0%" in lines[1]
    child = lines[2]
    assert child.startswith("  solver.steady.solve")
    assert "62.5%" in child  # 1.25 s of 2.0 s


# ---------------------------------------------------------------------------
# overhead
# ---------------------------------------------------------------------------


def test_disabled_tracing_overhead_below_five_percent():
    """Disabled spans must not tax the 40x40 steady solve measurably.

    A solve passes a handful of instrumentation points; budget 100 of
    them (a >10x margin) and require that their no-op cost stays under
    5% of the measured solve time.
    """
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package
    from repro.rcmodel import ThermalGridModel
    from repro.solver import steady_state

    assert not obs.tracing_enabled()
    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height)
    model = ThermalGridModel(plan, config, nx=40, ny=40)
    power = model.node_power({"IntReg": 3.0, "Dcache": 2.0})
    steady_state(model.network, power)  # warm the factorization cache
    solve_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        steady_state(model.network, power)
        solve_times.append(time.perf_counter() - t0)
    solve_median = sorted(solve_times)[2]

    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("overhead.probe", n_nodes=1):
            pass
    per_span = (time.perf_counter() - t0) / n
    assert 100 * per_span < 0.05 * solve_median, (
        f"no-op span costs {per_span * 1e6:.2f} us against a "
        f"{solve_median * 1e3:.2f} ms solve"
    )


def test_full_telemetry_overhead_below_five_percent():
    """Enabled tracing must cost <5% of a solve.

    Prices one enabled span, then charges a solve the ~10 live spans it
    would see in a fully instrumented campaign.
    """
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package
    from repro.rcmodel import ThermalGridModel
    from repro.solver import steady_state

    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height)
    model = ThermalGridModel(plan, config, nx=40, ny=40)
    power = model.node_power({"IntReg": 3.0, "Dcache": 2.0})
    steady_state(model.network, power)  # warm the factorization cache
    solve_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        steady_state(model.network, power)
        solve_times.append(time.perf_counter() - t0)
    solve_median = sorted(solve_times)[2]

    # enabled (recording) spans; collect first so that a full
    # collection owed to earlier tests' garbage is not billed to them
    gc.collect()
    obs.enable_tracing()
    n = 2_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("overhead.probe", n_nodes=1):
            pass
    per_span = (time.perf_counter() - t0) / n
    obs.disable_tracing()
    obs.tracer().clear()

    bill = 10 * per_span
    assert bill < 0.05 * solve_median, (
        f"telemetry bills {bill * 1e6:.1f} us per {solve_median * 1e3:.2f} ms "
        f"solve (span {per_span * 1e6:.2f} us)"
    )


# ---------------------------------------------------------------------------
# campaign integration: capture across the process pool
# ---------------------------------------------------------------------------


def test_campaign_capture_serial_records_spans_and_metrics(tmp_path):
    campaign = CampaignSpec(
        name="obs-serial", jobs=(steady_job("a"), steady_job("b", nx=7)),
    )
    manifest = tmp_path / "m.jsonl"
    run = run_campaign(campaign, jobs=1, manifest_path=str(manifest),
                       capture_obs=True)
    assert run.ok
    for outcome in run.outcomes:
        assert outcome.obs is not None
        assert outcome.obs["pid"] == os.getpid()
        span = outcome.obs["span"]
        assert span["name"] == "campaign.job"
        names = {c["name"] for c in span["children"]}
        assert "solver.steady.solve" in names
        assert outcome.obs["metrics"]["solver.steady.solves"] == 1.0
    # in-process capture must not be merged back (it already counted)
    assert run.span_roots() == []
    records = read_manifest(manifest)
    job_records = [r for r in records if r["type"] == "job"]
    assert all(r["obs"]["spans"]["campaign.job"]["count"] == 1
               for r in job_records)
    (summary,) = [r for r in records if r["type"] == "summary"]
    assert summary["metrics"]["solver.steady.solves"] == 2.0
    assert summary["metrics"]["campaign.cache.misses"] == 2.0


def test_campaign_capture_round_trips_through_pool(tmp_path):
    campaign = CampaignSpec(
        name="obs-pool",
        jobs=tuple(steady_job(f"j{i}", nx=5 + i) for i in range(3)),
    )
    before = obs.metrics().snapshot()
    manifest = tmp_path / "m.jsonl"
    run = run_campaign(campaign, jobs=2, manifest_path=str(manifest),
                       capture_obs=True)
    assert run.ok
    if not run.parallel:
        pytest.skip("process pool unavailable on this platform")
    assert all(o.obs is not None and o.obs["pid"] != os.getpid()
               for o in run.outcomes)
    # worker span trees are exported as extra roots, one per job
    assert len(run.span_roots()) == 3
    # worker metric deltas merged into the parent registry
    delta = obs.flatten_snapshot(
        obs.snapshot_diff(obs.metrics().snapshot(), before)
    )
    assert delta["solver.steady.solves"] == 3.0
    assert delta["rcmodel.grid.assemblies"] == 3.0
    (summary,) = [r for r in read_manifest(manifest)
                  if r["type"] == "summary"]
    assert summary["metrics"]["solver.steady.solves"] == 3.0


def test_campaign_without_capture_stays_lean(tmp_path):
    campaign = CampaignSpec(name="obs-off", jobs=(steady_job("a"),))
    run = run_campaign(campaign, jobs=1)
    assert run.ok
    assert run.outcomes[0].obs is None
    assert run.outcomes[0].record("obs-off")["obs"] is None


def test_cache_counters_and_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = CampaignSpec(name="obs-cache", jobs=(steady_job("a"),))
    run_campaign(campaign, jobs=1, cache=cache)
    run_campaign(campaign, jobs=1, cache=cache)
    assert cache.counters["misses"] == 1
    assert cache.counters["stores"] == 1
    assert cache.counters["hits"] == 1
    stats = cache.stats()
    assert stats["counters"]["hits"] == 1
    # lifetime counters persist across instances of the same store
    fresh = ResultCache(tmp_path / "cache")
    lifetime = fresh.persisted_counters()
    assert lifetime["hits"] == 1 and lifetime["misses"] == 1
    removed = fresh.clear()
    assert removed > 0
    assert fresh.persisted_counters()["evictions"] == removed


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------


def test_verbosity_level_mapping():
    assert obs.verbosity_level(-3) == logging.ERROR
    assert obs.verbosity_level(-1) == logging.WARNING
    assert obs.verbosity_level(0) == logging.INFO
    assert obs.verbosity_level(2) == logging.DEBUG


def test_logging_setup_is_idempotent():
    logger = obs.logging_setup(0)
    obs.logging_setup(1)
    marked = [h for h in logger.handlers
              if getattr(h, "_repro_obs_handler", False)]
    assert len(marked) == 1
    assert logger.level == logging.DEBUG


def test_executor_logs_progress_lines(caplog):
    # logging_setup turns propagation off on "repro"; caplog listens on
    # the root logger, so re-enable propagation for the capture window.
    parent = logging.getLogger("repro")
    was_propagating = parent.propagate
    parent.propagate = True
    try:
        campaign = CampaignSpec(name="obs-log", jobs=(steady_job("tagged"),))
        with caplog.at_level(logging.INFO, logger="repro.campaign"):
            run_campaign(campaign, jobs=1)
    finally:
        parent.propagate = was_propagating
    lines = [r.message for r in caplog.records]
    assert any("tagged" in line and "OK" in line for line in lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_trace_run_and_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace_path = str(tmp_path / "smoke-trace.json")
    code = main(["trace", "run", "smoke", "--no-cache", "-o", trace_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign.run" in out and "share" in out

    with open(trace_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert obs.validate_chrome_trace(data) == []
    names = {e["name"] for e in data["traceEvents"]}
    assert {"campaign.run", "campaign.job"} <= names

    assert main(["trace", "report", trace_path]) == 0
    assert "campaign.run" in capsys.readouterr().out
    assert main(["trace", "report", trace_path, "--check"]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_trace_report_check_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}, sort_keys=True),
                   encoding="utf-8")
    assert main(["trace", "report", str(bad), "--check"]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_campaign_run_with_trace_flag(tmp_path, capsys):
    trace_path = str(tmp_path / "run-trace.json")
    code = main([
        "campaign", "run", "smoke", "--no-cache", "--trace", trace_path,
    ])
    assert code == 0
    assert "trace:" in capsys.readouterr().out
    with open(trace_path, "r", encoding="utf-8") as handle:
        assert obs.validate_chrome_trace(json.load(handle)) == []


def test_cli_campaign_status_shows_lifetime_counters(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "run", "smoke", "--cache-dir", cache_dir]) == 0
    assert main(["campaign", "run", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "lifetime:" in out
    assert "hits=2" in out and "stores=2" in out


def test_cli_jsonl_trace_format(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "spans.jsonl")
    code = main(["trace", "run", "smoke", "--no-cache", "-o", path,
                 "--format", "jsonl"])
    assert code == 0
    kind, roots = obs.read_trace_file(path)
    assert kind == "jsonl"
    assert any(r["name"] == "campaign.run" for r in roots)
    capsys.readouterr()
    assert main(["trace", "report", path, "--check"]) == 0
