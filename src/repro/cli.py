"""Command-line interface, in the spirit of the HotSpot tool.

HotSpot ships as a command-line program consuming a floorplan (.flp)
and a power trace (.ptrace); this module provides the same workflow
for this library so the models can be driven without writing Python:

* ``python -m repro steady -f chip.flp -p chip.ptrace``
    solve the steady state under the time-averaged power and print
    per-block temperatures;
* ``python -m repro transient -f chip.flp -p chip.ptrace -o out.ttrace``
    integrate the trace and write per-block temperatures per sample;
* ``python -m repro info -f chip.flp``
    describe a floorplan (blocks, areas, die size);
* ``python -m repro campaign run fig11 --jobs 4``
    execute a registered experiment sweep through the campaign engine
    (parallel workers, content-addressed result cache, JSONL
    manifest); ``campaign list`` and ``campaign status`` inspect the
    registry and the cache; ``--live`` renders progress from the
    engine's job lifecycle events and appends them to
    ``<manifest>.events.jsonl``, which ``obs tail`` follows;
* ``python -m repro trace run fig11 --trace fig11.json``
    the same, with :mod:`repro.obs` span tracing enabled — writes a
    Chrome trace-event file (load in Perfetto or ``chrome://tracing``)
    and prints a summary tree; ``trace report <file>`` re-summarizes
    or schema-checks an existing trace file.

Package selection mirrors the paper: ``--package air`` (default) or
``--package oil``, with ``--rconv``, ``--velocity``, ``--direction``
and ``--no-secondary`` adjusting the configuration.  Global ``-v`` /
``-q`` flags adjust log verbosity (the campaign engine reports job
progress through the ``repro`` logger).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional


from . import obs
from .convection.flow import FlowDirection
from .errors import ReproError
from .floorplan import load_flp
from .package import air_sink_package, oil_silicon_package
from .power import PowerTrace
from .rcmodel import ThermalBlockModel, ThermalGridModel
from .solver import simulate_schedule, steady_state
from .units import ZERO_CELSIUS_IN_KELVIN

_DIRECTIONS = {d.value: d for d in FlowDirection}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compact thermal modeling of AIR-SINK vs OIL-SILICON "
                    "cooling (Huang et al., ISPASS 2009 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more log output (repeat for debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less log output (repeat for errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_power: bool) -> None:
        p.add_argument("-f", "--floorplan", required=True,
                       help="HotSpot .flp floorplan file")
        if needs_power:
            p.add_argument("-p", "--ptrace", required=True,
                           help="HotSpot .ptrace power trace file")
            p.add_argument("--sampling-interval", type=float,
                           default=3.333e-6,
                           help="ptrace sampling interval, seconds "
                                "(default: 10 kcycles at 3 GHz)")
        p.add_argument("--package", choices=("air", "oil"), default="air",
                       help="cooling configuration (default: air)")
        p.add_argument("--rconv", type=float, default=None,
                       help="overall convection resistance K/W "
                            "(air: required knob; oil: optional override)")
        p.add_argument("--velocity", type=float, default=10.0,
                       help="oil free-stream velocity m/s (oil package)")
        p.add_argument("--direction", choices=sorted(_DIRECTIONS),
                       default="left_to_right",
                       help="oil flow direction (oil package)")
        p.add_argument("--uniform-h", action="store_true",
                       help="ignore the h(x) profile (oil package)")
        p.add_argument("--no-secondary", action="store_true",
                       help="drop the secondary heat path (oil package)")
        p.add_argument("--ambient", type=float, default=45.0,
                       help="ambient temperature, Celsius (default 45)")
        p.add_argument("--grid", type=int, default=32,
                       help="grid resolution per axis (default 32)")
        p.add_argument("--model", choices=("grid", "block"),
                       default="grid",
                       help="thermal model granularity (default grid)")

    steady = sub.add_parser(
        "steady", help="steady state under the trace's average power"
    )
    add_common(steady, needs_power=True)

    transient = sub.add_parser(
        "transient", help="integrate the power trace over time"
    )
    add_common(transient, needs_power=True)
    transient.add_argument("-o", "--output", default="-",
                           help="output file for the temperature trace "
                                "('-' = stdout)")
    transient.add_argument("--init-steady", action="store_true",
                           help="start from the average-power steady "
                                "state instead of ambient")

    render = sub.add_parser(
        "render", help="ASCII heat map of the steady state"
    )
    add_common(render, needs_power=True)
    render.add_argument("--csv", default=None,
                        help="also write the cell map as CSV to this file")

    info = sub.add_parser("info", help="describe a floorplan")
    info.add_argument("-f", "--floorplan", required=True)

    reproduce = sub.add_parser(
        "reproduce",
        help="run every paper experiment and write a markdown report",
    )
    reproduce.add_argument("-o", "--output", default="-",
                           help="report destination ('-' = stdout)")
    reproduce.add_argument("--full", action="store_true",
                           help="full experiment resolution (slower)")
    reproduce.add_argument("-j", "--jobs", type=int, default=None,
                           help="worker processes (default: all CPUs; "
                                "1 = serial)")

    campaign = sub.add_parser(
        "campaign",
        help="run registered experiment sweeps through the campaign "
             "engine (parallel, cached, manifested)",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser("run", help="execute one registered campaign")
    crun.add_argument("name", help="campaign name (see 'campaign list')")
    crun.add_argument("-j", "--jobs", type=int, default=1,
                      help="worker processes (1 = serial, default)")
    crun.add_argument("--cache-dir", default=None,
                      help="result cache directory (default: "
                           "$REPRO_CACHE_DIR or ~/.cache/repro-campaign)")
    crun.add_argument("--no-cache", action="store_true",
                      help="disable the result cache for this run")
    crun.add_argument("--manifest", default=None,
                      help="JSONL manifest path (default: "
                           "<cache-dir>/manifests/<name>-<time>.jsonl)")
    crun.add_argument("--force", action="store_true",
                      help="recompute even when results are cached")
    crun.add_argument("--no-batch", action="store_true",
                      help="disable lockstep batching of same-model "
                           "job groups (always run per job)")
    crun.add_argument("-P", "--param", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="campaign builder parameter, repeatable "
                           "(e.g. -P nx=16 -P instructions=100000)")
    crun.add_argument("--trace", default=None, metavar="PATH",
                      help="enable span tracing and write a Chrome "
                           "trace-event file here")
    crun.add_argument("--live", action="store_true",
                      help="render live progress (done/cached/failed "
                           "counts, throughput, cache rate, ETA) from the "
                           "engine's job lifecycle events, and append "
                           "them to <manifest>.events.jsonl for 'repro "
                           "obs tail'; a job counts as running from "
                           "dispatch until its outcome lands")

    csub.add_parser("list", help="list registered campaigns")

    analyze = sub.add_parser(
        "analyze",
        help="physics-aware static analysis (units, cache invalidation, "
             "hash determinism, pickle safety, float equality, obs "
             "taxonomy, lock discipline)",
    )
    analyze.add_argument("paths", nargs="*", default=["src"],
                         help="files/directories to analyze (default: src)")
    analyze.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text", dest="output_format",
                         help="report format (default: text)")
    analyze.add_argument("--baseline", default=None,
                         help="baseline file of accepted legacy findings "
                              "(default: analysis-baseline.json when present)")
    analyze.add_argument("--write-baseline", action="store_true",
                         help="rewrite the baseline from the current "
                              "findings and exit")
    analyze.add_argument("--fail-on", choices=("error", "warning", "note",
                                               "never"),
                         default="error",
                         help="exit non-zero when a non-baselined finding "
                              "at/above this severity exists (default: error)")
    analyze.add_argument("--rules", default=None,
                         help="comma-separated subset of rules to run")
    analyze.add_argument("--list-rules", action="store_true",
                         help="list available rules and exit")
    analyze.add_argument("--no-hints", action="store_true",
                         help="omit fix-it hints from text output")
    analyze.add_argument("-o", "--output", default="-",
                         help="report destination ('-' = stdout)")
    analyze.add_argument("-j", "--jobs", type=int, default=1,
                         help="analyze files in N worker processes "
                              "(1 = serial, default)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="disable the per-file analysis cache")
    analyze.add_argument("--cache-dir", default=None,
                         help="analysis cache directory (default: "
                              "$REPRO_ANALYZE_CACHE_DIR or "
                              "~/.cache/repro-analyze)")
    analyze.add_argument("--diff", default=None, metavar="REF",
                         help="report findings only in files changed "
                              "since the merge base with REF (the whole "
                              "project is still linked)")
    analyze.add_argument("--changed-only", action="store_true",
                         help="report findings only in files with "
                              "uncommitted or untracked changes")

    cstatus = csub.add_parser(
        "status", help="show result-cache contents and manifest summaries"
    )
    cstatus.add_argument("--cache-dir", default=None,
                         help="cache directory to inspect")
    cstatus.add_argument("--manifest", default=None,
                         help="summarize one JSONL manifest file")

    trace = sub.add_parser(
        "trace",
        help="run experiments under span tracing and inspect trace files",
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    trun = tsub.add_parser(
        "run", help="run one campaign with tracing on and export the spans"
    )
    trun.add_argument("name", help="campaign name (see 'campaign list')")
    trun.add_argument("-o", "--trace", default=None, metavar="PATH",
                      help="trace output path (default: <name>-trace.json)")
    trun.add_argument("--format", choices=("chrome", "jsonl"),
                      default="chrome", dest="trace_format",
                      help="chrome = Perfetto-loadable trace-event JSON, "
                           "jsonl = one span tree per line (default: chrome)")
    trun.add_argument("-j", "--jobs", type=int, default=1,
                      help="worker processes (1 = serial, default)")
    trun.add_argument("--cache-dir", default=None,
                      help="result cache directory")
    trun.add_argument("--no-cache", action="store_true",
                      help="disable the result cache for this run")
    trun.add_argument("--force", action="store_true",
                      help="recompute even when results are cached")
    trun.add_argument("--no-batch", action="store_true",
                      help="disable lockstep batching of same-model "
                           "job groups (always run per job)")
    trun.add_argument("-P", "--param", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="campaign builder parameter, repeatable")

    treport = tsub.add_parser(
        "report", help="summarize (or schema-check) a trace file"
    )
    treport.add_argument("file", help="Chrome trace-event JSON or span JSONL")
    treport.add_argument("--check", action="store_true",
                         help="validate against the Chrome trace-event "
                              "schema and exit non-zero on problems")

    obs_cmd = sub.add_parser(
        "obs",
        help="live telemetry: tail a running campaign's events",
    )
    osub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    otail = osub.add_parser(
        "tail",
        help="follow the events of a (running) campaign: pass the "
             "manifest path given to 'campaign run --live' (or its "
             ".events.jsonl sidecar directly)",
    )
    otail.add_argument("manifest",
                       help="campaign manifest path or events JSONL file")
    otail.add_argument("--no-follow", action="store_true",
                       help="print what's there and exit instead of "
                            "waiting for more events")
    otail.add_argument("--raw", action="store_true",
                       help="print one line per event instead of the "
                            "progress view")
    otail.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="stop following after S seconds even if the "
                            "campaign hasn't finished")
    return parser


def _build_model(args, floorplan):
    ambient_k = args.ambient + ZERO_CELSIUS_IN_KELVIN
    if args.package == "air":
        config = air_sink_package(
            floorplan.die_width, floorplan.die_height,
            convection_resistance=args.rconv if args.rconv else 1.0,
            ambient=ambient_k,
        )
    else:
        config = oil_silicon_package(
            floorplan.die_width, floorplan.die_height,
            velocity=args.velocity,
            direction=_DIRECTIONS[args.direction],
            uniform_h=args.uniform_h,
            target_resistance=args.rconv,
            include_secondary=not args.no_secondary,
            ambient=ambient_k,
        )
    if args.model == "block":
        return ThermalBlockModel(floorplan, config)
    return ThermalGridModel(floorplan, config, nx=args.grid, ny=args.grid)


def _load_trace(args, floorplan) -> PowerTrace:
    with open(args.ptrace, "r", encoding="utf-8") as handle:
        trace = PowerTrace.from_ptrace(handle, dt=args.sampling_interval)
    trace.check_floorplan(floorplan)
    return trace


def _print_block_temps(floorplan, temps_k, stream: IO[str]) -> None:
    for name, temp in zip(floorplan.names, temps_k):
        stream.write(f"{name}\t{temp - ZERO_CELSIUS_IN_KELVIN:.2f}\n")


def cmd_steady(args) -> int:
    floorplan = load_flp(args.floorplan)
    model = _build_model(args, floorplan)
    trace = _load_trace(args, floorplan)
    rise = steady_state(model.network, model.node_power(trace.average()))
    _print_block_temps(floorplan, model.block_temperatures(rise), sys.stdout)
    return 0


def cmd_transient(args) -> int:
    floorplan = load_flp(args.floorplan)
    model = _build_model(args, floorplan)
    trace = _load_trace(args, floorplan)
    schedule = trace.to_schedule(model)
    x0 = None
    if args.init_steady:
        x0 = steady_state(
            model.network, model.node_power(trace.average())
        )
    result = simulate_schedule(
        model.network, schedule, dt=trace.dt, x0=x0,
        projector=model.block_rise,
    )
    ambient = model.config.ambient - ZERO_CELSIUS_IN_KELVIN
    out = sys.stdout if args.output == "-" else open(
        args.output, "w", encoding="utf-8"
    )
    try:
        out.write("time_s\t" + "\t".join(floorplan.names) + "\n")
        for t, row in zip(result.times, result.states):
            values = "\t".join(f"{v + ambient:.3f}" for v in row)
            out.write(f"{t:.6e}\t{values}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_render(args) -> int:
    from .analysis import map_to_csv, render_ascii_map
    from .rcmodel import ThermalGridModel

    floorplan = load_flp(args.floorplan)
    model = _build_model(args, floorplan)
    if not isinstance(model, ThermalGridModel):
        print("error: render needs the grid model (--model grid)",
              file=sys.stderr)
        return 1
    trace = _load_trace(args, floorplan)
    rise = steady_state(model.network, model.node_power(trace.average()))
    map_c = (
        model.mapping.as_grid(model.silicon_cell_rise(rise))
        + model.config.ambient - ZERO_CELSIUS_IN_KELVIN
    )
    print(render_ascii_map(map_c, title=f"{model.config.name} steady (C)"))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            map_to_csv(map_c, handle)
    return 0


def cmd_info(args) -> int:
    floorplan = load_flp(args.floorplan)
    print(f"floorplan: {floorplan.name}")
    print(f"die: {floorplan.die_width * 1e3:.2f} x "
          f"{floorplan.die_height * 1e3:.2f} mm, "
          f"{len(floorplan)} blocks, "
          f"coverage {100 * floorplan.coverage_fraction():.1f}%")
    print(f"{'block':<12} {'area(mm^2)':>11} {'x(mm)':>8} {'y(mm)':>8}")
    for block in floorplan:
        print(f"{block.name:<12} {block.area * 1e6:11.3f} "
              f"{block.x * 1e3:8.2f} {block.y * 1e3:8.2f}")
    return 0


def cmd_reproduce(args) -> int:
    from .experiments.report import format_report, run_all_experiments

    report = run_all_experiments(
        fast=not args.full,
        progress=lambda line: print(line, file=sys.stderr),
        jobs=args.jobs,
    )
    text = format_report(report)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({report.n_passed}/"
              f"{len(report.rows)} checks passed)", file=sys.stderr)
    return 0 if report.all_passed else 2


def _parse_campaign_params(pairs) -> dict:
    """Parse repeated ``-P key=value`` flags with literal-typed values."""
    import ast

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"bad -P parameter {pair!r}; expected KEY=VALUE")
        try:
            params[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[key] = raw  # plain string (e.g. -P pulse_block=IntReg)
    return params


def _open_sidecar(path: str) -> Optional[IO[str]]:
    """Open the ``--live`` events sidecar for appending (``None`` on error)."""
    import os as _os

    try:
        directory = _os.path.dirname(path)
        if directory:
            _os.makedirs(directory, exist_ok=True)
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        print(f"note: no events sidecar ({exc})", file=sys.stderr)
        return None


def _close_quietly(handle: IO[str]) -> None:
    try:
        handle.close()
    except (OSError, ValueError):
        pass


def _campaign_run(args) -> int:
    import json as _json
    import time as _time

    from .campaign import (
        ResultCache,
        default_cache_dir,
        disk_cache_enabled,
        get_campaign,
        run_campaign,
    )

    spec = get_campaign(args.name, **_parse_campaign_params(args.param))
    cache = None
    cache_root = args.cache_dir or default_cache_dir()
    use_cache = not args.no_cache and disk_cache_enabled()
    if use_cache:
        cache = ResultCache(cache_root)
    manifest = args.manifest
    if manifest is None and use_cache:
        stamp = _time.strftime("%Y%m%d-%H%M%S")
        manifest = f"{cache_root}/manifests/{spec.name}-{stamp}.jsonl"

    import logging

    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.enable_tracing()
    logging.getLogger("repro.cli").info(
        "campaign %s: %d jobs, %d worker(s), cache %s",
        spec.name, len(spec), args.jobs,
        "off" if cache is None else cache_root,
    )
    renderer = None
    sidecar: Optional[IO[str]] = None
    if getattr(args, "live", False):
        renderer = obs.LiveRenderer(obs.CampaignProgress(total=len(spec)))
        if manifest:
            sidecar = _open_sidecar(manifest + ".events.jsonl")

    def on_event(event: obs.Event) -> None:
        # One flushed JSON line per event for `repro obs tail`; a
        # failing sidecar is dropped, the run carries on.
        nonlocal sidecar
        assert renderer is not None
        renderer.on_event(event)
        if sidecar is None:
            return
        try:
            sidecar.write(_json.dumps(event, sort_keys=True, default=str)
                          + "\n")
            sidecar.flush()
        except (OSError, ValueError):
            _close_quietly(sidecar)
            sidecar = None

    try:
        run = run_campaign(
            spec, jobs=args.jobs, cache=cache, manifest_path=manifest,
            force=args.force,
            batch=not args.no_batch,
            on_event=on_event if renderer is not None else None,
        )
    finally:
        if sidecar is not None:
            _close_quietly(sidecar)
        if renderer is not None:
            renderer.close()
    summary = run.summary
    print(f"{summary.n_ok}/{summary.n_jobs} jobs ok, "
          f"{summary.n_cached} cached "
          f"(hit rate {100 * summary.hit_rate:.0f}%), "
          f"p50 {summary.p50_wall_s:.3f} s, "
          f"p95 {summary.p95_wall_s:.3f} s, "
          f"total {summary.total_wall_s:.3f} s")
    if manifest:
        print(f"manifest: {manifest}")
    if trace_path:
        roots = list(obs.tracer().drain()) + run.span_roots()
        n_events = obs.write_chrome_trace(roots, trace_path)
        print(f"trace: {trace_path} ({n_events} events)")
    return 0 if run.ok else 2


def _campaign_list(args) -> int:
    from .campaign import list_campaigns

    for definition in list_campaigns():
        print(f"{definition.name:<14} {definition.description}")
    return 0


def _campaign_status(args) -> int:
    from .campaign import ResultCache, default_cache_dir, manifest_summary

    root = args.cache_dir or default_cache_dir()
    stats = ResultCache(root).stats()
    print(f"cache: {stats['root']}")
    print(f"  results: {stats['n_results']}  traces: {stats['n_traces']}  "
          f"size: {stats['bytes'] / 1e6:.1f} MB")
    lifetime = stats.get("lifetime_counters", {})
    if lifetime:
        hits = lifetime.get("hits", 0)
        misses = lifetime.get("misses", 0)
        probes = hits + misses
        rate = f", hit rate {100 * hits / probes:.0f}%" if probes else ""
        print(f"  lifetime: hits={hits} misses={misses} "
              f"stores={lifetime.get('stores', 0)} "
              f"evictions={lifetime.get('evictions', 0)}{rate}")
    if args.manifest:
        summary = manifest_summary(args.manifest)
        if summary is None:
            print(f"manifest {args.manifest}: no records")
            return 1
        print(f"manifest: {args.manifest}")
        print(f"  campaign {summary.campaign}: {summary.n_ok}/"
              f"{summary.n_jobs} ok, hit rate "
              f"{100 * summary.hit_rate:.0f}%, p50 "
              f"{summary.p50_wall_s:.3f} s, p95 {summary.p95_wall_s:.3f} s")
    return 0


def cmd_analyze(args) -> int:
    import os

    from .analysis import static as static_analysis

    if args.list_rules:
        for rule in static_analysis.make_rules():
            print(f"{rule.name:<20} {rule.severity:<8} {rule.description}")
        return 0

    rule_names = None
    if args.rules:
        rule_names = [name.strip() for name in args.rules.split(",") if name.strip()]

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(static_analysis.DEFAULT_BASELINE):
        baseline_path = static_analysis.DEFAULT_BASELINE

    baseline = None
    if baseline_path is not None and not args.write_baseline:
        baseline = static_analysis.Baseline.load(baseline_path)

    if args.write_baseline and (args.diff or args.changed_only):
        print("error: --write-baseline needs a full run, not --diff/"
              "--changed-only", file=sys.stderr)
        return 2

    result = static_analysis.analyze_paths(
        args.paths, rule_names=rule_names, baseline=baseline,
        jobs=args.jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        changed_only=args.changed_only, diff_ref=args.diff,
    )

    if args.write_baseline:
        target = baseline_path or static_analysis.DEFAULT_BASELINE
        static_analysis.Baseline.from_findings(result.all_pairs).write(target)
        print(f"wrote {target} ({len(result.all_pairs)} finding(s) baselined, "
              f"{result.files_analyzed} file(s) analyzed)", file=sys.stderr)
        return 0

    if args.output_format == "text":
        text = static_analysis.format_text(
            result.findings,
            show_hints=not args.no_hints,
            baselined_count=len(result.baselined),
            stale_count=len(result.stale_fingerprints),
        ) + "\n"
    elif args.output_format == "json":
        text = static_analysis.format_json(
            result.findings,
            baselined_count=len(result.baselined),
            stale_count=len(result.stale_fingerprints),
        )
    else:
        text = static_analysis.format_sarif(result.findings, result.rules)

    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if result.fails(args.fail_on) else 0


def cmd_campaign(args) -> int:
    handlers = {
        "run": _campaign_run,
        "list": _campaign_list,
        "status": _campaign_status,
    }
    return handlers[args.campaign_command](args)


def _trace_run(args) -> int:
    import time as _time

    from .campaign import (
        ResultCache,
        default_cache_dir,
        disk_cache_enabled,
        get_campaign,
        run_campaign,
    )

    spec = get_campaign(args.name, **_parse_campaign_params(args.param))
    cache = None
    if not args.no_cache and disk_cache_enabled():
        cache = ResultCache(args.cache_dir or default_cache_dir())
    out = args.trace or f"{spec.name}-trace.json"

    obs.enable_tracing()
    t0 = _time.perf_counter()
    run = run_campaign(
        spec, jobs=args.jobs, cache=cache, force=args.force,
        capture_obs=True, batch=not args.no_batch,
    )
    wall = _time.perf_counter() - t0

    roots = list(obs.tracer().drain()) + run.span_roots()
    if args.trace_format == "chrome":
        count = obs.write_chrome_trace(roots, out)
        what = f"{count} trace events"
    else:
        count = obs.write_spans_jsonl(roots, out)
        what = f"{count} span trees"
    print(obs.summary_tree(roots, total_s=wall))
    print(f"trace: {out} ({what}, {wall:.3f} s traced)", file=sys.stderr)
    return 0 if run.ok else 2


def _trace_report(args) -> int:
    kind, data = obs.read_trace_file(args.file)
    if args.check:
        trace = data if kind == "chrome" else obs.chrome_trace(data)
        errors = obs.validate_chrome_trace(trace)
        for problem in errors:
            print(f"error: {problem}", file=sys.stderr)
        n = len(trace.get("traceEvents", []))
        print(f"{args.file}: {kind} format, {n} events, "
              f"{'INVALID' if errors else 'valid'}")
        return 1 if errors else 0
    if kind == "chrome":
        print(obs.chrome_summary_table(data))
    else:
        print(obs.summary_tree(data))
    return 0


def cmd_trace(args) -> int:
    handlers = {"run": _trace_run, "report": _trace_report}
    return handlers[args.trace_command](args)


def _events_sidecar_path(path: str) -> str:
    """Resolve a tail target: a manifest path or its events sidecar."""
    if path.endswith(".events.jsonl"):
        return path
    return path + ".events.jsonl"


def _obs_tail(args) -> int:
    import json as _json
    import os as _os
    import time as _time

    path = _events_sidecar_path(args.manifest)
    progress = obs.CampaignProgress()
    deadline = (_time.monotonic() + args.timeout
                if args.timeout is not None else None)
    # Wait briefly for the sidecar to appear when following a campaign
    # that is still starting up.
    while not _os.path.exists(path):
        if args.no_follow or (deadline is not None
                              and _time.monotonic() >= deadline):
            print(f"error: no events file at {path} (run the campaign "
                  f"with --live)", file=sys.stderr)
            return 1
        _time.sleep(0.2)

    def show(event: dict) -> None:
        progress.observe(event)
        if args.raw:
            print(_json.dumps(event, sort_keys=True))

    handle = open(path, "r", encoding="utf-8")
    try:
        while True:
            line = handle.readline()
            if line:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = _json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict) and "type" in event:
                    show(event)
                continue
            if progress.finished or args.no_follow:
                break
            if deadline is not None and _time.monotonic() >= deadline:
                break
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
    if not args.raw:
        print(progress.render_table())
    return 0


def cmd_obs(args) -> int:
    return _obs_tail(args)


_COMMANDS = {
    "steady": cmd_steady,
    "transient": cmd_transient,
    "render": cmd_render,
    "info": cmd_info,
    "reproduce": cmd_reproduce,
    "campaign": cmd_campaign,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
    "obs": cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    obs.logging_setup(args.verbose - args.quiet)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
