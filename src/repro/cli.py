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
    registry and the cache.

Package selection mirrors the paper: ``--package air`` (default) or
``--package oil``, with ``--rconv``, ``--velocity``, ``--direction``
and ``--no-secondary`` adjusting the configuration.  Global ``-v`` /
``-q`` flags adjust log verbosity (the campaign engine reports job
progress through the ``repro`` logger).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


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

    csub.add_parser("list", help="list registered campaigns")

    cstatus = csub.add_parser(
        "status", help="show result-cache contents and manifest summaries"
    )
    cstatus.add_argument("--cache-dir", default=None,
                         help="cache directory to inspect")
    cstatus.add_argument("--manifest", default=None,
                         help="summarize one JSONL manifest file")
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


def _campaign_run(args) -> int:
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

    logging.getLogger("repro.cli").info(
        "campaign %s: %d jobs, %d worker(s), cache %s",
        spec.name, len(spec), args.jobs,
        "off" if cache is None else cache_root,
    )
    run = run_campaign(
        spec, jobs=args.jobs, cache=cache, manifest_path=manifest,
        force=args.force, batch=not args.no_batch,
    )
    summary = run.summary
    print(f"{summary.n_ok}/{summary.n_jobs} jobs ok, "
          f"{summary.n_cached} cached "
          f"(hit rate {100 * summary.hit_rate:.0f}%), "
          f"p50 {summary.p50_wall_s:.3f} s, "
          f"p95 {summary.p95_wall_s:.3f} s, "
          f"total {summary.total_wall_s:.3f} s")
    if manifest:
        print(f"manifest: {manifest}")
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


def cmd_campaign(args) -> int:
    handlers = {
        "run": _campaign_run,
        "list": _campaign_list,
        "status": _campaign_status,
    }
    return handlers[args.campaign_command](args)


_COMMANDS = {
    "steady": cmd_steady,
    "transient": cmd_transient,
    "render": cmd_render,
    "info": cmd_info,
    "reproduce": cmd_reproduce,
    "campaign": cmd_campaign,
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
