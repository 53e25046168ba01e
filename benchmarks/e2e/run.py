"""End-to-end benchmark: reproduce, trace-driven and sweep runs.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fig12-trace --seed 3 --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e.run --sets 2

Each workload runs as a closed loop with one client: iterations run
back to back, each in a fresh child interpreter (``worker.py``), until
``--seconds`` have passed.  Every iteration gets its own temporary
``REPRO_CACHE_DIR``, except that workloads with a ``warm`` step share
one trace store that is filled once per run, untimed.  The end-to-end
metrics are medians over the iterations of the run; with ``--trace 1``
one more, traced iteration gives the per-layer metrics of
:mod:`benchmarks.e2e.layers` and writes
``.bench_e2e/<workload>.layers.json``.

An iteration fails when it raises, when a correctness check of its
workload fails, when a campaign job fails or retries, or when its
output digest differs from the run's first iteration.  Every metric is
printed by name with its unit, median, quartiles and sample count; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` metrics
with ``--trace 1``).

``--sets K`` repeats every workload K times, compares the set medians
of each end-to-end metric against the metric's bound, checks that every
per-layer count is identical across sets, and exits non-zero on any
excess.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(REPO, ".bench_e2e")

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, REPO)

from benchmarks.e2e import layers  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: Kill an iteration that runs longer than this (seconds).
ITERATION_TIMEOUT_S = 150

#: The end-to-end metrics each untraced iteration yields.
E2E_FIELDS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, failed warm-up)."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds and run length."""
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return dict(json.load(handle))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def _wait(proc: "subprocess.Popen[bytes]", timeout: int) -> Any:
    """Reap ``proc`` and return its resource usage; kill it after ``timeout``.

    Blocks in ``wait4`` rather than polling, so this process takes no
    CPU from the measured child; an alarm kills a child that overruns.
    """
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_worker(workload: str, seed: int, work: str, store: Optional[str],
               extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Run ``worker.py`` once in a private scratch directory under ``work``.

    ``store`` is the shared trace store, or ``None`` for a cold one.
    Adds the child's CPU time, peak RSS and run time to its record.
    """
    scratch = tempfile.mkdtemp(prefix="iteration-", dir=work)
    result_path = os.path.join(scratch, "result.json")
    # a fixed hash seed gives every iteration the same set/dict orders
    env = dict(os.environ, TMPDIR=scratch, PYTHONHASHSEED="0",
               REPRO_CACHE_DIR=store or os.path.join(scratch, "store"))
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--scratch", scratch,
               "--result", result_path, *extra]
    started = time.monotonic()
    # the child's stdout goes to stderr: the last stdout line is ours
    proc = subprocess.Popen(command, cwd=REPO, env=env, stdout=sys.stderr)
    usage = _wait(proc, ITERATION_TIMEOUT_S)
    duration = time.monotonic() - started
    try:
        with open(result_path, encoding="utf-8") as handle:
            record: Dict[str, Any] = json.load(handle)
    except (OSError, ValueError):
        record = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.setdefault("failures", [])
    if proc.returncode:
        record["failures"].append(f"worker exited with code {proc.returncode}")
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["duration_s"] = duration
    return record


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """One run of one workload: warm-up, timed loop, optional traced pass."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        store = None
        warmup_s = 0.0
        if hasattr(WORKLOADS[workload], "warm"):
            store = os.path.join(work, "store")
            record = run_worker(workload, seed, work, store, ("--warm",))
            if record["failures"] or "warmup_s" not in record:
                raise BenchmarkError(
                    f"{workload}: trace-store warm-up failed: "
                    f"{record['failures']}")
            warmup_s = float(record["warmup_s"])
        samples: List[Dict[str, Any]] = []
        start = time.monotonic()
        while True:
            samples.append(run_worker(workload, seed, work, store))
            elapsed = time.monotonic() - start
            typical = statistics.median(s["duration_s"] for s in samples)
            # stop when one more iteration would end past the deadline
            # by more than half an iteration
            if elapsed + typical / 2 > seconds:
                break
        traced = (run_worker(workload, seed, work, store, ("--trace",))
                  if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = samples[0].get("digest")
    for record in samples[1:] + ([traced] if traced else []):
        if record.get("digest") != reference:
            record["failures"].append(
                "output digest differs from the run's first iteration")
    good = [s for s in samples if not s["failures"]]
    result: Dict[str, Any] = {
        "workload": workload,
        "samples": {name: [float(s[name]) for s in good]
                    for name in E2E_FIELDS},
        "digests": [s.get("digest") for s in samples],
        "failures": [f for s in samples for f in s["failures"]],
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "per_layer": None,
    }
    if traced is not None:
        result["attempted"] += 1
        result["failed"] += bool(traced["failures"])
        result["failures"].extend(f"traced: {f}" for f in traced["failures"])
        result["digests"].append(traced.get("digest"))
        if traced.get("layers") is not None and good:
            metrics = layers.layer_metrics(
                traced["layers"], traced["counters"], traced["wall_s"],
                statistics.median(result["samples"]["wall_s"]), warmup_s)
            result["per_layer"] = metrics
            with open(os.path.join(OUT, f"{workload}.layers.json"), "w",
                      encoding="utf-8") as handle:
                json.dump({"workload": workload, "seed": seed,
                           "metrics": metrics, "layers": traced["layers"],
                           "counters": traced["counters"]},
                          handle, indent=1, sort_keys=True)
    return result


def summarize(values: List[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def report(result: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, float]:
    """Print one run's metrics; returns the end-to-end medians."""
    name = result["workload"]
    print(f"== {name}: {result['attempted']} iterations attempted, "
          f"{result['failed']} failed, error_rate "
          f"{result['failed'] / result['attempted']:.3f}")
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
        print(f"   FAIL {failure.strip().splitlines()[-1]}")
    for i, digest in enumerate(result["digests"]):
        print(f"   digest[{i}] {digest}")
    medians: Dict[str, float] = {}
    print(f"   {'metric':<40} {'unit':<10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}")
    for metric in spec["end_to_end"]:
        values = result["samples"].get(metric["name"], [])
        if not values:
            continue
        median, q1, q3 = summarize(values)
        medians[metric["name"]] = median
        print(f"   {metric['name']:<40} {metric['unit']:<10} {median:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {len(values):3d}")
    for metric in spec["per_layer"] if result["per_layer"] else ():
        value = result["per_layer"][metric["name"]]
        print(f"   {metric['name']:<40} {metric['unit']:<10} {value:12.6g} "
              f"{'':>12} {'':>12} {1:3d}")
    return medians


def compare_sets(sets: List[Dict[str, Any]], medians: List[Dict[str, float]],
                 spec: Dict[str, Any]) -> List[str]:
    """Set-to-set excesses: end-to-end medians beyond bound, count drift."""
    problems = []
    name = sets[0]["workload"]
    for metric in spec["end_to_end"]:
        values = [m[metric["name"]] for m in medians if metric["name"] in m]
        if len(values) < 2:
            continue
        worst = max(abs(v - values[0]) / values[0] for v in values[1:])
        verdict = "ok" if worst <= metric["bound"] else "EXCEEDS"
        print(f"   {name} {metric['name']:<14} set medians "
              f"{', '.join(f'{v:.6g}' for v in values)}: max difference "
              f"{100 * worst:.2f}% (bound {100 * metric['bound']:.0f}%) "
              f"{verdict}")
        if verdict != "ok":
            problems.append(f"{name} {metric['name']} differs by "
                            f"{100 * worst:.2f}% across sets")
    layered = [s["per_layer"] for s in sets if s["per_layer"]]
    for metric in spec["per_layer"]:
        if metric["unit"] != "count" or len(layered) < 2:
            continue
        values = {m[metric["name"]] for m in layered}
        if len(values) > 1:
            problems.append(f"{name} {metric['name']} differs across sets: "
                            f"{sorted(values)}")
    return problems


def _final_metrics(sets: List[Dict[str, Any]], medians: List[Dict[str, float]],
                   spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The JSON metrics of one workload: the median over its sets."""
    out: Dict[str, Any] = {}
    if trace:
        layered = [s["per_layer"] for s in sets if s["per_layer"]]
        for metric in spec["per_layer"]:
            values = [m[metric["name"]] for m in layered]
            out[metric["name"]] = {
                "value": statistics.median(values) if values else None,
                "unit": metric["unit"]}
        return out
    for metric in spec["end_to_end"]:
        values = [m[metric["name"]] for m in medians if metric["name"] in m]
        out[metric["name"]] = {
            "value": statistics.median(values) if values else None,
            "unit": metric["unit"]}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    try:
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="gcc trace seed of fig12-trace (default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run (default from "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add a traced iteration and report per-layer "
                             "metrics (default 1)")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat every workload this many times and "
                             "compare the set medians")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"error: no program sources under {REPO}/src", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)

    attempted = failed = 0
    problems: List[str] = []
    final: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            sets: List[Dict[str, Any]] = []
            medians: List[Dict[str, float]] = []
            for index in range(args.sets):
                if args.sets > 1:
                    print(f"-- set {index + 1}/{args.sets}")
                sets.append(measure(name, args.seed, args.seconds,
                                    bool(args.trace)))
                medians.append(report(sets[-1], spec))
                attempted += sets[-1]["attempted"]
                failed += sets[-1]["failed"]
            if args.sets > 1:
                problems.extend(compare_sets(sets, medians, spec))
            final[name] = _final_metrics(sets, medians, spec, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"SETS {problem}")

    metrics = final[names[0]] if len(names) == 1 else {
        f"{name}.{metric}": value
        for name, values in final.items() for metric, value in values.items()
    }
    if any(metrics[m]["value"] is None for m in metrics):
        print("error: no successful iteration to measure", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
