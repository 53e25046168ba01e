"""One benchmark iteration in a fresh interpreter.

Started by ``run.py`` once per iteration, so in-process caches
(``lru_cache`` traces, factor caches, kernel caches) start cold.  It
writes one JSON result file:

* ``setup_s``: from the first line of this script until the imports of
  ``repro``, ``repro.experiments`` and ``repro.campaign`` are done and
  the workload's specs are built;
* ``wall_s``: the workload body alone;
* ``failures``, ``digest`` and ``counters`` (the body's delta of the
  always-on ``repro.obs`` counters);
* with ``--trace``, the layer measurements of :mod:`layers`.

With ``--warm`` it only fills the trace store and reports ``warmup_s``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _record_summaries() -> List[Dict[str, Any]]:
    """Collect each simulator run's ``SimulationSummary`` for the digest."""
    from repro.microarch.simulator import MicroarchSimulator

    summaries: List[Dict[str, Any]] = []
    original = MicroarchSimulator.run

    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        trace = original(self, *args, **kwargs)
        summaries.append(dataclasses.asdict(self.last_summary))
        return trace

    MicroarchSimulator.run = run  # type: ignore[method-assign]
    return summaries


def _digest(workload: Any, output: Any,
            summaries: List[Dict[str, Any]]) -> str:
    """sha256 of the workload's output numbers and the simulator summaries."""
    sha = hashlib.sha256()
    if output is not None:
        workload.digest(output, sha)
    sha.update(json.dumps(summaries, sort_keys=True).encode())
    return sha.hexdigest()


def iterate(workload_name: str, seed: int, scratch: str,
            trace: bool) -> Dict[str, Any]:
    """Set up and run one iteration; returns the result record."""
    import repro  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.experiments  # noqa: F401
    from repro import obs

    from benchmarks.e2e import layers, workloads

    workload = workloads.WORKLOADS[workload_name](seed, scratch)
    setup_s = time.perf_counter() - _START

    summaries = _record_summaries()
    tracer: Optional[layers.Tracer] = layers.Tracer().install() if trace else None
    registry = obs.metrics()
    before = registry.snapshot()
    failures: List[str] = []
    output = None
    start = time.perf_counter()
    try:
        output = workload.run()
    except Exception:  # noqa: BLE001 - a failed iteration is a result
        failures.append(traceback.format_exc())
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    counters = obs.snapshot_diff(registry.snapshot(), before)["counters"]

    if output is not None:
        failures.extend(workload.check(output))
    for name in ("campaign.jobs.failures", "campaign.jobs.retries"):
        if counters.get(name, 0):
            failures.append(f"{name} = {counters[name]:g}")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "failures": failures,
        "digest": _digest(workload, output, summaries),
        "counters": counters,
        "layers": tracer.snapshot() if tracer is not None else None,
    }


def warm(workload_name: str, seed: int) -> Dict[str, Any]:
    """Fill the trace store for ``workload_name``; untimed by the run."""
    from benchmarks.e2e import workloads

    start = time.perf_counter()
    workloads.WORKLOADS[workload_name].warm(seed)
    return {"warmup_s": time.perf_counter() - start}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scratch", required=True,
                        help="private directory of this iteration")
    parser.add_argument("--result", required=True,
                        help="where to write the JSON result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(_REPO, "src"), _REPO]
    if args.warm:
        record = warm(args.workload, args.seed)
    else:
        record = iterate(args.workload, args.seed, args.scratch, args.trace)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
