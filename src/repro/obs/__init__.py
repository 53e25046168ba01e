"""``repro.obs`` — zero-dependency observability: metrics and logs.

The paper's experiments live or die on solver behaviour — LU
factorization reuse, millisecond-step transient integration,
sweep-scale job execution — and this package is how the rest of the
codebase *sees* that behaviour:

* :mod:`~repro.obs.metrics` — always-on counters for domain events
  (factorizations, cache hits, steps, job failures),
  snapshot/merge-able across the campaign process pool;
* :mod:`~repro.obs.logsetup` — one-call stdlib-logging wiring for the
  CLI's ``--verbose``/``--quiet`` flags.

Everything here is pure stdlib: the solver and model layers may import
``repro.obs`` without dragging in numpy/scipy or any third-party
telemetry client.  Where the time goes, layer by layer, is measured
outside the package by the benchmark's layer profile
(``benchmarks/e2e/run.py --trace 1``).

Typical use::

    from repro import obs

    before = obs.metrics().snapshot()
    run_fig11(...)
    delta = obs.snapshot_diff(obs.metrics().snapshot(), before)
    print(delta["counters"].get("solver.steady.factorizations", 0))
"""

from typing import Any, Callable, Tuple

from .logsetup import logging_setup, verbosity_level
from .taxonomy import METRIC_NAMES
from .metrics import Counter, MetricsRegistry, Snapshot, snapshot_diff

#: Process-global default metrics registry (always on).
_METRICS = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


def measured_call(fn: Callable[..., Any], /, *args: Any,
                  **kwargs: Any) -> Tuple[Any, Snapshot]:
    """Call ``fn`` and return its result with the registry delta it caused.

    The worker side of a process pool: the parent folds the delta into
    its own registry with :meth:`MetricsRegistry.merge`, so a pooled
    call leaves the same counts as an in-process one.
    """
    before = _METRICS.snapshot()
    result = fn(*args, **kwargs)
    return result, snapshot_diff(_METRICS.snapshot(), before)


__all__ = [
    "Counter",
    "METRIC_NAMES",
    "MetricsRegistry",
    "Snapshot",
    "logging_setup",
    "measured_call",
    "metrics",
    "snapshot_diff",
    "verbosity_level",
]
