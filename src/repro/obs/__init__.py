"""``repro.obs`` — zero-dependency observability: tracing, metrics, logs.

The paper's experiments live or die on solver behaviour — LU
factorization reuse, millisecond-step transient integration,
sweep-scale job execution — and this package is how the rest of the
codebase *sees* that behaviour:

* :mod:`~repro.obs.tracing` — nested spans with context-manager and
  decorator APIs; the process-global tracer is a no-op until enabled,
  so instrumented hot paths cost one attribute check when off;
* :mod:`~repro.obs.metrics` — always-on counters/gauges/histograms
  for domain events (factorizations, cache hits, steps, retries),
  snapshot/merge-able across the campaign process pool;
* :mod:`~repro.obs.export` — JSONL span logs, Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto loadable), and plain-text summary
  trees;
* :mod:`~repro.obs.logsetup` — one-call stdlib-logging wiring for the
  CLI's ``--verbose``/``--quiet`` flags.

Everything here is pure stdlib: the solver and model layers may import
``repro.obs`` without dragging in numpy/scipy or any third-party
telemetry client.

Typical use::

    from repro import obs

    obs.enable_tracing()
    with obs.span("experiment.fig11"):
        run_fig11(...)
    obs.write_chrome_trace(obs.tracer().drain(), "fig11-trace.json")
"""

from .events import EVENT_TYPES, Event, make_event, read_events_jsonl
from .export import (
    chrome_summary_table,
    chrome_trace,
    read_trace_file,
    span_summary,
    summary_tree,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from .logsetup import logging_setup, verbosity_level
from .progress import CampaignProgress, JobProgress, LiveRenderer
from .taxonomy import METRIC_NAMES, METRIC_PREFIXES, SPAN_NAMES, known_metric, known_span
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Snapshot,
    flatten_snapshot,
    scale_snapshot,
    snapshot_diff,
)
from .tracing import NULL_SPAN, AnySpan, NullSpan, Span, Tracer

#: Process-global default tracer (disabled until :func:`enable_tracing`).
_TRACER = Tracer()

#: Process-global default metrics registry (always on).
_METRICS = MetricsRegistry()


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


def span(name: str, **attrs: object) -> AnySpan:
    """Open a span on the global tracer (no-op while disabled)."""
    if not _TRACER.enabled:
        return NULL_SPAN
    return _TRACER.span(name, **attrs)


def tracing_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return _TRACER.enabled


def enable_tracing() -> Tracer:
    """Turn the global tracer on; returns it for chaining."""
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> Tracer:
    """Turn the global tracer off (completed roots are kept)."""
    _TRACER.enabled = False
    return _TRACER


__all__ = [
    "AnySpan",
    "CampaignProgress",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "EVENT_TYPES",
    "Event",
    "Gauge",
    "Histogram",
    "JobProgress",
    "LiveRenderer",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "SPAN_NAMES",
    "Snapshot",
    "Span",
    "Tracer",
    "chrome_summary_table",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "flatten_snapshot",
    "known_metric",
    "known_span",
    "logging_setup",
    "make_event",
    "metrics",
    "read_events_jsonl",
    "read_trace_file",
    "scale_snapshot",
    "snapshot_diff",
    "span",
    "span_summary",
    "summary_tree",
    "tracer",
    "tracing_enabled",
    "validate_chrome_trace",
    "verbosity_level",
    "write_chrome_trace",
    "write_spans_jsonl",
]
