"""Counters, gauges, and fixed-bucket histograms for domain events.

Where spans answer *where did the time go*, metrics answer *how often
did the interesting thing happen*: LU factorizations versus
fingerprint cache hits, implicit transient steps, result-cache
hits/misses, job failures.  Metrics are **always on** — an increment is
a lock acquire plus an add, and every instrumented event is coarse
(one per solve / factorization / cache probe), so the cost vanishes
next to the work being counted.  Only *timing* belongs behind the
tracer's enabled flag.

Cross-process aggregation works by value, not by reference: a worker
snapshots the registry before and after a call
(:meth:`MetricsRegistry.snapshot` / :func:`snapshot_diff`, wrapped as
:func:`repro.obs.measured_call`), ships the delta back with the
result, and the parent folds it in with :meth:`MetricsRegistry.merge`
— so pool runs and serial runs report identical counts.
"""

from __future__ import annotations

import threading
from typing import Annotated, Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import units

#: Default histogram buckets for durations in seconds: ~log-spaced from
#: 100 microseconds (one sparse triangular solve on a small grid) to
#: 30 s (a full-resolution campaign job).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing event count.

    ``lock`` lets a :class:`MetricsRegistry` share one registry-level
    lock across all of its instruments so a snapshot can't observe a
    torn mid-increment view; standalone instruments get a private one.
    """

    __slots__ = ("name", "_value", "_lock")

    #: mutations hold the (possibly registry-shared) lock; the
    #: ``value`` property is an intentional lock-free fast read
    _value: Annotated[float, units.guarded_by("_lock")]

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) to the count."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    _value: Annotated[float, units.guarded_by("_lock")]

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last bound, so ``len(counts) ==
    len(bounds) + 1``.  Tracks ``sum`` and ``count`` alongside the
    buckets (enough for mean + quantile estimates).
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_n", "_lock")

    _counts: Annotated[List[int], units.guarded_by("_lock")]
    _sum: Annotated[float, units.guarded_by("_lock")]
    _n: Annotated[int, units.guarded_by("_lock")]

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._n = 0
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._n += 1

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> List[int]:
        return list(self._counts)


Metric = Union[Counter, Gauge, Histogram]

#: A snapshot: ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``.
Snapshot = Dict[str, Dict[str, Any]]


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    Metric creation is idempotent by (name, type): asking for an
    existing name with the same type returns the live instance, with a
    different type raises — silent shadowing would split counts.
    """

    #: get-or-create and snapshot iterate/mutate this map from
    #: arbitrary threads; every access holds the registry lock
    _metrics: Annotated[Dict[str, "Metric"], units.guarded_by("_lock")]

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory: Any, kind: type) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(
            name, lambda: Counter(name, lock=self._lock), Counter
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(
            name, lambda: Gauge(name, lock=self._lock), Gauge
        )
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._get_or_create(
            name,
            lambda: Histogram(name, buckets or DEFAULT_TIME_BUCKETS,
                              lock=self._lock),
            Histogram,
        )
        assert isinstance(metric, Histogram)
        return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- value transport ----------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Plain-data copy of every metric's current value.

        Internally consistent: all reads happen under the single
        registry-level lock every registry-owned instrument shares, so
        a snapshot taken mid-increment can never observe instrument A
        after an event and instrument B before it.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            for name, metric in self._metrics.items():
                if isinstance(metric, Counter):
                    counters[name] = metric._value
                elif isinstance(metric, Gauge):
                    gauges[name] = metric._value
                else:
                    histograms[name] = {
                        "bounds": list(metric.bounds),
                        "counts": list(metric._counts),
                        "sum": metric._sum,
                        "count": metric._n,
                    }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a (delta) snapshot from another process into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins, same as in-process).
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, data.get("bounds") or None)
            incoming = list(data.get("counts", []))
            if list(hist.bounds) != [float(b) for b in data.get("bounds", [])]:
                # bucket mismatch: fall back to re-observing the mean
                count = int(data.get("count", 0))
                if count:
                    mean = float(data.get("sum", 0.0)) / count
                    for _ in range(count):
                        hist.observe(mean)
                continue
            with hist._lock:
                for i, n in enumerate(incoming[: len(hist._counts)]):
                    hist._counts[i] += int(n)
                hist._sum += float(data.get("sum", 0.0))
                hist._n += int(data.get("count", 0))


def snapshot_diff(after: Snapshot, before: Snapshot) -> Snapshot:
    """The change between two snapshots (``after - before``).

    Zero-delta counters/histograms are dropped so job records stay
    small; gauges keep their ``after`` value.
    """
    counters: Dict[str, float] = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0.0)
        if delta:
            counters[name] = delta
    gauges = dict(after.get("gauges", {}))
    histograms: Dict[str, Dict[str, Any]] = {}
    for name, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None or list(prior.get("bounds", [])) != list(data["bounds"]):
            delta_counts = list(data["counts"])
            delta_sum = float(data["sum"])
            delta_n = int(data["count"])
        else:
            delta_counts = [
                int(a) - int(b)
                for a, b in zip(data["counts"], prior.get("counts", []))
            ]
            delta_sum = float(data["sum"]) - float(prior.get("sum", 0.0))
            delta_n = int(data["count"]) - int(prior.get("count", 0))
        if delta_n:
            histograms[name] = {
                "bounds": list(data["bounds"]),
                "counts": delta_counts,
                "sum": delta_sum,
                "count": delta_n,
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def scale_snapshot(snapshot: Snapshot, factor: float) -> Snapshot:
    """A copy of ``snapshot`` with counters/histograms scaled by ``factor``.

    Used to apportion a lockstep batch's metric delta evenly across its
    K member jobs (``factor = 1/K``): counter values, histogram bucket
    counts, sums, and counts all scale; gauges are instantaneous and
    pass through unscaled.  Scaled bucket counts may be fractional —
    apportioned snapshots are for *reporting* (flattened into manifest
    records), never merged back into a live registry.
    """
    counters = {
        name: value * factor
        for name, value in snapshot.get("counters", {}).items()
    }
    gauges = dict(snapshot.get("gauges", {}))
    histograms: Dict[str, Dict[str, Any]] = {}
    for name, data in snapshot.get("histograms", {}).items():
        histograms[name] = {
            "bounds": list(data.get("bounds", [])),
            "counts": [float(c) * factor for c in data.get("counts", [])],
            "sum": float(data.get("sum", 0.0)) * factor,
            "count": float(data.get("count", 0)) * factor,
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def flatten_snapshot(snapshot: Snapshot) -> Dict[str, float]:
    """One flat ``name -> number`` mapping for manifests and reports.

    Histograms contribute ``<name>.count`` and ``<name>.sum_s``; the
    bucket detail stays in the structured snapshot.
    """
    flat: Dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        flat[name] = value
    for name, value in snapshot.get("gauges", {}).items():
        flat[name] = value
    for name, data in snapshot.get("histograms", {}).items():
        flat[f"{name}.count"] = float(data.get("count", 0))
        flat[f"{name}.sum_s"] = float(data.get("sum", 0.0))
    return flat
