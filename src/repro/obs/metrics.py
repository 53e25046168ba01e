"""Counters for domain events.

Metrics answer *how often did the interesting thing happen*: LU
factorizations versus fingerprint cache hits, implicit transient
steps, result-cache hits/misses, job failures.  They are **always
on** — an increment is a lock acquire plus an add, and every
instrumented event is coarse (one per solve / factorization / cache
probe), so the cost vanishes next to the work being counted.

Cross-process aggregation works by value, not by reference: a worker
snapshots the registry before and after a call
(:meth:`MetricsRegistry.snapshot` / :func:`snapshot_diff`, wrapped as
:func:`repro.obs.measured_call`), ships the delta back with the
result, and the parent folds it in with :meth:`MetricsRegistry.merge`
— so pool runs and serial runs report identical counts.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Counter:
    """A monotonically increasing event count.

    ``lock`` lets a :class:`MetricsRegistry` share one registry-level
    lock across all of its instruments so a snapshot can't observe a
    torn mid-increment view; standalone instruments get a private one.
    """

    __slots__ = ("name", "_value", "_lock")

    #: mutations hold ``_lock`` (possibly registry-shared); the
    #: ``value`` property is an intentional lock-free fast read
    _value: float

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


#: A snapshot: ``{"counters": {name: value}}``.
Snapshot = Dict[str, Dict[str, float]]


class MetricsRegistry:
    """A named collection of counters with get-or-create semantics.

    Asking for an existing name returns the live counter, so every
    module that counts one event adds to the same total.
    """

    #: get-or-create and snapshot iterate/mutate this map from
    #: arbitrary threads; every access holds the registry's ``_lock``
    _metrics: Dict[str, Counter]

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Counter(name, lock=self._lock)
                self._metrics[name] = metric
            return metric

    # -- value transport ----------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Plain-data copy of every counter's current value.

        Internally consistent: all reads happen under the single
        registry-level lock every registry-owned counter shares, so a
        snapshot taken mid-increment can never observe counter A after
        an event and counter B before it.
        """
        with self._lock:
            counters = {name: metric._value
                        for name, metric in self._metrics.items()}
        return {"counters": counters}

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a (delta) snapshot from another process into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)


def snapshot_diff(after: Snapshot, before: Snapshot) -> Snapshot:
    """The change between two snapshots (``after - before``).

    Zero-delta counters are dropped so deltas stay small.
    """
    counters: Dict[str, float] = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0.0)
        if delta:
            counters[name] = delta
    return {"counters": counters}
