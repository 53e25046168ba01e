"""Tests for metrics-registry consistency under concurrency."""

import threading
import time

from repro.obs.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# satellite: internally consistent registry snapshots
# ---------------------------------------------------------------------------


def test_registry_instruments_share_one_lock():
    registry = MetricsRegistry()
    solves = registry.counter("solver.steady.solves")
    factorizations = registry.counter("solver.steady.factorizations")
    assert solves._lock is registry._lock
    assert factorizations._lock is registry._lock


def test_registry_snapshot_consistent_under_concurrent_increments():
    registry = MetricsRegistry()
    a = registry.counter("solver.steady.solves")
    b = registry.counter("solver.steady.factorizations")
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            a.inc()
            b.inc()

    def reader():
        while not stop.is_set():
            snap = registry.snapshot()["counters"]
            va = snap.get("solver.steady.solves", 0.0)
            vb = snap.get("solver.steady.factorizations", 0.0)
            # a is always incremented first, so a consistent view can
            # never show b ahead of a
            if vb > va:
                torn.append((va, vb))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert torn == []
