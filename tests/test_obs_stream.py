"""Tests for result-store counter and registry consistency."""

import threading
import time

from repro.campaign import ResultCache
from repro.obs.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# satellite: cache counters survive concurrent read-modify-write
# ---------------------------------------------------------------------------


def test_cache_counters_concurrent_bumps_lose_nothing(tmp_path):
    """Two campaigns bumping one store must not interleave-and-lose.

    Each thread opens its own ResultCache (its own lockfile fd, like a
    separate process would); the flock around the read-modify-write
    makes the persisted total exact.
    """
    root = tmp_path / "store"
    ResultCache(root)  # create the store layout once
    n_threads, n_bumps = 8, 30
    barrier = threading.Barrier(n_threads)

    def hammer():
        cache = ResultCache(root)
        barrier.wait()
        for _ in range(n_bumps):
            cache._bump("hits")

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    persisted = ResultCache(root).persisted_counters()
    assert persisted["hits"] == n_threads * n_bumps


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
