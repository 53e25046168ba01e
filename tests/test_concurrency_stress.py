"""Runtime demonstrations of the race class the lock-discipline rule
(R12) guards against.

The torn-update harness first *shows* the corruption mode — a barrier
forces every thread into the read/write gap of an unguarded
read-modify-write, deterministically losing updates — then asserts the
guarded equivalents in :mod:`repro.obs` survive heavier schedules with
exact counts.  A cross-process case runs the publisher across a
``fork``- or ``spawn``-started child (selected by the
``REPRO_STRESS_START_METHOD`` env var, which CI sets to cover both).
"""

import multiprocessing
import os
import queue
import sys
import threading

import pytest

from repro import obs
from repro.obs.events import EventBuffer, EventPublisher
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import ResourceSampler

N_THREADS = 4
N_ITER = 200


def _run_threads(target, n=N_THREADS):
    threads = [
        threading.Thread(target=target, args=(k,)) for k in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TornCounter:
    """Deliberately unguarded read-modify-write: the R12 bug class."""

    def __init__(self):
        self.ticks = 0

    def bump_torn(self, barrier):
        value = self.ticks
        barrier.wait()  # every thread now holds the same stale value
        self.ticks = value + 1


class GuardedCounter:
    """The same counter with the mutation under its lock."""

    def __init__(self):
        self.total = 0
        self._lock = threading.Lock()

    def bump(self):
        with self._lock:
            self.total += 1


def test_unguarded_read_modify_write_loses_updates():
    """T threads synchronized inside the read/write gap all write the
    same stale value back: each round nets +1 instead of +T."""
    counter = TornCounter()
    rounds = 50
    barrier = threading.Barrier(N_THREADS)

    def storm(k):
        for _ in range(rounds):
            counter.bump_torn(barrier)

    _run_threads(storm)
    assert counter.ticks == rounds  # not N_THREADS * rounds: updates lost


def test_guarded_increments_are_exact_under_contention():
    counter = GuardedCounter()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force aggressive preemption
    try:
        def storm(k):
            for _ in range(N_ITER):
                counter.bump()

        _run_threads(storm)
    finally:
        sys.setswitchinterval(previous)
    assert counter.total == N_THREADS * N_ITER


def test_event_buffer_survives_subscriber_churn_during_appends():
    """The seeded conc_proj bug class, fixed: subscribe/unsubscribe
    churn while producers append (which fans out to a snapshot of the
    subscriber list) must neither raise nor corrupt the ring."""
    buf = EventBuffer(capacity=64)
    errors = []

    def churn(k):
        received = []
        try:
            for _ in range(N_ITER):
                buf.subscribe(received.append)
                buf.unsubscribe(received.append)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    def produce(k):
        try:
            for i in range(N_ITER):
                buf.append(obs.make_event("job_heartbeat", tag=f"{k}.{i}"))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [
        threading.Thread(target=churn, args=(0,)),
        threading.Thread(target=churn, args=(1,)),
        threading.Thread(target=produce, args=(0,)),
        threading.Thread(target=produce, args=(1,)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    appended = 2 * N_ITER
    assert buf.last_seq == appended
    assert len(buf) == 64  # ring holds exactly its capacity
    assert buf.evicted == appended - 64


def test_publisher_accounting_is_exact_under_thread_storm():
    """Every publish() either published or dropped — never both, never
    neither — even when the counter updates race the queue filling."""
    sink = queue.Queue(maxsize=16)
    publisher = EventPublisher(sink)
    barrier = threading.Barrier(N_THREADS)

    def storm(k):
        barrier.wait()
        for i in range(N_ITER):
            publisher.publish(
                obs.make_event("job_heartbeat", tag=f"{k}.{i}")
            )

    _run_threads(storm)
    calls = N_THREADS * N_ITER
    assert publisher.published + publisher.dropped == calls
    # nothing drains, so exactly the queue's capacity got through
    assert publisher.published == 16
    assert publisher.dropped == calls - 16
    assert sink.qsize() == 16


def test_sampler_ring_accounting_exact_under_concurrent_sampling():
    sampler = ResourceSampler(registry=MetricsRegistry(), capacity=32)
    rounds = 50

    def storm(k):
        for _ in range(rounds):
            sampler.sample_now()

    _run_threads(storm)
    taken = N_THREADS * rounds
    assert sampler.count == taken
    assert len(sampler.rows()) == 32
    assert sampler.evicted == taken - 32


def _publish_from_child(sink, n):
    publisher = EventPublisher(sink)
    for i in range(n):
        publisher.publish(obs.make_event("job_heartbeat", tag=str(i)))


def test_publisher_accounting_crosses_process_boundary():
    """Stream stats ride on the events themselves, so the parent sees
    exact child-side counts under fork and spawn alike."""
    method = os.environ.get("REPRO_STRESS_START_METHOD", "fork")
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    ctx = multiprocessing.get_context(method)
    sink = ctx.Queue()
    n = 32
    child = ctx.Process(target=_publish_from_child, args=(sink, n))
    child.start()
    events = [sink.get(timeout=30.0) for _ in range(n)]
    child.join(timeout=30.0)
    assert child.exitcode == 0
    assert [e["tag"] for e in events] == [str(i) for i in range(n)]
    stats = events[-1]["stream"]
    assert stats["published"] == n
    assert stats["dropped"] == 0
