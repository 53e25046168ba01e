"""Runtime demonstrations of the race class that the ``_lock`` of each
``repro.obs`` counter guards against.

The torn-update harness first *shows* the corruption mode — a barrier
forces every thread into the read/write gap of an unguarded
read-modify-write, deterministically losing updates — then asserts
that the guarded equivalent keeps an exact count under aggressive
preemption.
"""

import sys
import threading

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
    """Deliberately unguarded read-modify-write: the race a lock prevents."""

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
