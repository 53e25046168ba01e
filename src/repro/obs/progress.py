"""Campaign progress model fed by the campaign's lifecycle events.

:class:`CampaignProgress` is a pure fold over :mod:`repro.obs.events`
events — per-job state machine, throughput, cache-hit rate, ETA — with
no I/O of its own, so it is equally usable as the ``--live`` renderer's
model, by ``repro obs tail`` replaying a JSONL sidecar, and in tests
without a TTY.  :class:`LiveRenderer` is the thin terminal half: feed
it the executor's events and it repaints a one-line status on a
throttled cadence (carriage-return rewrite on a TTY, plain lines
otherwise).

A job is "running" from the moment the executor dispatches it until
its outcome lands; the parent emits both events, so queued pool jobs
count as running too.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO, Any, Dict, List, Optional

from .events import Event

#: Job states, in lifecycle order.
JOB_STATES = ("pending", "running", "finished", "failed", "cached")

#: Completion states — jobs that will not run again.
_DONE_STATES = frozenset({"finished", "failed", "cached"})


class JobProgress:
    """One job's live state as seen through its lifecycle events."""

    __slots__ = ("tag", "kind", "state", "started_wall", "finished_wall",
                 "elapsed_s", "status", "cached")

    def __init__(self, tag: str, kind: str = "") -> None:
        self.tag = tag
        self.kind = kind
        self.state = "pending"
        self.started_wall: Optional[float] = None
        self.finished_wall: Optional[float] = None
        self.elapsed_s = 0.0
        self.status = ""
        self.cached = False

    @property
    def done(self) -> bool:
        return self.state in _DONE_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tag": self.tag, "kind": self.kind, "state": self.state,
            "elapsed_s": self.elapsed_s, "status": self.status,
        }


class CampaignProgress:
    """Fold of campaign lifecycle events into an aggregate progress view.

    Feed :meth:`observe` every event (the executor's ``on_event``
    callback, or a replayed sidecar file); read the derived aggregates
    at any time.  Thread-safe, so a renderer on another thread may
    read while events fold.  Each ``campaign_started`` begins a fresh
    fold: a sidecar appended across runs shows the latest run only.
    """

    #: the job table and its insertion order are written by
    #: :meth:`observe` while renderers may read them
    _jobs: Dict[str, JobProgress]  # written only under _lock
    _order: List[str]  # written only under _lock

    def __init__(self, total: int = 0) -> None:
        self.total = total
        self.campaign = ""
        self.started_wall: Optional[float] = None
        self.finished_wall: Optional[float] = None
        self._jobs: Dict[str, JobProgress] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()

    # -- folding ------------------------------------------------------------

    def _job(self, tag: str, kind: str = "") -> JobProgress:
        job = self._jobs.get(tag)
        if job is None:
            job = JobProgress(tag, kind)
            self._jobs[tag] = job
            self._order.append(tag)
        elif kind and not job.kind:
            job.kind = kind
        return job

    def observe(self, event: Event) -> None:
        """Fold one event (unknown types are ignored)."""
        etype = event.get("type")
        tag = str(event.get("tag", ""))
        with self._lock:
            if etype == "campaign_started":
                self._jobs.clear()
                self._order.clear()
                self.campaign = str(event.get("campaign", ""))
                self.total = int(event.get("total", 0))
                self.started_wall = float(event.get("t_wall", time.time()))
                self.finished_wall = None
                for pending in event.get("tags", []) or []:
                    self._job(str(pending))
            elif etype == "job_started":
                job = self._job(tag, str(event.get("kind", "")))
                job.state = "running"
                job.started_wall = float(event.get("t_wall", time.time()))
            elif etype == "job_cached":
                job = self._job(tag)
                job.state = "cached"
                job.cached = True
                job.status = "cached"
                job.finished_wall = float(event.get("t_wall", time.time()))
            elif etype == "job_finished":
                job = self._job(tag)
                status = str(event.get("status", "ok"))
                job.status = status
                job.state = "finished" if status == "ok" else "failed"
                job.elapsed_s = float(event.get("elapsed_s", job.elapsed_s))
                job.finished_wall = float(event.get("t_wall", time.time()))
            elif etype == "campaign_finished":
                self.finished_wall = float(event.get("t_wall", time.time()))

    # -- derived aggregates --------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Job counts by state (every state present, possibly zero)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def jobs(self) -> List[JobProgress]:
        """Jobs in first-seen order."""
        with self._lock:
            return [self._jobs[tag] for tag in self._order]

    @property
    def done(self) -> int:
        counts = self.counts()
        return counts["finished"] + counts["failed"] + counts["cached"]

    @property
    def running(self) -> int:
        return self.counts()["running"]

    @property
    def finished(self) -> bool:
        return self.finished_wall is not None

    def cache_hit_rate(self) -> float:
        """Fraction of completed jobs served from the result cache."""
        counts = self.counts()
        done = counts["finished"] + counts["failed"] + counts["cached"]
        return counts["cached"] / done if done else 0.0

    def elapsed_s(self, now: Optional[float] = None) -> float:
        if self.started_wall is None:
            return 0.0
        end = self.finished_wall
        if end is None:
            end = now if now is not None else time.time()
        return max(0.0, end - self.started_wall)

    def throughput(self, now: Optional[float] = None) -> float:
        """Completed jobs per second of campaign wall time."""
        elapsed = self.elapsed_s(now)
        return self.done / elapsed if elapsed > 0 else 0.0

    def known_total(self) -> int:
        """Declared job total, or the number of jobs seen so far."""
        with self._lock:
            return self.total or len(self._jobs)

    def eta_s(self, now: Optional[float] = None) -> Optional[float]:
        """Estimated seconds to completion, ``None`` before any signal."""
        remaining = max(0, self.known_total() - self.done)
        if remaining == 0:
            return 0.0
        rate = self.throughput(now)
        if rate <= 0:
            return None
        return remaining / rate

    # -- rendering ----------------------------------------------------------

    def render_line(self, now: Optional[float] = None) -> str:
        """One-line status: counts, throughput, cache rate, ETA."""
        counts = self.counts()
        total = self.known_total()
        eta = self.eta_s(now)
        eta_text = f"{eta:.0f}s" if eta is not None else "?"
        name = self.campaign or "campaign"
        return (
            f"{name}: {self.done}/{total} done"
            f" ({counts['cached']} cached, {counts['failed']} failed)"
            f" | {counts['running']} running"
            f" | {self.throughput(now):.2f} jobs/s"
            f" | cache {self.cache_hit_rate():.0%}"
            f" | eta {eta_text}"
        )

    def render_table(self, now: Optional[float] = None) -> str:
        """Multi-line view: the status line plus one row per job."""
        lines = [self.render_line(now)]
        for job in self.jobs():
            elapsed = f" {job.elapsed_s:.2f}s" if job.elapsed_s else ""
            lines.append(f"  {job.state:<8} {job.tag}{elapsed}")
        return "\n".join(lines)


class LiveRenderer:
    """Terminal renderer for ``repro campaign run --live``.

    Pass :meth:`on_event` as the executor's ``on_event`` callback; it
    folds into the given :class:`CampaignProgress` and repaints at most
    every ``min_interval_s`` (always on job completions).  The final
    counts are painted once: by ``campaign_finished``, or by
    :meth:`close` when no paint has shown the finished campaign.  On a
    TTY the line rewrites in place; on a pipe it prints one line per
    repaint so logs stay readable.
    """

    #: paint bookkeeping, shared by :meth:`on_event` and :meth:`close`
    #: callers on any thread
    _last_paint: float  # written only under _lock
    _painted_finished: bool  # written only under _lock

    def __init__(
        self,
        progress: CampaignProgress,
        out: Optional[IO[str]] = None,
        min_interval_s: float = 0.2,
    ) -> None:
        self.progress = progress
        self._out = out if out is not None else sys.stderr
        self._min_interval_s = float(min_interval_s)
        self._last_paint = 0.0
        self._painted_finished = False
        self._lock = threading.Lock()
        try:
            self._tty = bool(self._out.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    def on_event(self, event: Event) -> None:
        self.progress.observe(event)
        etype = event.get("type")
        if (etype != "campaign_finished"
                and self.progress.done >= self.progress.known_total()):
            return  # every job is done: campaign_finished paints the last line
        force = etype in ("job_finished", "job_cached", "campaign_finished")
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_paint < self._min_interval_s:
                return
            self._last_paint = now
        self.paint()

    def paint(self, final: bool = False) -> None:
        """Draw the status line; ``final`` ends it with a newline on a TTY."""
        finished = self.progress.finished
        line = self.progress.render_line()
        try:
            if self._tty:
                end = "\n" if final or finished else ""
                self._out.write("\r\x1b[2K" + line + end)
            else:
                self._out.write(line + "\n")
            self._out.flush()
        except (OSError, ValueError):
            pass
        with self._lock:
            self._painted_finished = finished

    def close(self) -> None:
        """Final repaint, unless the finished campaign is already shown."""
        with self._lock:
            if self._painted_finished:
                return
        self.paint(final=True)
