"""The campaign executor: cached, parallel, observable job execution.

Execution of one campaign proceeds in three steps:

1. **Cache probe** — each job's content hash is looked up in the
   result cache (when one is configured); hits short-circuit without
   ever reaching a worker.
2. **Fan-out** — misses that share a model run as one in-process
   batch (:mod:`repro.campaign.batching`); the rest go through
   :func:`fan_out`, a ``fork`` pool of ``--jobs`` workers (serial
   in-process for one worker).  Jobs are deterministic, so nothing is
   retried or timed out: a job that raises is recorded ``failed``.
   When the pool cannot start or breaks, the jobs without a result
   run serially in this process, each once.
3. **Record** — fresh results are stored back to the cache and every
   job appends a manifest record; the run closes with a summary
   (hit rate, p50/p95 job latency).  The engine's counts live in
   :mod:`repro.obs` alone (``campaign.cache.*``, ``campaign.jobs.*``);
   a job record's ``worker`` says where it ran (a pid, ``"batched"``
   or ``"cache"``).

:func:`fan_out` is also the figure fan-out of ``repro reproduce``
(:func:`repro.experiments.report.run_all_experiments`).

Observability: progress is reported through the stdlib
``repro.campaign`` logger (wire a handler with
:func:`repro.obs.logging_setup`).  A pool worker always returns the
:mod:`repro.obs` metrics delta of its call
(:func:`repro.obs.measured_call`) and the parent merges it, so pool
and serial runs leave the same global counts.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .. import obs
from ..errors import CampaignError, ConfigurationError
from .cache import JobResult, ResultCache
from .manifest import CampaignSummary, ManifestWriter, summarize
from .runners import get_runner
from .spec import CampaignSpec, JobSpec

if TYPE_CHECKING:
    from concurrent.futures import Future

logger = logging.getLogger("repro.campaign")

_ATTEMPTS = obs.metrics().counter("campaign.jobs.attempts")
_FAILURES = obs.metrics().counter("campaign.jobs.failures")
_BATCHED = obs.metrics().counter("campaign.jobs.batched")

T = TypeVar("T")


def fan_out(
    calls: Sequence[Callable[[], T]],
    jobs: int,
    started: Optional[Callable[[int], None]] = None,
    note: Optional[Callable[[str], None]] = None,
) -> Iterator[T]:
    """Run ``calls`` on a fork pool; yield their results in call order.

    ``min(jobs, len(calls))`` workers run the calls when that is above
    one; otherwise they run serially in this process.  Each result is
    yielded as soon as it and every earlier one have landed.
    ``started(index)`` fires when call ``index`` is dispatched: at pool
    submission, or just before it runs in this process.  A call's
    exception propagates.  Nothing is retried or timed out: the calls
    are deterministic, so a second run would fail the same way.

    Each pool call is ``obs.measured_call(call)``; the parent merges the
    returned metrics delta, so the :mod:`repro.obs` counts equal a
    serial run's.  ``fork``, whatever the interpreter's default:
    forked workers inherit the imported package and the parent's warm
    caches (the gcc trace), where a spawned worker would import and
    simulate again.  The pool forks every worker in its first
    ``submit``, before it starts its own manager thread, so the
    caller's threads are the only ones at fork time.

    When the pool cannot start (``OSError``; ``ValueError`` without
    ``fork``) or breaks (``BrokenProcessPool``), ``note`` gets one
    ``[  NOTE ]`` line and the calls without a result run serially in
    this process, each once.
    """
    # imported on first use, so importing repro stays free of them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(calls))
    pool: Optional[ProcessPoolExecutor] = None
    futures: List[Future] = []
    try:
        if workers > 1:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"))
                futures = [pool.submit(obs.measured_call, call)
                           for call in calls]
            except (OSError, ValueError, BrokenProcessPool) as exc:
                futures = []
                _note_serial(note, exc)
        for index in range(len(futures)):
            if started is not None:
                started(index)
        broken = False
        for index, call in enumerate(calls):
            if futures:
                try:
                    result, delta = futures[index].result()
                except BrokenProcessPool as exc:
                    if not broken:
                        _note_serial(note, exc)
                        broken = True
                else:
                    obs.metrics().merge(delta)
                    yield result
                    continue
            if started is not None:
                started(index)
            yield call()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _note_serial(note: Optional[Callable[[str], None]],
                 exc: BaseException) -> None:
    message = (f"process pool unavailable ({type(exc).__name__}: {exc}); "
               "running the rest serially")
    logger.warning(message)
    if note is not None:
        note(f"[  NOTE ] {message}")


@dataclass
class JobOutcome:
    """How one job of a campaign run ended."""

    spec: JobSpec
    status: str  # "ok" | "cached" | "failed"
    result: Optional[JobResult] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: str = ""

    @property
    def ok(self) -> bool:
        """Whether a result is available (fresh or cached)."""
        return self.status in ("ok", "cached")

    def record(self, campaign: str) -> Dict[str, Any]:
        """The manifest record for this outcome."""
        return {
            "campaign": campaign,
            "tag": self.spec.tag,
            "kind": self.spec.kind,
            "key": self.spec.content_hash,
            "status": self.status,
            "cached": self.status == "cached",
            "wall_s": round(self.wall_s, 6),
            "worker": self.worker,
            "error": self.error,
        }


@dataclass
class CampaignRun:
    """The full result of one campaign execution."""

    campaign: CampaignSpec
    outcomes: List[JobOutcome] = field(default_factory=list)
    summary: Optional[CampaignSummary] = None
    manifest_path: Optional[str] = None
    #: Whether any job ran in a pool worker rather than this process.
    parallel: bool = False

    @property
    def ok(self) -> bool:
        """Whether every job produced a result."""
        return all(outcome.ok for outcome in self.outcomes)

    def outcome_for(self, tag: str) -> JobOutcome:
        """The outcome of the job tagged ``tag``."""
        for outcome in self.outcomes:
            if outcome.spec.tag == tag:
                return outcome
        raise CampaignError(
            f"campaign {self.campaign.name!r} has no job tagged {tag!r}"
        )

    def result_for(self, tag: str) -> JobResult:
        """The result of the job tagged ``tag``; raises if it failed."""
        outcome = self.outcome_for(tag)
        if outcome.result is None:
            raise CampaignError(
                f"job {tag!r} of campaign {self.campaign.name!r} "
                f"{outcome.status}: {outcome.error}"
            )
        return outcome.result


def _report(
    outcome: JobOutcome, progress: Optional[Callable[[str], None]]
) -> None:
    line = _progress_line(outcome)
    logger.info(line)
    if progress is not None:
        progress(line)


def execute_job(spec: JobSpec) -> JobOutcome:
    """Run one job in the current process (the worker entry point).

    Module-level so it pickles to pool workers.  A job's exception is
    caught here and becomes its ``failed`` outcome, with the time it
    ran, so one bad job never stops the campaign.
    """
    _ATTEMPTS.inc()
    start = time.perf_counter()
    try:
        result = get_runner(spec.kind)(spec)
    except Exception as exc:  # noqa: BLE001 - job isolation boundary
        _FAILURES.inc()
        return JobOutcome(spec=spec, status="failed",
                          error=f"{type(exc).__name__}: {exc}",
                          wall_s=time.perf_counter() - start,
                          worker=str(os.getpid()))
    return JobOutcome(spec=spec, status="ok", result=result,
                      wall_s=time.perf_counter() - start,
                      worker=str(os.getpid()))


def _run_batched(
    pending: List[JobSpec],
    progress: Optional[Callable[[str], None]],
) -> Tuple[Dict[str, JobOutcome], List[JobSpec]]:
    """Execute same-model job groups in-process through batch runners.

    Returns the batched outcomes plus the jobs still pending: jobs with
    no batchable group, and whole groups whose batch runner raised (a
    mixed trace grid, a model quirk, ...) — those silently fall back to
    normal per-job execution, so batching can only change cost, never
    the campaign's results.  Batched outcomes report ``worker``
    ``"batched"`` and the group's amortized per-job wall time.
    """
    from .batching import batch_groups, get_batch_runner

    groups, rest = batch_groups(pending)
    outcomes: Dict[str, JobOutcome] = {}
    for group in groups:
        kind = group[0].kind
        start = time.perf_counter()
        _ATTEMPTS.inc(len(group))
        try:
            results = get_batch_runner(kind)(group)
            missing = [s.tag for s in group if s.tag not in results]
            if missing:
                raise CampaignError(
                    f"batch runner for {kind!r} returned no result for "
                    f"{missing}"
                )
        except Exception as exc:  # noqa: BLE001 - fall back, don't fail
            logger.warning(
                "batch of %d %r jobs not batchable (%s: %s); "
                "falling back to per-job execution",
                len(group), kind, type(exc).__name__, exc,
            )
            rest.extend(group)
            continue
        wall = (time.perf_counter() - start) / len(group)
        _BATCHED.inc(len(group))
        for spec in group:
            outcomes[spec.tag] = JobOutcome(
                spec=spec, status="ok", result=results[spec.tag],
                wall_s=wall, worker="batched",
            )
            _report(outcomes[spec.tag], progress)
    return outcomes, rest


def _progress_line(outcome: JobOutcome) -> str:
    status = outcome.status.upper()
    detail = f"{outcome.wall_s:.3f} s" if outcome.ok else (outcome.error or "")
    return f"[{status:>7}] {outcome.spec.tag}: {detail}"


def run_campaign(
    campaign: CampaignSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_path: Optional[str] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    batch: bool = True,
) -> CampaignRun:
    """Execute a campaign; see the module docstring for semantics.

    Parameters
    ----------
    campaign:
        The declarative campaign to run.
    jobs:
        Worker processes of :func:`fan_out`; ``1`` runs serially
        in-process, below ``1`` raises ``ConfigurationError``.
    cache:
        Content-addressed result store; ``None`` disables caching.
    manifest_path:
        Where to append the JSONL run manifest; ``None`` skips it.
    force:
        Recompute even on cache hits (refreshes the stored entries).
    progress:
        Optional extra per-job callback; progress always goes to the
        ``repro.campaign`` logger regardless.
    batch:
        Recognize pending jobs that share ``(kind, model)`` and run
        each such group as one in-process lockstep solve (see
        :mod:`repro.campaign.batching`); results are bitwise identical
        to per-job execution, groups that cannot batch fall back
        automatically.
    """
    start = time.perf_counter()
    run = CampaignRun(campaign=campaign, manifest_path=manifest_path)
    logger.debug("campaign %s: %d jobs, %d worker(s)",
                 campaign.name, len(campaign.jobs), jobs)

    pending: List[JobSpec] = []
    cached: Dict[str, JobOutcome] = {}
    for spec in campaign.jobs:
        if cache is not None and not force:
            probe_start = time.perf_counter()
            hit = cache.get(spec.content_hash)
            if hit is not None:
                cached[spec.tag] = JobOutcome(
                    spec=spec, status="cached", result=hit,
                    wall_s=time.perf_counter() - probe_start,
                    worker="cache",
                )
                _report(cached[spec.tag], progress)
                continue
        pending.append(spec)

    fresh: Dict[str, JobOutcome] = {}
    if pending and batch:
        fresh, pending = _run_batched(pending, progress)

    parent = str(os.getpid())
    calls = [functools.partial(execute_job, spec) for spec in pending]
    for outcome in fan_out(calls, jobs, note=progress):
        fresh[outcome.spec.tag] = outcome
        run.parallel = run.parallel or outcome.worker != parent
        _report(outcome, progress)

    if cache is not None:
        for outcome in fresh.values():
            if outcome.status == "ok" and outcome.result is not None:
                cache.put(outcome.spec.content_hash, outcome.result)

    run.outcomes = [
        cached.get(spec.tag) or fresh[spec.tag] for spec in campaign.jobs
    ]
    records = [outcome.record(campaign.name) for outcome in run.outcomes]
    run.summary = summarize(campaign.name, records,
                            time.perf_counter() - start)
    if manifest_path:
        writer = ManifestWriter(manifest_path)
        for record in records:
            writer.job(record)
        writer.summary(run.summary)
        logger.debug("manifest appended: %s", manifest_path)
    return run
