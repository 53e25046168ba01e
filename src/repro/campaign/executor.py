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
   (hit rate, p50/p95 job latency, aggregated metrics).

:func:`fan_out` is also the figure fan-out of ``repro reproduce``
(:func:`repro.experiments.report.run_all_experiments`).

Observability: progress is reported through the stdlib
``repro.campaign`` logger (wire a handler with
:func:`repro.obs.logging_setup`).  A pool worker always returns the
:mod:`repro.obs` metrics delta of its call
(:func:`repro.obs.measured_call`) and the parent merges it, so pool
and serial runs leave the same global counts.  When tracing is
enabled — or ``capture_obs=True`` is passed — each job also runs
under a span and ships the span tree plus a flat metrics delta back
through :class:`JobOutcome`, so per-job solver behaviour
(factorizations, steps, cache hits) lands in the JSONL manifest.

Live progress: ``on_event`` receives the campaign's lifecycle events
(:mod:`repro.obs.events`), called synchronously in this process as the
engine dispatches and collects jobs.  Workers publish nothing, and the
callback never feeds a result, record or summary metric.
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
_JOB_SECONDS = obs.metrics().histogram("campaign.job.wall_seconds")

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
    #: Observability capture from the (possibly remote) worker:
    #: ``{"pid", "span", "metrics"}`` or ``None``.
    obs: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether a result is available (fresh or cached)."""
        return self.status in ("ok", "cached")

    def obs_record(self) -> Optional[Dict[str, Any]]:
        """The condensed observability record for the manifest.

        Per-span-name count/total aggregates plus the flat metrics
        delta — small enough for one JSONL line, rich enough to show
        where a job's time went without loading a trace file.
        """
        if not self.obs:
            return None
        record: Dict[str, Any] = {
            "worker_pid": self.obs.get("pid"),
            "spans": (obs.span_summary([self.obs["span"]])
                      if self.obs.get("span") else []),
            "metrics": self.obs.get("metrics", {}),
        }
        # Batched jobs carry an even 1/K share of the group's delta
        # (see _run_batched); record K so readers know it's apportioned.
        if self.obs.get("apportioned"):
            record["apportioned"] = self.obs["apportioned"]
        return record

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
            "obs": self.obs_record(),
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

    def span_roots(self) -> List[Dict[str, Any]]:
        """Span trees captured in *other* processes during this run.

        Spans recorded in this process are already on the global
        tracer; these are the worker-side trees to export alongside
        them (each shows up as its own pid track in Chrome/Perfetto).
        """
        parent_pid = os.getpid()
        roots: List[Dict[str, Any]] = []
        for outcome in self.outcomes:
            if outcome.obs and outcome.obs.get("pid") != parent_pid:
                roots.append(outcome.obs["span"])
        return roots


def _report(
    outcome: JobOutcome, progress: Optional[Callable[[str], None]]
) -> None:
    line = _progress_line(outcome)
    logger.info(line)
    if progress is not None:
        progress(line)


EventSink = Optional[Callable[[obs.Event], None]]


def _emit(on_event: EventSink, type: str, tag: str = "",
          **payload: Any) -> None:
    """Hand one lifecycle event to ``on_event`` (no-op without one)."""
    if on_event is not None:
        on_event(obs.make_event(type, tag=tag, **payload))


def _emit_outcome(on_event: EventSink, outcome: JobOutcome) -> None:
    """Emit the completion event for one outcome.

    Built from the parent's outcome, so failures and cache hits report
    uniformly.
    """
    if outcome.status == "cached":
        _emit(on_event, "job_cached", tag=outcome.spec.tag,
              kind=outcome.spec.kind, elapsed_s=outcome.wall_s)
        return
    metrics = outcome.obs.get("metrics", {}) if outcome.obs else {}
    _emit(
        on_event, "job_finished", tag=outcome.spec.tag,
        kind=outcome.spec.kind, status=outcome.status, elapsed_s=outcome.wall_s,
        worker=outcome.worker, error=outcome.error, metrics=metrics,
    )


def execute_job(spec: JobSpec, capture: bool = False) -> JobOutcome:
    """Run one job in the current process (the worker entry point).

    Module-level so it pickles to pool workers.  A job's exception is
    caught here and becomes its ``failed`` outcome, so one bad job
    never stops the campaign.  With ``capture`` the job runs under a
    forced-on tracer span and the outcome carries an observability
    record: the serialized span tree and a flat metrics delta for
    manifests.
    """
    _ATTEMPTS.inc()
    start = time.perf_counter()
    captured: Optional[Dict[str, Any]] = None
    try:
        if not capture:
            result = get_runner(spec.kind)(spec)
        else:
            tracer = obs.tracer()
            was_enabled = tracer.enabled
            tracer.enabled = True
            try:
                with obs.Span("campaign.job",
                              {"tag": spec.tag, "kind": spec.kind},
                              tracer=tracer) as job_span:
                    result, delta = obs.measured_call(get_runner(spec.kind),
                                                      spec)
            finally:
                tracer.enabled = was_enabled
            captured = {
                "pid": os.getpid(),
                "span": job_span.to_dict(),
                "metrics": obs.flatten_snapshot(delta),
            }
    except Exception as exc:  # noqa: BLE001 - job isolation boundary
        _FAILURES.inc()
        return JobOutcome(spec=spec, status="failed",
                          error=f"{type(exc).__name__}: {exc}",
                          worker=str(os.getpid()))
    wall = time.perf_counter() - start
    _JOB_SECONDS.observe(wall)
    return JobOutcome(spec=spec, status="ok", result=result, wall_s=wall,
                      worker=str(os.getpid()), obs=captured)


def _run_batched(
    pending: List[JobSpec],
    progress: Optional[Callable[[str], None]],
    capture: bool = False,
    on_event: EventSink = None,
) -> Tuple[Dict[str, JobOutcome], List[JobSpec]]:
    """Execute same-model job groups in-process through batch runners.

    Returns the batched outcomes plus the jobs still pending: jobs with
    no batchable group, and whole groups whose batch runner raised (a
    mixed trace grid, a model quirk, ...) — those silently fall back to
    normal per-job execution, so batching can only change cost, never
    the campaign's results.  Batched outcomes report ``worker``
    ``"batched"`` and the group's amortized per-job wall time.

    With ``capture``, the group's metric delta is measured around the
    lockstep run and apportioned evenly across its K member jobs
    (:func:`repro.obs.scale_snapshot`), so manifest ``"obs"`` records
    stay populated under batching instead of silently lumping K jobs'
    solver counters into nothing.  Apportioned records carry this
    process's pid; the counts they share out are already in its
    registry.
    """
    from .batching import batch_groups, get_batch_runner

    groups, rest = batch_groups(pending)
    outcomes: Dict[str, JobOutcome] = {}
    registry = obs.metrics()
    for group in groups:
        kind = group[0].kind
        start = time.perf_counter()
        _ATTEMPTS.inc(len(group))
        for spec in group:
            _emit(on_event, "job_started", tag=spec.tag, kind=spec.kind)
        before = registry.snapshot() if capture else None
        try:
            with obs.span("campaign.batch", kind=kind, n_jobs=len(group)):
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
        share: Optional[Dict[str, float]] = None
        if before is not None:
            delta = obs.snapshot_diff(registry.snapshot(), before)
            share = obs.flatten_snapshot(
                obs.scale_snapshot(delta, 1.0 / len(group))
            )
        for spec in group:
            _JOB_SECONDS.observe(wall)
            captured: Optional[Dict[str, Any]] = None
            if share is not None:
                captured = {
                    "pid": os.getpid(),
                    "span": None,
                    "metrics": dict(share),
                    "apportioned": len(group),
                }
            outcomes[spec.tag] = JobOutcome(
                spec=spec, status="ok", result=results[spec.tag],
                wall_s=wall, worker="batched", obs=captured,
            )
            _report(outcomes[spec.tag], progress)
            _emit_outcome(on_event, outcomes[spec.tag])
    return outcomes, rest


def _progress_line(outcome: JobOutcome) -> str:
    status = outcome.status.upper()
    detail = f"{outcome.wall_s:.3f} s" if outcome.ok else (outcome.error or "")
    return f"[{status:>7}] {outcome.spec.tag}: {detail}"


def _aggregate_metrics(
    run: CampaignRun, n_cached: int, n_fresh: int
) -> Dict[str, float]:
    """Fold per-job metric deltas plus engine counters for the summary."""
    totals: Dict[str, float] = {}
    for outcome in run.outcomes:
        if outcome.obs:
            for name, value in outcome.obs.get("metrics", {}).items():
                totals[name] = totals.get(name, 0.0) + float(value)
    totals["campaign.cache.hits"] = float(n_cached)
    totals["campaign.cache.misses"] = float(n_fresh)
    batched = sum(1 for o in run.outcomes if o.worker == "batched")
    if batched:
        totals["campaign.jobs.batched"] = float(batched)
    return {name: round(value, 9) for name, value in sorted(totals.items())}


def run_campaign(
    campaign: CampaignSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_path: Optional[str] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    capture_obs: Optional[bool] = None,
    batch: bool = True,
    on_event: EventSink = None,
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
    capture_obs:
        Record per-job span trees and metric deltas in the outcomes
        and manifest (the global counts merge either way).  ``None``
        (default) follows the global tracer's enabled flag.
    batch:
        Recognize pending jobs that share ``(kind, model)`` and run
        each such group as one in-process lockstep solve (see
        :mod:`repro.campaign.batching`); results are bitwise identical
        to per-job execution, groups that cannot batch fall back
        automatically.  Batched jobs' spans land on this process's
        tracer; their metric deltas are measured around the group run
        and apportioned evenly across member jobs when capturing.
    on_event:
        Optional callback for the lifecycle events of
        :mod:`repro.obs.events`, called synchronously in this process:
        ``campaign_started``; ``job_cached`` per cache hit;
        ``job_started`` when a job is handed to execution (before it
        runs serially, before its batch group runs, or at pool
        submission; again if a broken pool hands it back to this
        process) and ``job_finished`` when its outcome lands;
        ``campaign_finished``.  A job is therefore "running" from
        dispatch to outcome.  Events never change results or recorded
        metrics.
    """
    capture = obs.tracing_enabled() if capture_obs is None else capture_obs
    start = time.perf_counter()
    run = CampaignRun(campaign=campaign, manifest_path=manifest_path)
    logger.debug("campaign %s: %d jobs, %d worker(s), capture=%s",
                 campaign.name, len(campaign.jobs), jobs, capture)
    _emit(
        on_event, "campaign_started", campaign=campaign.name,
        total=len(campaign.jobs),
        tags=[spec.tag for spec in campaign.jobs],
    )

    with obs.span("campaign.run", campaign=campaign.name,
                  n_jobs=len(campaign.jobs), workers=jobs):
        pending: List[JobSpec] = []
        cached: Dict[str, JobOutcome] = {}
        with obs.span("campaign.cache.probe", campaign=campaign.name) as probe:
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
                        _emit_outcome(on_event, cached[spec.tag])
                        continue
                pending.append(spec)
            probe.annotate(hits=len(cached), misses=len(pending))

        fresh: Dict[str, JobOutcome] = {}
        if pending and batch:
            fresh, pending = _run_batched(pending, progress, capture,
                                          on_event)

        def started(index: int) -> None:
            _emit(on_event, "job_started", tag=pending[index].tag,
                  kind=pending[index].kind)

        parent = str(os.getpid())
        calls = [functools.partial(execute_job, spec, capture)
                 for spec in pending]
        for outcome in fan_out(calls, jobs, started, progress):
            fresh[outcome.spec.tag] = outcome
            run.parallel = run.parallel or outcome.worker != parent
            _report(outcome, progress)
            _emit_outcome(on_event, outcome)

        if cache is not None:
            with obs.span("campaign.cache.store", n=len(fresh)):
                for outcome in fresh.values():
                    if outcome.status == "ok" and outcome.result is not None:
                        cache.put(outcome.spec.content_hash, outcome.result)

        run.outcomes = [
            cached.get(spec.tag) or fresh[spec.tag] for spec in campaign.jobs
        ]
        records = [outcome.record(campaign.name) for outcome in run.outcomes]
        run.summary = summarize(
            campaign.name, records, time.perf_counter() - start,
            metrics=_aggregate_metrics(run, len(cached), len(pending)),
        )
        if manifest_path:
            writer = ManifestWriter(manifest_path)
            for record in records:
                writer.job(record)
            writer.summary(run.summary)
            logger.debug("manifest appended: %s", manifest_path)
    _emit(
        on_event, "campaign_finished", campaign=campaign.name,
        total=len(campaign.jobs),
        duration_s=time.perf_counter() - start,
        ok=run.ok,
    )
    return run
