"""The campaign executor: cached, parallel, observable job execution.

Execution of one campaign proceeds in three steps:

1. **Cache probe** — each job's content hash is looked up in the
   result cache (when one is configured); hits short-circuit without
   ever reaching a worker.
2. **Fan-out** — misses run on a ``ProcessPoolExecutor`` with
   ``--jobs`` workers.  Failures retry with exponential backoff up to
   ``retries`` times; a per-job ``timeout`` (measured from the moment
   the engine starts waiting on that job) marks stragglers failed and
   abandons their worker.  If the pool itself cannot be created (no
   ``fork``/``spawn``, sandboxed ``/dev/shm``, ...), or ``jobs <= 1``,
   the engine degrades gracefully to serial in-process execution with
   identical results — only the timeout is then advisory (a running
   job cannot be interrupted in-process).
3. **Record** — fresh results are stored back to the cache and every
   job appends a manifest record; the run closes with a summary
   (hit rate, p50/p95 job latency, aggregated metrics).

Observability: progress is reported through the stdlib
``repro.campaign`` logger (wire a handler with
:func:`repro.obs.logging_setup`).  When tracing is enabled — or
``capture_obs=True`` is passed — each worker runs its job under a
span, snapshots the :mod:`repro.obs` metrics registry before and
after, and ships the span tree plus the metrics delta back through
:class:`JobOutcome`, so per-job solver behaviour (factorizations,
steps, cache hits) survives the process-pool boundary and lands in
the JSONL manifest.

Live progress: ``on_event`` receives the campaign's lifecycle events
(:mod:`repro.obs.events`), called synchronously in this process as the
engine dispatches and collects jobs.  Workers publish nothing, and the
callback never feeds a result, record or summary metric.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Tuple,
)

from .. import obs
from ..errors import CampaignError
from .cache import JobResult, ResultCache
from .manifest import CampaignSummary, ManifestWriter, summarize
from .runners import get_runner
from .spec import CampaignSpec, JobSpec

logger = logging.getLogger("repro.campaign")

_ATTEMPTS = obs.metrics().counter("campaign.jobs.attempts")
_RETRIES = obs.metrics().counter("campaign.jobs.retries")
_TIMEOUTS = obs.metrics().counter("campaign.jobs.timeouts")
_FAILURES = obs.metrics().counter("campaign.jobs.failures")
_BATCHED = obs.metrics().counter("campaign.jobs.batched")
_JOB_SECONDS = obs.metrics().histogram("campaign.job.wall_seconds")

#: What a worker returns: result, wall seconds, worker pid, and the
#: observability capture (``None`` unless capture was requested).
WorkerReturn = Tuple[JobResult, float, int, Optional[Dict[str, Any]]]


def _backend_scope(spec: JobSpec) -> ContextManager[Any]:
    """The solver-backend selection scope for one job.

    Jobs that pin a backend run inside
    :func:`repro.solver.backends.backend_override`, so every solver
    call the runner makes — without threading a parameter through the
    runner signature — resolves to the spec's engine.  Imported lazily:
    spec handling must stay importable without scipy.
    """
    if spec.backend is None:
        return contextlib.nullcontext()
    from ..solver.backends import backend_override

    return backend_override(spec.backend)


def execute_job(spec: JobSpec, capture: bool = False) -> WorkerReturn:
    """Run one job in the current process (the worker entry point).

    Module-level so it pickles to pool workers.  With ``capture`` the
    job runs under a forced-on tracer span and the return carries an
    observability record: the serialized span tree, a flat metrics
    delta for manifests, and the structured delta snapshot for merging
    into the parent registry.
    """
    start = time.perf_counter()
    registry = obs.metrics()
    if not capture:
        with _backend_scope(spec):
            result = get_runner(spec.kind)(spec)
        return result, time.perf_counter() - start, os.getpid(), None

    tracer = obs.tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True
    before = registry.snapshot()
    try:
        with obs.Span("campaign.job", {"tag": spec.tag, "kind": spec.kind},
                      tracer=tracer) as job_span:
            with _backend_scope(spec):
                result = get_runner(spec.kind)(spec)
    finally:
        tracer.enabled = was_enabled
    delta = obs.snapshot_diff(registry.snapshot(), before)
    capture_record: Dict[str, Any] = {
        "pid": os.getpid(),
        "span": job_span.to_dict(),
        "metrics": obs.flatten_snapshot(delta),
        "snapshot": delta,
    }
    return result, time.perf_counter() - start, os.getpid(), capture_record


@dataclass
class JobOutcome:
    """How one job of a campaign run ended."""

    spec: JobSpec
    status: str  # "ok" | "cached" | "failed" | "timeout"
    result: Optional[JobResult] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: str = ""
    retries: int = 0
    #: Observability capture from the (possibly remote) worker:
    #: ``{"pid", "span", "metrics", "snapshot"}`` or ``None``.
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
            "retries": self.retries,
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


def _backoff_sleep(backoff: float, attempt: int) -> None:
    """Exponential-backoff delay between submit retries.

    Deliberately blocking: retry pacing is its whole purpose.
    """
    if backoff > 0:
        time.sleep(backoff * (2 ** attempt))


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

    Built from the parent's outcome, so failures, timeouts and cache
    hits all report uniformly.
    """
    if outcome.status == "cached":
        _emit(on_event, "job_cached", tag=outcome.spec.tag,
              kind=outcome.spec.kind, elapsed_s=outcome.wall_s)
        return
    metrics = outcome.obs.get("metrics", {}) if outcome.obs else {}
    _emit(
        on_event, "job_finished", tag=outcome.spec.tag,
        kind=outcome.spec.kind, status=outcome.status, elapsed_s=outcome.wall_s,
        worker=outcome.worker, retries=outcome.retries,
        error=outcome.error, metrics=metrics,
    )


def _run_serial(
    pending: List[JobSpec],
    retries: int,
    backoff: float,
    progress: Optional[Callable[[str], None]],
    capture: bool,
    on_event: EventSink = None,
) -> Dict[str, JobOutcome]:
    outcomes: Dict[str, JobOutcome] = {}
    for spec in pending:
        _emit(on_event, "job_started", tag=spec.tag, kind=spec.kind)
        attempt = 0
        while True:
            _ATTEMPTS.inc()
            try:
                result, wall, pid, captured = execute_job(spec, capture)
                _JOB_SECONDS.observe(wall)
                outcomes[spec.tag] = JobOutcome(
                    spec=spec, status="ok", result=result, wall_s=wall,
                    worker=str(pid), retries=attempt, obs=captured,
                )
                break
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                if attempt < retries:
                    logger.debug("job %s attempt %d failed (%s); retrying",
                                 spec.tag, attempt + 1, exc)
                    _RETRIES.inc()
                    _backoff_sleep(backoff, attempt)
                    attempt += 1
                    continue
                _FAILURES.inc()
                outcomes[spec.tag] = JobOutcome(
                    spec=spec, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    worker=str(os.getpid()), retries=attempt,
                )
                break
        _report(outcomes[spec.tag], progress)
        _emit_outcome(on_event, outcomes[spec.tag])
    return outcomes


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
    solver counters into nothing.  Apportioned records carry
    ``"snapshot": None`` and this process's pid — the deltas are
    already counted in the parent registry, so the cross-process merge
    loop must not fold them again.
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
            # one scope for the whole group: batch_groups keys on the
            # backend, so every member shares the same selection
            with obs.span("campaign.batch", kind=kind, n_jobs=len(group)):
                with _backend_scope(group[0]):
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
                    "snapshot": None,
                    "apportioned": len(group),
                }
            outcomes[spec.tag] = JobOutcome(
                spec=spec, status="ok", result=results[spec.tag],
                wall_s=wall, worker="batched", obs=captured,
            )
            _report(outcomes[spec.tag], progress)
            _emit_outcome(on_event, outcomes[spec.tag])
    return outcomes, rest


def _run_parallel(
    pending: List[JobSpec],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    progress: Optional[Callable[[str], None]],
    capture: bool,
    on_event: EventSink = None,
) -> Dict[str, JobOutcome]:
    from concurrent.futures import ProcessPoolExecutor

    outcomes: Dict[str, JobOutcome] = {}
    pool = ProcessPoolExecutor(max_workers=jobs)
    abandoned = False
    try:
        futures = []
        for spec in pending:
            futures.append((pool.submit(execute_job, spec, capture), spec))
            _emit(on_event, "job_started", tag=spec.tag, kind=spec.kind)
        _ATTEMPTS.inc(len(futures))
        for fut, spec in futures:
            attempt = 0
            while True:
                try:
                    result, wall, pid, captured = fut.result(timeout=timeout)
                    _JOB_SECONDS.observe(wall)
                    outcomes[spec.tag] = JobOutcome(
                        spec=spec, status="ok", result=result, wall_s=wall,
                        worker=str(pid), retries=attempt, obs=captured,
                    )
                    break
                except FutureTimeoutError:
                    fut.cancel()
                    abandoned = True
                    _TIMEOUTS.inc()
                    outcomes[spec.tag] = JobOutcome(
                        spec=spec, status="timeout",
                        error=f"exceeded {timeout:g} s budget",
                        wall_s=float(timeout), retries=attempt,
                    )
                    break
                except Exception as exc:  # noqa: BLE001 - job isolation boundary
                    if attempt < retries:
                        logger.debug(
                            "job %s attempt %d failed (%s); retrying",
                            spec.tag, attempt + 1, exc,
                        )
                        _RETRIES.inc()
                        _backoff_sleep(backoff, attempt)
                        attempt += 1
                        _ATTEMPTS.inc()
                        fut = pool.submit(execute_job, spec, capture)
                        continue
                    _FAILURES.inc()
                    outcomes[spec.tag] = JobOutcome(
                        spec=spec, status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                        retries=attempt,
                    )
                    break
            _report(outcomes[spec.tag], progress)
            _emit_outcome(on_event, outcomes[spec.tag])
    finally:
        # A timed-out worker cannot be interrupted; don't block the
        # campaign on it — abandon the pool and let it drain on exit.
        pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return outcomes


def _progress_line(outcome: JobOutcome) -> str:
    status = outcome.status.upper()
    detail = f"{outcome.wall_s:.3f} s" if outcome.ok else (outcome.error or "")
    retry_note = f" (retries={outcome.retries})" if outcome.retries else ""
    return f"[{status:>7}] {outcome.spec.tag}: {detail}{retry_note}"


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
    retries = sum(o.retries for o in run.outcomes)
    if retries:
        totals["campaign.jobs.retries"] = float(retries)
    timeouts = sum(1 for o in run.outcomes if o.status == "timeout")
    if timeouts:
        totals["campaign.jobs.timeouts"] = float(timeouts)
    return {name: round(value, 9) for name, value in sorted(totals.items())}


def run_campaign(
    campaign: CampaignSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_path: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
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
        Worker processes; ``1`` runs serially in-process.
    cache:
        Content-addressed result store; ``None`` disables caching.
    manifest_path:
        Where to append the JSONL run manifest; ``None`` skips it.
    timeout:
        Per-job wall budget in seconds (pool mode only; advisory in
        serial mode).
    retries:
        How many times a *failing* job is re-attempted (timeouts are
        final: the straggler would just straggle again).
    backoff:
        Base of the exponential retry backoff, seconds.
    force:
        Recompute even on cache hits (refreshes the stored entries).
    progress:
        Optional extra per-job callback; progress always goes to the
        ``repro.campaign`` logger regardless.
    capture_obs:
        Capture per-job span trees and metric deltas across the pool.
        ``None`` (default) follows the global tracer's enabled flag.
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
        ``job_started`` when a job is handed to execution (before its
        first serial attempt, before its batch group runs, or at pool
        submission) and ``job_finished`` when its outcome lands;
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
        if pending:
            use_pool = jobs > 1 and len(pending) > 1
            if use_pool:
                try:
                    fresh.update(_run_parallel(
                        pending, jobs, timeout, retries, backoff, progress,
                        capture, on_event,
                    ))
                    run.parallel = True
                except Exception as exc:  # pool unavailable: degrade to serial
                    note = (f"process pool unavailable "
                            f"({type(exc).__name__}: {exc}); running serially")
                    logger.warning(note)
                    if progress:
                        progress(f"[  NOTE ] {note}")
                    use_pool = False
            if not use_pool:
                fresh.update(
                    _run_serial(pending, retries, backoff, progress, capture,
                                on_event)
                )

        # Fold worker-side metric deltas into this process's registry so
        # pool runs and serial runs leave identical global counts.
        parent_pid = os.getpid()
        for outcome in fresh.values():
            if (outcome.obs and outcome.obs.get("pid") != parent_pid
                    and outcome.obs.get("snapshot")):
                obs.metrics().merge(outcome.obs["snapshot"])

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
