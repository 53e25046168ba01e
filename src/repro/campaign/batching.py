"""Batched execution of same-model campaign job groups.

The process pool treats every job as an island: each worker rebuilds
the thermal model, refactorizes the system matrix, and steps its own
Python loop.  But most sweeps — a DTM policy comparison on one
package, a seed ensemble of trace runs — repeat the *same* model
under different inputs, which is exactly the shape
:mod:`repro.solver.batched` integrates in lockstep for the cost of
roughly one job.

This module is the campaign-side half of that bargain:

* :func:`batch_groups` partitions the pending jobs of a run into
  groups that share ``(kind, model)`` — :class:`~repro.campaign.spec.ModelSpec`
  is a frozen dataclass, so value equality is exactly "same network" —
  keeping only kinds with a registered *batch runner* and groups of
  two or more.  Everything else falls through to the normal pool.
* A **batch runner** (registered with :func:`batch_runner`) maps a
  same-model group to per-tag results in one in-process call.  It must
  produce results bitwise identical to the serial runner of the same
  kind; when a group cannot be batched after all (e.g. mismatched
  trace grids), it raises and the executor silently falls back to
  per-job execution — batching is a fast path, never a semantic
  change.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import CampaignError
from .cache import JobResult
from .spec import JobSpec

#: kind -> group runner mapping a same-model job list to per-tag results.
BatchRunner = Callable[[Sequence[JobSpec]], Dict[str, JobResult]]

BATCH_RUNNERS: Dict[str, BatchRunner] = {}


def batch_runner(kind: str) -> Callable[[BatchRunner], BatchRunner]:
    """Register a batched group runner under a job ``kind`` name."""

    def register(fn: BatchRunner) -> BatchRunner:
        BATCH_RUNNERS[kind] = fn
        return fn

    return register


def get_batch_runner(kind: str) -> BatchRunner:
    """Look up a batch runner; unknown kinds are campaign errors."""
    try:
        return BATCH_RUNNERS[kind]
    except KeyError:
        raise CampaignError(
            f"no batch runner for kind {kind!r}; "
            f"registered: {sorted(BATCH_RUNNERS)}"
        ) from None


def batch_groups(
    pending: Sequence[JobSpec],
) -> Tuple[List[List[JobSpec]], List[JobSpec]]:
    """Partition pending jobs into batchable groups and leftovers.

    A group is two or more jobs sharing ``(kind, model)`` where the
    kind has a registered batch runner and the model is declared (the
    network is what the batch shares).  Leftovers — singleton
    groups, unbatchable kinds, model-less jobs — keep their original
    order.
    """
    groups: Dict[Tuple[str, object], List[JobSpec]] = {}
    order: List[JobSpec] = []
    for spec in pending:
        if spec.kind in BATCH_RUNNERS and spec.model is not None:
            groups.setdefault((spec.kind, spec.model), []).append(spec)
        else:
            order.append(spec)
    batched: List[List[JobSpec]] = []
    for members in groups.values():
        if len(members) >= 2:
            batched.append(members)
        else:
            order.extend(members)
    return batched, order


@batch_runner("trace_transient")
def batch_trace_transient(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """All trace runs of one model as a single lockstep integration.

    Builds the model once, synthesizes each job's trace exactly as
    :func:`~repro.campaign.runners.run_trace_transient` does, and
    integrates the schedules through
    :func:`~repro.solver.batched.batched_simulate_schedules`.  Jobs
    whose traces land on different boundary grids (different
    ``duration``/``thermal_stride``) make the solver raise, which the
    executor answers by re-running the group per job.
    """
    from ..experiments.common import gcc_synthesized_trace
    from ..solver import batched_simulate_schedules, steady_state

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    schedules = []
    x0s = []
    dts: List[float] = []
    for spec in specs:
        trace = gcc_synthesized_trace(
            float(spec.param("duration", 0.040)),
            int(spec.param("instructions", 500_000)),
            int(spec.param("seed", 0)),
            float(spec.param("mean_dwell", 0.005)),
        )
        stride = int(spec.param("thermal_stride", 1))
        if stride > 1:
            trace = trace.resampled(stride)
        schedules.append(trace.to_schedule(model))
        dts.append(trace.dt)
        x0 = None
        if spec.param("init", "steady") == "steady":
            x0 = steady_state(
                model.network, model.node_power(trace.average())
            )
        x0s.append(x0)
    # exact step identity required for lockstep; near-equal is a mismatch
    if any(dt != dts[0] for dt in dts):
        raise CampaignError(
            "trace_transient group mixes thermal step sizes; cannot batch"
        )
    result = batched_simulate_schedules(
        model.network, schedules, dt=dts[0], x0s=x0s,
        projector=model.block_rise, tags=[spec.tag for spec in specs],
    )
    meta = {"block_names": list(model.floorplan.names),
            "ambient_k": model.config.ambient}
    out: Dict[str, JobResult] = {}
    for spec in specs:
        column = result.scenario(spec.tag)
        out[spec.tag] = JobResult(
            arrays={"times": column.times.copy(),
                    "block_rise_k": column.states},
            meta=dict(meta),
        )
    return out


@batch_runner("dtm_policy")
def batch_dtm_policy(specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
    """All DTM policies of one package as a single lockstep run.

    One model, one factorization, K controllers advancing together
    through :func:`~repro.dtm.batch.run_dtm_batch`; each job's
    controller and pulse-train stimulus is configured by the same
    :func:`~repro.campaign.runners.dtm_setup` the serial runner uses.
    """
    from ..dtm.batch import run_dtm_batch
    from .runners import dtm_result, dtm_setup

    assert specs and specs[0].model is not None
    model = specs[0].model.build()
    pairs = [dtm_setup(spec, model) for spec in specs]
    runs = run_dtm_batch(
        [controller for controller, _ in pairs],
        [trace for _, trace in pairs],
    )
    return {
        spec.tag: dtm_result(run, model)
        for spec, run in zip(specs, runs)
    }
