"""Job runners: the solve kinds a campaign job can request.

Each runner maps a :class:`~repro.campaign.spec.JobSpec` to a plain
:class:`~repro.campaign.cache.JobResult`.  Runners execute inside
worker processes, so they import the heavy model/solver modules lazily
and return only picklable data — raw Kelvin temperatures or rises plus
enough metadata (block names, ambient) for the experiment modules to
reassemble their figure-level result objects bit-for-bit identically
to the old inline loops.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

import numpy as np

from ..errors import CampaignError
from .cache import JobResult
from .spec import JobSpec

if TYPE_CHECKING:
    from ..power.trace import PowerTrace

RUNNERS: Dict[str, Callable[[JobSpec], JobResult]] = {}


def runner(
    kind: str,
) -> Callable[[Callable[[JobSpec], JobResult]], Callable[[JobSpec], JobResult]]:
    """Register a runner under a job ``kind`` name."""

    def register(fn: Callable[[JobSpec], JobResult]) -> Callable[[JobSpec], JobResult]:
        RUNNERS[kind] = fn
        return fn

    return register


def get_runner(kind: str) -> Callable[[JobSpec], JobResult]:
    """Look up a runner; unknown kinds are campaign errors."""
    try:
        return RUNNERS[kind]
    except KeyError:
        raise CampaignError(
            f"unknown job kind {kind!r}; registered: {sorted(RUNNERS)}"
        ) from None


def _block_powers(spec: JobSpec) -> Dict[str, float]:
    """Resolve a job's power source to a per-block power dict.

    ``power="gcc_average"`` (default) uses the cached gcc-like EV6
    trace's time average; ``power="blocks"`` takes an explicit
    ``power_blocks`` mapping (frozen as ``(name, watts)`` pairs).
    """
    source = spec.param("power", "gcc_average")
    if source == "gcc_average":
        from ..experiments.common import gcc_average_power

        return gcc_average_power(int(spec.param("instructions", 500_000)))
    if source == "blocks":
        pairs = spec.param("power_blocks")
        if not pairs:
            raise CampaignError("power='blocks' needs a power_blocks mapping")
        return {str(name): float(watts) for name, watts in pairs}
    raise CampaignError(f"unknown power source {source!r}")


@runner("steady_blocks")
def run_steady_blocks(spec: JobSpec) -> JobResult:
    """Steady-state solve; per-block absolute temperatures (Kelvin)."""
    from ..solver import steady_block_temperatures

    model = spec.model.build()
    temps = steady_block_temperatures(model, _block_powers(spec))
    names = list(model.floorplan.names)
    block_temps = np.array([temps[name] for name in names])
    return JobResult(
        scalars={"t_max_k": float(block_temps.max()),
                 "t_min_k": float(block_temps.min())},
        arrays={"block_temps_k": block_temps},
        meta={"block_names": names,
              "ambient_k": model.config.ambient},
    )


def job_trace(spec: JobSpec) -> "PowerTrace":
    """The binned gcc trace a ``trace_transient`` job integrates (the
    serial runner below and :mod:`repro.campaign.batching` share it)."""
    from ..experiments.common import gcc_synthesized_trace

    return gcc_synthesized_trace(
        float(spec.param("duration", 0.040)),
        int(spec.param("instructions", 500_000)),
        int(spec.param("seed", 0)),
        float(spec.param("mean_dwell", 0.005)),
        int(spec.param("thermal_stride", 1)),
    )


@runner("trace_transient")
def run_trace_transient(spec: JobSpec) -> JobResult:
    """Integrate the synthesized gcc trace; per-block rise series.

    Parameters: ``duration``, ``instructions``, ``seed``,
    ``mean_dwell`` (trace synthesis), ``thermal_stride`` (power-sample
    binning), ``init`` (``"steady"`` starts from the average-power
    steady state, anything else from ambient).
    """
    from ..solver import simulate_schedule, steady_state

    model = spec.model.build()
    trace = job_trace(spec)
    schedule = trace.to_schedule(model)
    x0 = None
    if spec.param("init", "steady") == "steady":
        x0 = steady_state(model.network, model.node_power(trace.average()))
    result = simulate_schedule(
        model.network, schedule, dt=trace.dt, x0=x0,
        projector=model.block_rise,
    )
    return JobResult(
        arrays={"times": result.times, "block_rise_k": result.states},
        meta={"block_names": list(model.floorplan.names),
              "ambient_k": model.config.ambient},
    )


@runner("package_metrics")
def run_package_metrics(spec: JobSpec) -> JobResult:
    """The design-space figures of merit for one package.

    Steady peak rise and across-die spread under the gcc power map,
    the short-term t63 of a single-block pulse (DTM responsiveness),
    and optionally (``warmup_t_end > 0``) the warm-up t63 of the full
    workload from ambient.
    """
    from ..analysis.time_constants import rise_time
    from ..solver import steady_state, transient_step_response

    model = spec.model.build()
    plan = model.floorplan
    powers = _block_powers(spec)
    rise = steady_state(model.network, model.node_power(powers))
    block_rise = model.block_rise(rise)

    pulse_block = str(spec.param("pulse_block", "IntReg"))
    pulse = transient_step_response(
        model.network,
        model.node_power({pulse_block: float(spec.param("pulse_power", 3.0))}),
        t_end=float(spec.param("pulse_t_end", 0.4)),
        dt=float(spec.param("pulse_dt", 2e-3)),
        projector=model.block_rise,
    )
    series = pulse.states[:, plan.index_of(pulse_block)]
    scalars = {
        "tmax": float(block_rise.max()),
        "dt": float(block_rise.max() - block_rise.min()),
        "t63": float(rise_time(pulse.times, series)),
    }

    warmup_t_end = float(spec.param("warmup_t_end", 0.0))
    if warmup_t_end > 0:
        warm = transient_step_response(
            model.network, model.node_power(powers),
            t_end=warmup_t_end,
            dt=float(spec.param("warmup_dt", 0.5)),
            projector=model.block_rise,
        )
        try:
            scalars["t63_warm"] = float(rise_time(warm.times, warm.states.mean(axis=1)))
        except Exception:
            scalars["t63_warm"] = float("nan")

    return JobResult(
        scalars=scalars,
        arrays={"block_rise_k": block_rise},
        meta={"block_names": list(plan.names),
              "ambient_k": model.config.ambient},
    )


def dtm_setup(spec: JobSpec, model: Any) -> Tuple[Any, Any]:
    """Build the (controller, trace) pair a ``dtm_policy`` job describes.

    Shared by the serial runner below and the batched group runner in
    :mod:`repro.campaign.batching`, which builds the model once and
    calls this per job so both paths configure identical simulations.
    """
    from ..dtm import ClockGating, DTMController, DVFS, FetchThrottle
    from ..power import pulse_train
    from ..sensors import SensorArray, place_at_block

    plan = model.floorplan
    policies = {
        "fetch_throttle": FetchThrottle,
        "dvfs": DVFS,
        "clock_gating": ClockGating,
    }
    name = str(spec.param("policy"))
    if name not in policies:
        raise CampaignError(
            f"unknown DTM policy {name!r}; expected one of {sorted(policies)}"
        )
    strength = float(spec.param("strength"))
    targets = spec.param("targets")
    if name == "dvfs":
        policy = DVFS(strength)
    else:
        policy = policies[name](strength, targets=list(targets) if targets else None)

    base_power = dict(spec.param("base_power") or ())
    trace = pulse_train(
        plan,
        str(spec.param("pulse_block", "Dcache")),
        on_power=float(spec.param("on_power", 14.0)),
        on_time=float(spec.param("on_time", 0.015)),
        off_time=float(spec.param("off_time", 0.035)),
        cycles=int(spec.param("cycles", 6)),
        dt=float(spec.param("trace_dt", 1e-3)),
        base_power={str(k): float(v) for k, v in base_power.items()} or None,
    )
    sensors = SensorArray(
        [place_at_block(plan, str(spec.param("sensor_block", "Dcache")))]
    )
    controller = DTMController(
        model, sensors, policy,
        threshold=model.config.ambient + float(spec.param("threshold_rise", 22.0)),
        engagement_duration=float(spec.param("engagement_duration", 10e-3)),
    )
    return controller, trace


def dtm_result(run: Any, model: Any) -> JobResult:
    """Package one DTM run as a job result (serial and batched paths)."""
    return JobResult(
        scalars={
            "peak_temperature_k": run.peak_temperature,
            "performance": run.performance,
            "engaged_fraction": run.engaged_fraction,
            "n_engagements": float(run.n_engagements),
        },
        meta={"ambient_k": model.config.ambient},
    )


@runner("dtm_policy")
def run_dtm_policy(spec: JobSpec) -> JobResult:
    """One closed-loop DTM simulation (package x policy comparison).

    The driving trace is a pulse train on ``pulse_block`` (the
    Fig. 8-style stimulus of the DTM bench); the policy is selected by
    name with one ``strength`` knob and optional ``targets``.
    """
    model = spec.model.build()
    controller, trace = dtm_setup(spec, model)
    run = controller.run(trace)
    return dtm_result(run, model)


@runner("diagnostic")
def run_diagnostic(spec: JobSpec) -> JobResult:
    """A no-solve job for exercising the executor and CI smoke runs.

    ``value`` is echoed back so tests can check result plumbing.
    """
    value = float(spec.param("value", 0.0))
    return JobResult(
        scalars={"value": value, "pid": float(os.getpid())},
        arrays={"echo": np.array([value])},
        meta={"tag": spec.tag},
    )
