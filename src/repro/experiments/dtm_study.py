"""DTM policy comparison across the two packages, as a campaign.

The DTM literature the paper builds on (Brooks & Martonosi; Skadron et
al.) compares response mechanisms -- fetch throttling, DVFS, clock
gating.  The paper's contribution is that the *package* changes which
parameters work; this module declares the (package x policy) product
as a :mod:`~repro.campaign` sweep so each closed-loop simulation is an
independent, cacheable job, and reports the peak-temperature /
performance tradeoff each combination achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..campaign import CampaignSpec, JobSpec, ResultCache, run_campaign
from .common import uniform_package_specs

#: Blocks a core-local policy (throttling, gating) acts on.
CORE_BLOCKS = (
    "Icache", "IntReg", "IntExec", "IntQ", "IntMap", "LdStQ", "Dcache",
)

#: The three baseline policies: name -> (strength, targets).
BASELINE_POLICIES = {
    "fetch_throttle": (0.3, CORE_BLOCKS),
    "dvfs": (0.7, None),
    "clock_gating": (0.15, CORE_BLOCKS),
}


@dataclass
class DTMPolicyOutcome:
    """What one (package, policy) closed-loop run achieved."""

    package: str
    policy: str
    peak_temperature: float  # absolute Kelvin
    performance: float       # fraction of nominal work completed
    engaged_fraction: float
    n_engagements: int


def dtm_campaign(
    nx: int = 16,
    ny: int = 16,
    cycles: int = 6,
    trace_dt: float = 1e-3,
    threshold_rise: float = 22.0,
    engagement_duration: float = 10e-3,
) -> CampaignSpec:
    """The (package x policy) sweep of the DTM comparison bench."""
    jobs = []
    for package, model in uniform_package_specs(nx, ny, ambient_c=45.0).items():
        for policy, (strength, targets) in BASELINE_POLICIES.items():
            jobs.append(JobSpec.make(
                "dtm_policy",
                tag=f"{package}/{policy}",
                model=model,
                policy=policy, strength=strength, targets=targets,
                pulse_block="Dcache", on_power=14.0,
                on_time=0.015, off_time=0.035,
                cycles=cycles, trace_dt=trace_dt,
                base_power={"Dcache": 4.0, "IntReg": 1.0},
                sensor_block="Dcache", threshold_rise=threshold_rise,
                engagement_duration=engagement_duration,
            ))
    return CampaignSpec(name="dtm_policies", jobs=tuple(jobs))


def run_dtm_comparison(
    nx: int = 16,
    ny: int = 16,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    batch: bool = True,
    **campaign_params,
) -> Dict[Tuple[str, str], DTMPolicyOutcome]:
    """Run the sweep; returns (package, policy) -> outcome.

    With ``batch`` (the default) each package's three policy runs
    execute as one lockstep solve — same numbers, one factorization
    and one stepping loop per package instead of three.
    """
    spec = dtm_campaign(nx=nx, ny=ny, **campaign_params)
    run = run_campaign(spec, jobs=jobs, cache=cache, batch=batch)
    rows: Dict[Tuple[str, str], DTMPolicyOutcome] = {}
    for job in spec.jobs:
        package, policy = job.tag.split("/", 1)
        result = run.result_for(job.tag)
        rows[(package, policy)] = DTMPolicyOutcome(
            package=package,
            policy=policy,
            peak_temperature=result.scalars["peak_temperature_k"],
            performance=result.scalars["performance"],
            engaged_fraction=result.scalars["engaged_fraction"],
            n_engagements=int(result.scalars["n_engagements"]),
        )
    return rows
