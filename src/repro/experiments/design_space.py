"""The thermal-package design space (paper Sections 2.1/2.3/6).

"The research presented in this paper suggests another interesting
dimension in the design space that chip architects can explore -- the
thermal package choice."  This module declares that sweep as a
campaign: one :mod:`~repro.campaign` job per package of the
Section 2.1 cooling taxonomy, each computing the numbers a
temperature-aware architect trades off -- peak steady temperature,
across-die gradient, and the short-term thermal time constant that
sets DTM responsiveness (plus, optionally, the warm-up time to steady
state that sets test/characterization cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    run_campaign,
)
from ..units import ZERO_CELSIUS_IN_KELVIN

#: The Section 2.1 menu, in the paper's presentation order.
PACKAGE_MENU = (
    "AIR-SINK",
    "NATURAL",
    "OIL-SILICON",
    "OIL+TEC",
    "WATER-PLATE",
    "MICROCHANNEL",
)


@dataclass
class PackagePoint:
    """One package's figures of merit (temperatures as rises, K)."""

    package: str
    tmax: float       # peak steady rise over ambient
    dt: float         # across-die spread
    t63: float        # short-term single-block response time, s
    t63_warm: float   # full-workload warm-up time, s (nan if not run)
    ambient_k: float

    @property
    def tmax_c(self) -> float:
        """Peak steady temperature in Celsius (absolute)."""
        return self.tmax + self.ambient_k - ZERO_CELSIUS_IN_KELVIN


def design_space_campaign(
    nx: int = 16,
    ny: int = 16,
    packages: Optional[Sequence[str]] = None,
    instructions: int = 500_000,
    pulse_block: str = "IntReg",
    pulse_power: float = 3.0,
    pulse_t_end: float = 0.4,
    pulse_dt: float = 2e-3,
    warmup_t_end: float = 0.0,
    warmup_dt: float = 0.5,
) -> CampaignSpec:
    """The design-space sweep: one ``package_metrics`` job per package."""
    jobs = tuple(
        JobSpec.make(
            "package_metrics",
            tag=package,
            model=ModelSpec(
                chip="ev6", package=package, nx=nx, ny=ny, ambient_c=45.0
            ),
            power="gcc_average", instructions=instructions,
            pulse_block=pulse_block, pulse_power=pulse_power,
            pulse_t_end=pulse_t_end, pulse_dt=pulse_dt,
            warmup_t_end=warmup_t_end, warmup_dt=warmup_dt,
        )
        for package in (packages or PACKAGE_MENU)
    )
    return CampaignSpec(name="design_space", jobs=jobs)


def run_design_space(
    nx: int = 16,
    ny: int = 16,
    packages: Optional[Sequence[str]] = None,
    warmup_t_end: float = 0.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    **campaign_params,
) -> Dict[str, PackagePoint]:
    """Run the sweep; returns package name -> :class:`PackagePoint`."""
    spec = design_space_campaign(
        nx=nx, ny=ny, packages=packages, warmup_t_end=warmup_t_end,
        **campaign_params,
    )
    run = run_campaign(spec, jobs=jobs, cache=cache)
    points: Dict[str, PackagePoint] = {}
    for job in spec.jobs:
        result = run.result_for(job.tag)
        points[job.tag] = PackagePoint(
            package=job.tag,
            tmax=result.scalars["tmax"],
            dt=result.scalars["dt"],
            t63=result.scalars["t63"],
            t63_warm=result.scalars.get("t63_warm", float("nan")),
            ambient_k=result.meta["ambient_k"],
        )
    return points
