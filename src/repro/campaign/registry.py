"""Named campaign definitions.

The registry maps short names (``fig11``, ``design_space``, ...) to
builder functions producing :class:`~repro.campaign.spec.CampaignSpec`
objects, so ``repro campaign run <name>`` and the experiment modules
share one sweep definition.  Builders import their experiment module
lazily — the experiment modules themselves import
:mod:`repro.campaign`, and eager imports here would close that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..errors import CampaignError
from .spec import CampaignSpec


@dataclass(frozen=True)
class CampaignDefinition:
    """One registered campaign: a name, a blurb, and a builder."""

    name: str
    description: str
    builder: Callable[..., CampaignSpec]


_REGISTRY: Dict[str, CampaignDefinition] = {}


def campaign_definition(
    name: str, description: str
) -> Callable[[Callable[..., CampaignSpec]], Callable[..., CampaignSpec]]:
    """Register a campaign builder under ``name``."""

    def register(
        builder: Callable[..., CampaignSpec]
    ) -> Callable[..., CampaignSpec]:
        _REGISTRY[name] = CampaignDefinition(name, description, builder)
        return builder

    return register


def get_campaign(name: str, **params: Any) -> CampaignSpec:
    """Build a registered campaign, passing ``params`` to its builder."""
    if name not in _REGISTRY:
        raise CampaignError(
            f"unknown campaign {name!r}; available: {sorted(_REGISTRY)}"
        )
    try:
        return _REGISTRY[name].builder(**params)
    except TypeError as exc:
        raise CampaignError(f"bad parameters for campaign {name!r}: {exc}") from exc


def list_campaigns() -> List[CampaignDefinition]:
    """All registered campaigns, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


@campaign_definition(
    "fig11",
    "EV6/gcc steady temperatures under the four oil flow directions "
    "(paper Fig. 11 table)",
)
def _fig11(**params: Any) -> CampaignSpec:
    from ..experiments.fig11 import fig11_campaign

    return fig11_campaign(**params)


@campaign_definition(
    "fig12",
    "trace-driven EV6 temperature transients under both packages "
    "(paper Fig. 12)",
)
def _fig12(**params: Any) -> CampaignSpec:
    from ..experiments.fig12 import fig12_campaign

    return fig12_campaign(**params)


@campaign_definition(
    "design_space",
    "the Section 2.1 thermal-package design space on the EV6/gcc "
    "workload (peak, gradient, DTM time constant)",
)
def _design_space(**params: Any) -> CampaignSpec:
    from ..experiments.design_space import design_space_campaign

    return design_space_campaign(**params)


@campaign_definition(
    "dtm_policies",
    "DTM policy comparison (fetch throttle / DVFS / clock gating) "
    "under both packages",
)
def _dtm_policies(**params: Any) -> CampaignSpec:
    from ..experiments.dtm_study import dtm_campaign

    return dtm_campaign(**params)


@campaign_definition(
    "smoke",
    "two diagnostic no-solve jobs exercising the executor end to end "
    "(CI smoke test)",
)
def _smoke(**params: Any) -> CampaignSpec:
    from .spec import JobSpec

    if params:
        raise TypeError(f"unexpected parameters {sorted(params)}")
    jobs = tuple(
        JobSpec.make("diagnostic", tag=f"probe-{i}", value=float(i))
        for i in range(2)
    )
    return CampaignSpec(name="smoke", jobs=jobs)
