"""Declarative job and campaign specifications.

A *campaign* is a named set of independent simulation *jobs*.  Each job
is described entirely by data — which chip, which package, which solve —
so it can be pickled to a worker process, hashed for the
content-addressed result cache, and recorded in a manifest.  The specs
are frozen dataclasses of JSON-able primitives; :meth:`JobSpec.content_hash`
is a deterministic SHA-256 over the canonical JSON encoding, stable
across processes and interpreter runs (the property the cache relies
on: same spec, same hash, same stored result).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..errors import CampaignError, ConfigurationError

if TYPE_CHECKING:
    from ..rcmodel import ThermalGridModel
from ..units import ZERO_CELSIUS_IN_KELVIN

#: Bump when the meaning of a spec field changes, so stale cache
#: entries written by an older scheme can never be mistaken for fresh.
#: Version 2: jobs carry a solver-backend identity, so results
#: computed by different linear-algebra engines never share an entry.
#: Version 3: the default engine orders by symmetric minimum degree
#: instead of COLAMD; outputs move at the 1e-12 level.
#: Version 4: one solver remains and the ``backend`` payload key is
#: gone; outputs are bitwise those of version 3, but the hash input
#: changed shape, so version-3 entries are not looked up again.
SPEC_VERSION = 4


def freeze(value: Any) -> Any:
    """Recursively convert a parameter value to a hashable form.

    Lists/tuples become tuples, dicts become sorted ``(key, value)``
    tuples; scalars pass through.  The result is both hashable (so
    specs can live in sets/dict keys) and canonically ordered (so the
    JSON encoding is deterministic).
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), freeze(v)) for k, v in value.items()))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CampaignError(
        f"spec parameters must be JSON-able primitives, got {type(value).__name__}"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ModelSpec:
    """A thermal model configuration as pure data.

    Mirrors the knobs of :func:`repro.package.oil_silicon_package`,
    :func:`repro.package.air_sink_package` and the Section 2.1 package
    menu; :meth:`build` turns it into a live
    :class:`~repro.rcmodel.ThermalGridModel` (in whichever process the
    job runs).  ``package`` is ``"oil"``, ``"air"``, or one of the
    :func:`~repro.package.standard_package_menu` names
    (``"AIR-SINK"``, ``"MICROCHANNEL"``, ...).
    """

    chip: str = "ev6"
    package: str = "oil"
    nx: int = 32
    ny: int = 32
    ambient_c: float = 45.0
    #: oil knobs (ignored by "air" and menu packages)
    direction: str = "left_to_right"
    velocity: float = 10.0
    uniform_h: bool = False
    target_resistance: Optional[float] = None
    #: secondary (pins/board) path of "oil" and "air" (ignored by menu
    #: packages); the default is oil's, so an AIR-SINK spec passes False
    include_secondary: bool = True
    #: air knob (ignored by "oil" and menu packages)
    convection_resistance: float = 1.0

    def build(self) -> "ThermalGridModel":
        """Construct the live thermal model this spec describes."""
        from ..convection.flow import FlowDirection
        from ..floorplan import athlon_floorplan, ev6_floorplan
        from ..package import (
            air_sink_package,
            oil_silicon_package,
            standard_package_menu,
        )
        from ..rcmodel import ThermalGridModel

        chips = {"ev6": ev6_floorplan, "athlon": athlon_floorplan}
        if self.chip not in chips:
            raise ConfigurationError(
                f"unknown chip {self.chip!r}; expected one of {sorted(chips)}"
            )
        directions = [d.value for d in FlowDirection]
        if self.direction not in directions:
            raise ConfigurationError(
                f"unknown direction {self.direction!r}; expected one of "
                f"{directions}"
            )
        plan = chips[self.chip]()
        ambient = self.ambient_c + ZERO_CELSIUS_IN_KELVIN
        if self.package == "oil":
            config = oil_silicon_package(
                plan.die_width, plan.die_height,
                velocity=self.velocity,
                direction=FlowDirection(self.direction),
                uniform_h=self.uniform_h,
                target_resistance=self.target_resistance,
                include_secondary=self.include_secondary,
                ambient=ambient,
            )
        elif self.package == "air":
            config = air_sink_package(
                plan.die_width, plan.die_height,
                convection_resistance=self.convection_resistance,
                include_secondary=self.include_secondary,
                ambient=ambient,
            )
        else:
            menu = standard_package_menu(
                plan.die_width, plan.die_height, ambient=ambient
            )
            if self.package not in menu:
                raise ConfigurationError(
                    f"unknown package {self.package!r}; expected 'oil', "
                    f"'air' or one of {sorted(menu)}"
                )
            config = menu[self.package]
        return ThermalGridModel(plan, config, nx=self.nx, ny=self.ny)


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work: a runner kind + model + parameters.

    ``kind`` names a runner registered in
    :mod:`repro.campaign.runners`; ``params`` is a canonically sorted
    tuple of ``(name, value)`` pairs (use :meth:`make` rather than the
    raw constructor).  ``tag`` identifies the job within its campaign
    (e.g. the flow direction of a Fig. 11 job) and must be unique.
    """

    kind: str
    tag: str
    model: Optional[ModelSpec] = None
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def make(
        cls,
        kind: str,
        tag: str,
        model: Optional[ModelSpec] = None,
        **params: Any,
    ) -> "JobSpec":
        """Build a spec from keyword parameters (the normal entry)."""
        frozen = tuple(sorted((k, freeze(v)) for k, v in params.items()))
        return cls(kind=kind, tag=tag, model=model, params=frozen)

    @property
    def params_dict(self) -> Dict[str, Any]:
        """Parameters as a plain dict (values still frozen tuples)."""
        return dict(self.params)

    def param(self, name: str, default: Any = None) -> Any:
        """One parameter value, or ``default`` when absent."""
        return self.params_dict.get(name, default)

    def payload(self) -> Dict[str, Any]:
        """The JSON-able identity of this job (hash input)."""
        return {
            "version": SPEC_VERSION,
            "kind": self.kind,
            "model": dataclasses.asdict(self.model) if self.model else None,
            "params": [[k, v] for k, v in self.params],
        }

    @property
    def content_hash(self) -> str:
        """Deterministic SHA-256 of the job's identity.

        The ``tag`` is deliberately excluded: two campaigns asking for
        the same computation under different labels share one cache
        entry.
        """
        return _sha256(canonical_json(self.payload()))


@dataclass(frozen=True)
class CampaignSpec:
    """A named, ordered set of jobs with unique tags."""

    name: str
    jobs: Tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        tags = [job.tag for job in self.jobs]
        if len(set(tags)) != len(tags):
            dupes = sorted({t for t in tags if tags.count(t) > 1})
            raise CampaignError(
                f"campaign {self.name!r} has duplicate job tags: {dupes}"
            )
        if not self.jobs:
            raise CampaignError(f"campaign {self.name!r} has no jobs")

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def content_hash(self) -> str:
        """SHA-256 over the member jobs' hashes (order-sensitive)."""
        return _sha256(canonical_json(
            {"name": self.name,
             "jobs": [job.content_hash for job in self.jobs]}
        ))
