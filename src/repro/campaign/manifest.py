"""JSONL run manifests and campaign summaries.

Every campaign run appends one ``{"type": "job", ...}`` line per job —
wall time, cache hit/miss, worker id, outcome — and closes
with a ``{"type": "summary", ...}`` line carrying the aggregate the
operator actually watches: hit rate and p50/p95 job latency.  JSONL
keeps the file appendable from a crashing run and greppable without
tooling.  Manifests from before retries and timeouts were removed
still read: their jobs' ``"retries"`` key is ignored and a
``"timeout"`` status counts as failed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np


@dataclass
class CampaignSummary:
    """Aggregate statistics of one campaign run."""

    campaign: str
    n_jobs: int
    n_ok: int
    n_failed: int
    n_cached: int
    hit_rate: float
    p50_wall_s: float
    p95_wall_s: float
    total_wall_s: float
    #: Aggregated observability counters across the run: per-job metric
    #: deltas summed over jobs, plus engine counts (``campaign.cache.hits``
    #: / ``.misses``, ``campaign.jobs.batched``).  Empty when jobs ran
    #: without capture; defaulted so pre-metrics manifests still
    #: round-trip.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        """Whether every job produced a result (fresh or cached)."""
        return self.n_failed == 0


def summarize(
    campaign: str,
    records: List[Dict[str, Any]],
    total_wall_s: float,
    metrics: Optional[Dict[str, float]] = None,
) -> CampaignSummary:
    """Fold per-job manifest records into a :class:`CampaignSummary`."""
    jobs = [r for r in records if r.get("type", "job") == "job"]
    walls = [float(r["wall_s"]) for r in jobs]
    n_cached = sum(1 for r in jobs if r.get("cached"))
    n_failed = sum(1 for r in jobs if r.get("status") not in ("ok", "cached"))
    return CampaignSummary(
        campaign=campaign,
        n_jobs=len(jobs),
        n_ok=len(jobs) - n_failed,
        n_failed=n_failed,
        n_cached=n_cached,
        hit_rate=n_cached / len(jobs) if jobs else 0.0,
        p50_wall_s=float(np.percentile(walls, 50)) if walls else 0.0,
        p95_wall_s=float(np.percentile(walls, 95)) if walls else 0.0,
        total_wall_s=total_wall_s,
        metrics=dict(metrics) if metrics else {},
    )


class ManifestWriter:
    """Appends manifest records to a JSONL file as the run progresses."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def _append(self, record: Dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def job(self, record: Dict[str, Any]) -> None:
        """Record one finished job."""
        self._append({"type": "job", **record})

    def summary(self, summary: CampaignSummary) -> None:
        """Record the closing campaign summary."""
        self._append({"type": "summary", **asdict(summary)})


def read_manifest(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """All records of a manifest file, skipping malformed lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def manifest_summary(
    path: Union[str, "os.PathLike[str]"]
) -> Optional[CampaignSummary]:
    """The summary of a manifest: its summary line, else recomputed."""
    records = read_manifest(path)
    for record in reversed(records):
        if record.get("type") == "summary":
            fields = {k: v for k, v in record.items() if k != "type"}
            return CampaignSummary(**fields)
    jobs = [r for r in records if r.get("type") == "job"]
    if not jobs:
        return None
    campaign = str(jobs[0].get("campaign", "?"))
    return summarize(campaign, jobs, sum(float(r["wall_s"]) for r in jobs))
