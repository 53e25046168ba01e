"""JSONL run manifests and campaign summaries.

Every campaign run appends one ``{"type": "job", ...}`` line per job —
wall time, cache hit/miss, worker id, outcome — and closes
with a ``{"type": "summary", ...}`` line carrying the aggregate the
operator actually watches: hit rate and p50/p95 job latency.  The
engine's counts are :mod:`repro.obs` counters, not summary fields.
JSONL keeps the file appendable from a crashing run and greppable
without tooling.  Older manifests still read: a job's ``"retries"``
key (from before retries and timeouts were removed), its ``"obs"`` key
(from before per-job capture was removed) and a summary's
``"metrics"`` key (from before the summary stopped copying the
counts) are ignored, and a ``"timeout"`` status counts as failed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import CampaignError


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

    @property
    def all_ok(self) -> bool:
        """Whether every job produced a result (fresh or cached)."""
        return self.n_failed == 0


def summarize(
    campaign: str,
    records: List[Dict[str, Any]],
    total_wall_s: float,
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
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def manifest_summary(
    path: Union[str, "os.PathLike[str]"]
) -> Optional[CampaignSummary]:
    """The summary of a manifest: its summary line, else recomputed.

    Keys a summary line carries beyond the :class:`CampaignSummary`
    fields (an older run's ``"metrics"``) are ignored; a summary line
    or job record that lacks a field the summary needs, or holds
    ``null`` there, raises :class:`~repro.errors.CampaignError`.
    """
    records = read_manifest(path)
    for record in reversed(records):
        if record.get("type") == "summary":
            names = [f.name for f in fields(CampaignSummary)]
            _require(record, names, f"manifest {path}: summary line")
            return CampaignSummary(**{name: record[name] for name in names})
    jobs = [r for r in records if r.get("type") == "job"]
    if not jobs:
        return None
    for job in jobs:
        _require(job, ["wall_s"], f"manifest {path}: job {job.get('tag')!r}")
    campaign = str(jobs[0].get("campaign", "?"))
    return summarize(campaign, jobs, sum(float(r["wall_s"]) for r in jobs))


def _require(record: Dict[str, Any], names: List[str], what: str) -> None:
    missing = [name for name in names if record.get(name) is None]
    if missing:
        raise CampaignError(f"{what} lacks {', '.join(missing)}")
