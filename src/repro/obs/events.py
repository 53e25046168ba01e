"""Campaign lifecycle events: the vocabulary of ``--live`` and ``obs tail``.

The campaign executor is the only producer.  It runs in the parent
process, where every job outcome lands anyway, and calls its
``on_event`` callback synchronously with each lifecycle event — no
queue, no threads, nothing published from workers.  An event is a
plain JSON-able dict, so the CLI can append it to a
``<manifest>.events.jsonl`` sidecar that ``repro obs tail`` follows
from another process.

Events are advisory: they never feed a result, a manifest record or a
summary metric, so a run with no ``on_event`` callback computes
exactly the same numbers.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

#: Event types emitted by the campaign engine, in lifecycle order.
EVENT_TYPES = (
    "campaign_started",
    "job_started",
    "job_cached",
    "job_finished",
    "campaign_finished",
)

Event = Dict[str, Any]


def make_event(type: str, tag: str = "", **payload: Any) -> Event:
    """A plain-dict event: JSON-able and picklable."""
    event: Event = {"type": type, "tag": tag, "t_wall": time.time(),
                    "pid": os.getpid()}
    event.update(payload)
    return event


def read_events_jsonl(path: str) -> List[Event]:
    """All events of a JSONL sidecar file, skipping malformed lines."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "type" in record:
                events.append(record)
    return events
