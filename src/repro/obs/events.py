"""Campaign lifecycle events: what ``run_campaign(on_event=...)`` receives.

The campaign executor is the only producer.  It runs in the parent
process, where every job outcome lands anyway, and calls its
``on_event`` callback synchronously with each lifecycle event — no
queue, no threads, nothing published from workers.  An event is a
plain JSON-able, picklable dict.

Events are advisory: they never feed a result, a manifest record or a
summary metric, so a run with no ``on_event`` callback computes
exactly the same numbers.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

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
