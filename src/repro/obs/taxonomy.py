"""The metric name registry (DESIGN.md §7, machine-readable).

Metric names are dotted paths whose first segment is the owning
subsystem; DESIGN.md §7 documents the full taxonomy.  This module is
the *enforced* copy: instrumentation must register every metric name
here, and ``tests/test_taxonomy.py`` fails on any string literal used
in a ``counter(...)`` call in ``src/repro`` that the registry does not
know — so a misspelled metric name fails CI instead of silently
splitting a counter in two.  The same file fails on a
registered name that no module emits, and on an f-string
``counter(...)`` name, which no registry could check.
"""

from __future__ import annotations

#: Every metric name the codebase may record (DESIGN.md §7, "Metrics").
METRIC_NAMES = frozenset(
    {
        "solver.steady.factorizations",
        "solver.steady.solves",
        "solver.transient.matrix_builds",
        "solver.transient.steps",
        "campaign.jobs.batched",
        "rcmodel.grid.assemblies",
        "campaign.jobs.attempts",
        "campaign.jobs.failures",
        "campaign.cache.hits",
        "campaign.cache.misses",
        "campaign.cache.stores",
        "campaign.cache.trace_hits",
        "campaign.cache.trace_misses",
        "campaign.cache.trace_stores",
    }
)
