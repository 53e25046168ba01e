"""The metric name registry (DESIGN.md §7, machine-readable).

Metric names are dotted paths whose first segment is the owning
subsystem; DESIGN.md §7 documents the full taxonomy.  This module is
the *enforced* copy: instrumentation must register every metric name
here, and ``tests/test_taxonomy.py`` fails on any string literal used
in a ``counter(...)`` call in ``src/repro`` that the registry does not
know — so a misspelled metric name fails CI instead of silently
splitting a counter in two.  The same file fails on a
registered name that no module emits.

Dynamic names (f-strings) are allowed when they fall under a
registered *prefix*: ``campaign.cache.`` (the suffixes are the result
store's op names ``hits``, ``misses``, ``stores``, ``trace_hits``,
``trace_misses`` and ``trace_stores``; see
:mod:`repro.campaign.cache`).
"""

from __future__ import annotations

from typing import Tuple

#: Every metric name the codebase may record (DESIGN.md §7, "Metrics").
METRIC_NAMES = frozenset(
    {
        "solver.steady.factorizations",
        "solver.steady.factor_cache_hits",
        "solver.steady.solves",
        "solver.transient.matrix_builds",
        "solver.transient.steps",
        "campaign.jobs.batched",
        "rcmodel.grid.assemblies",
        "campaign.jobs.attempts",
        "campaign.jobs.failures",
    }
)

#: Prefixes under which dynamically-built metric names are legal.
METRIC_PREFIXES: Tuple[str, ...] = ("campaign.cache.",)


def known_metric(name: str) -> bool:
    """Whether ``name`` is a registered metric name (or prefixed)."""
    return name in METRIC_NAMES or any(
        name.startswith(prefix) for prefix in METRIC_PREFIXES
    )
