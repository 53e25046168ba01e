"""The span and metric name registry (DESIGN.md §7, machine-readable).

Observability names are dotted paths whose first segment is the owning
subsystem; DESIGN.md §7 documents the full taxonomy.  This module is
the *enforced* copy: instrumentation must register every span and
metric name here, and the ``obs-taxonomy`` static-analysis rule
(:mod:`repro.analysis.static.rules_obs`) flags any string literal used
in a ``span(...)``/``counter(...)``/``histogram(...)``/``gauge(...)``
call that the registry does not know — so a misspelled metric name
fails CI instead of silently splitting a counter in two.

Dynamic names (f-strings) are allowed when they fall under a
registered *prefix*: ``campaign.cache.`` (suffixes are the
:attr:`~repro.campaign.cache.ResultCache.COUNTER_NAMES` op names).
"""

from __future__ import annotations

from typing import Tuple

#: Every span name the codebase may open (DESIGN.md §7, "Spans").
SPAN_NAMES = frozenset(
    {
        "campaign.run",
        "campaign.cache.probe",
        "campaign.cache.store",
        "campaign.job",
        "rcmodel.grid.assemble",
        "solver.steady.solve",
        "solver.steady.factorize",
        "solver.transient.factorize",
        "solver.transient.session",
        "solver.backend.factorize",
        "solver.backend.solve",
        "campaign.batch",
    }
)

#: Every metric name the codebase may record (DESIGN.md §7, "Metrics").
METRIC_NAMES = frozenset(
    {
        "solver.steady.factorizations",
        "solver.steady.factor_cache_hits",
        "solver.steady.solves",
        "solver.steady.solve_seconds",
        "solver.transient.matrix_builds",
        "solver.transient.steps",
        "solver.batched.runs",
        "solver.batched.scenarios",
        "solver.batched.steps",
        "campaign.jobs.batched",
        "rcmodel.grid.assemblies",
        "rcmodel.grid.assembly_seconds",
        "campaign.jobs.attempts",
        "campaign.jobs.failures",
        "campaign.job.wall_seconds",
    }
)

#: Prefixes under which dynamically-built metric names are legal.
METRIC_PREFIXES: Tuple[str, ...] = ("campaign.cache.",)


def known_span(name: str) -> bool:
    """Whether ``name`` is a registered span name."""
    return name in SPAN_NAMES


def known_metric(name: str) -> bool:
    """Whether ``name`` is a registered metric name (or prefixed)."""
    return name in METRIC_NAMES or any(
        name.startswith(prefix) for prefix in METRIC_PREFIXES
    )
