"""Physics-aware static analysis for the reproduction codebase.

An AST-based checker with seven rules, each mapped to a real failure
mode of this repository (see DESIGN.md, "Static analysis").  Rule
numbers are stable: numbers of removed rules are never reused.

* ``unit-consistency`` (R1) — dimension mismatches and magic material
  constants, driven by the machine-readable tables in
  :mod:`repro.units` and :mod:`repro.materials`;
* ``cache-invalidation`` (R2) — thermal-network mutation without
  ``invalidate()``, the PR-1 stale-LU bug generalized;
* ``hash-determinism`` (R3) — nondeterminism reaching content-hash /
  fingerprint code (the campaign cache's integrity);
* ``pickle-safety`` (R4) — unpicklable callables or shared mutable
  state at the process-pool boundary;
* ``float-equality`` (R5) — exact float comparison outside declared
  sentinels;
* ``obs-taxonomy`` (R8) — span/metric names outside the
  :mod:`repro.obs.taxonomy` registry, spans opened outside ``with``;
* ``lock-discipline`` (R12) — mutation of a lock-guarded attribute
  (declared via ``units.guarded_by`` or inferred from consistent
  locking) without its lock held, and inconsistent two-lock
  acquisition order (deadlock potential).

R12 is the one whole-program rule (:class:`ProjectRule`): the runner
compiles every file to a cacheable module summary, links the
summaries into a project :class:`SymbolTable`, then checks lock use
across module boundaries.  Per-file outcomes are cached on content
hash and fan out over a process pool (``repro analyze -j N``);
``--diff REF``/``--changed-only`` narrow reporting to git-changed
files for fast PR gating.

Run it via ``repro analyze [paths]`` (text/JSON/SARIF output, committed
baseline, CI gating) or programmatically through
:func:`analyze_paths`.
"""

from .baseline import DEFAULT_BASELINE, Baseline, finding_fingerprint
from .cache import AnalysisCache, config_fingerprint
from .callgraph import ModuleSummary, SymbolTable, extract_summary
from .core import (
    RULE_ALIASES,
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    canonical_rule_name,
    make_rules,
    rule_names,
    severity_rank,
)
from .dimensions import DIMENSIONLESS, Dimension, DimensionError, parse_dimension
from .report import format_json, format_sarif, format_text
from .runner import (
    AnalysisResult,
    analyze_file,
    analyze_paths,
    git_changed_files,
    iter_python_files,
)

__all__ = [
    "AnalysisCache",
    "AnalysisResult",
    "Baseline",
    "DEFAULT_BASELINE",
    "DIMENSIONLESS",
    "Dimension",
    "DimensionError",
    "Finding",
    "ModuleSummary",
    "ProjectRule",
    "RULE_ALIASES",
    "Rule",
    "SourceFile",
    "SymbolTable",
    "analyze_file",
    "analyze_paths",
    "canonical_rule_name",
    "config_fingerprint",
    "extract_summary",
    "finding_fingerprint",
    "format_json",
    "format_sarif",
    "format_text",
    "git_changed_files",
    "iter_python_files",
    "make_rules",
    "parse_dimension",
    "rule_names",
    "severity_rank",
]
