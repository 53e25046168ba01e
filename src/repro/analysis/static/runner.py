"""The analysis driver: discover, analyze (cached, parallel), gate.

:func:`analyze_paths` is the library entry point (used by the tests
and the CLI).  One run has three stages:

1. **Per-file** — every discovered file is read, parsed, run through
   the per-file rules, and compiled to a
   :class:`~repro.analysis.static.callgraph.ModuleSummary`.  The raw
   outcome is cached on a content hash
   (:mod:`~repro.analysis.static.cache`), so unchanged files skip
   parsing entirely; with ``jobs > 1`` files fan out over a process
   pool.  Unreadable or syntactically-broken files become findings
   (``unreadable-file`` / ``parse-error``), never crashes.
2. **Whole-program** — the summaries link into a
   :class:`~repro.analysis.static.callgraph.SymbolTable` and the
   :class:`~repro.analysis.static.core.ProjectRule` subclasses run
   over it.
3. **Reporting** — ``# repro-ok`` pragma suppression is applied
   centrally (so it also covers whole-program findings produced from
   cached summaries), pragmas that suppressed nothing become
   ``unused-pragma`` notes (as do pragmas naming a rule that does not
   exist), findings are fingerprinted, and the baseline partitions
   new from accepted.

``changed_only``/``diff_ref`` narrow *reporting* to files touched per
git, while the summary/link stages still see the whole project — an
unlocked mutation in one file can break a lock contract declared in
another that did not change.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import ConfigurationError
from .baseline import Baseline, fingerprint_findings, normalize_path
from .cache import AnalysisCache, config_fingerprint, outcome_key
from .callgraph import (
    ModuleSummary,
    SymbolTable,
    extract_summary,
    module_name_for,
)
from .core import (
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    make_rules,
    rule_names as registered_rule_names,
    severity_rank,
)

#: Directory basenames never descended into during discovery.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist",
     ".mypy_cache", ".ruff_cache", "analysis_fixtures"}
)

#: Pseudo-rules the driver itself emits (not in the registry).
PARSE_ERROR_RULE = "parse-error"
UNREADABLE_RULE = "unreadable-file"
UNUSED_PRAGMA_RULE = "unused-pragma"


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths.

    A path that does not exist raises :class:`ConfigurationError`: a
    misspelled path in a CI gate must fail, not analyze nothing.
    """
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise ConfigurationError(
            f"no such file or directory: {', '.join(missing)}"
        )
    seen = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                collected.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in EXCLUDED_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if full not in seen:
                    seen.add(full)
                    collected.append(full)
    return iter(sorted(collected))


def git_changed_files(diff_ref: Optional[str] = None) -> Set[str]:
    """Paths changed per git, normalized like finding paths.

    With ``diff_ref``, files that differ from the merge base with that
    ref (``ref...HEAD``, falling back to a plain two-dot diff when no
    merge base exists, e.g. in shallow clones); always unioned with
    uncommitted changes and untracked files.  Raises ``ValueError``
    when git is unavailable — diff mode is meaningless there.
    """

    def run(*args: str) -> List[str]:
        proc = subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True
        )
        return [line.strip() for line in proc.stdout.splitlines()
                if line.strip()]

    try:
        top = run("rev-parse", "--show-toplevel")[0]
        names: List[str] = []
        if diff_ref is not None:
            try:
                names += run("diff", "--name-only", f"{diff_ref}...HEAD")
            except subprocess.CalledProcessError:
                names += run("diff", "--name-only", diff_ref)
        names += run("diff", "--name-only", "HEAD")
        names += run("ls-files", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError, IndexError) as exc:
        raise ValueError(
            f"cannot determine changed files from git: {exc}"
        ) from exc
    return {
        normalize_path(os.path.join(top, name)) for name in names
    }


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)   # new (not baselined)
    baselined: List[Finding] = field(default_factory=list)
    stale_fingerprints: List[str] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    files_analyzed: int = 0
    cache_hits: int = 0
    #: fingerprint pairs for *all* findings (for --write-baseline)
    all_pairs: List[Tuple[str, Finding]] = field(default_factory=list)

    def worst_rank(self) -> int:
        """Rank of the most severe new finding (-1 when clean)."""
        if not self.findings:
            return -1
        return max(severity_rank(f.severity) for f in self.findings)

    def fails(self, fail_on: str) -> bool:
        """Whether the run should gate given a ``--fail-on`` threshold."""
        if fail_on == "never":
            return False
        return self.worst_rank() >= severity_rank(fail_on)


def analyze_file(source: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """Run per-file rules over one parsed file, honoring pragmas.

    The single-file convenience entry point (rule unit tests, ad-hoc
    scripting); :func:`analyze_paths` applies suppression centrally
    instead so it also covers whole-program findings.
    """
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(source):
            if not source.suppressed(finding.line, finding.rule):
                findings.append(finding)
    return findings


def _raw_finding(finding: Finding, line_text: str) -> Dict[str, object]:
    return {
        "rule": finding.rule, "severity": finding.severity,
        "path": finding.path, "line": finding.line, "col": finding.col,
        "message": finding.message, "hint": finding.hint,
        "line_text": line_text,
    }


def _from_raw(raw: Dict[str, object], path: str) -> Finding:
    hint = raw.get("hint")
    return Finding(
        rule=str(raw["rule"]), severity=str(raw["severity"]), path=path,
        line=int(raw["line"]), col=int(raw["col"]),
        message=str(raw["message"]),
        hint=None if hint is None else str(hint),
    )


def analyze_one(
    path: str, config: str, cache_root: Optional[str]
) -> Dict[str, object]:
    """Per-file stage for one path (module-level: pool-submittable).

    Returns a JSON-able outcome: raw per-file findings (pragmas NOT
    yet applied) and the module summary, from cache when possible.
    """
    outcome: Dict[str, object] = {
        "path": path, "cached": False, "findings": [], "summary": None,
    }
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        outcome["findings"] = [_raw_finding(
            Finding(rule=UNREADABLE_RULE, severity="error", path=path,
                    line=1, col=0,
                    message=f"file cannot be read: {exc}"),
            "",
        )]
        return outcome

    cache = AnalysisCache(cache_root) if cache_root is not None else None
    # the key covers the resolved module name too: moving a file changes
    # how its symbols link even when its bytes do not
    key = outcome_key(f"{module_name_for(path)}\x00{text}", config)
    if cache is not None:
        payload = cache.probe(key)
        if payload is not None:
            payload["path"] = path
            payload["cached"] = True
            for raw in payload.get("findings", []):
                raw["path"] = path
            summary = payload.get("summary")
            if isinstance(summary, dict):
                summary["path"] = path
            return payload

    try:
        source = SourceFile(path, text)
    except (SyntaxError, ValueError) as exc:
        lineno = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 1
        message = getattr(exc, "msg", None) or str(exc)
        outcome["findings"] = [_raw_finding(
            Finding(rule=PARSE_ERROR_RULE, severity="error", path=path,
                    line=lineno, col=offset - 1,
                    message=f"file does not parse: {message}"),
            "",
        )]
    else:
        raw: List[Dict[str, object]] = []
        for rule in make_rules():
            if isinstance(rule, ProjectRule):
                continue
            for finding in rule.check(source):
                raw.append(
                    _raw_finding(finding, source.line_text(finding.line))
                )
        outcome["findings"] = raw
        outcome["summary"] = extract_summary(source).to_json()
    if cache is not None:
        cache.store(key, outcome)
    return outcome


def _run_per_file(
    files: List[str], config: str, cache_root: Optional[str],
    jobs: int,
) -> List[Dict[str, object]]:
    if jobs > 1 and len(files) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(
                    pool.map(
                        analyze_one, files,
                        [config] * len(files), [cache_root] * len(files),
                        chunksize=max(1, len(files) // (jobs * 4)),
                    )
                )
        except (OSError, ImportError):  # no semaphores / restricted env
            pass
    return [analyze_one(path, config, cache_root) for path in files]


def _project_findings(
    summaries: List[ModuleSummary], rules: Sequence[Rule]
) -> List[Finding]:
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if not project_rules or not summaries:
        return []
    table = SymbolTable(summaries)
    findings: List[Finding] = []
    for rule in project_rules:
        findings.extend(rule.check_project(table))
    return findings


def analyze_paths(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = False,
    changed_only: bool = False,
    diff_ref: Optional[str] = None,
) -> AnalysisResult:
    """Analyze files/directories and apply an optional baseline.

    ``use_cache`` turns on the content-addressed outcome cache (rooted
    at ``cache_dir`` or the default); ``jobs > 1`` fans the per-file
    stage over a process pool.  ``changed_only`` (or ``diff_ref``,
    which also diffs against a git ref) restricts *reported* findings
    to git-changed files while still linking the whole project.
    """
    rules = make_rules(rule_names)
    selected = {rule.name for rule in rules}
    result = AnalysisResult(rules=rules)

    changed: Optional[Set[str]] = None
    if changed_only or diff_ref is not None:
        changed = git_changed_files(diff_ref)

    config = config_fingerprint()
    cache_root = (cache_dir or AnalysisCache().root) if use_cache else None
    files = list(iter_python_files(paths))
    outcomes = _run_per_file(files, config, cache_root, jobs)
    result.files_analyzed = len(outcomes)
    result.cache_hits = sum(1 for o in outcomes if o.get("cached"))

    # collect line texts for fingerprinting (raw findings carry their
    # own; summaries carry anchors for whole-program findings)
    line_texts: Dict[Tuple[str, int], str] = {}
    pragma_maps: Dict[str, Dict[int, Optional[List[str]]]] = {}
    summaries: List[ModuleSummary] = []
    all_findings: List[Finding] = []
    for outcome in outcomes:
        path = str(outcome["path"])
        for raw in outcome.get("findings", []):  # type: ignore[union-attr]
            if raw["rule"] in selected or raw["rule"] in (
                PARSE_ERROR_RULE, UNREADABLE_RULE
            ):
                finding = _from_raw(raw, path)
                all_findings.append(finding)
                line_texts[(path, finding.line)] = str(
                    raw.get("line_text", "")
                )
        summary = outcome.get("summary")
        if isinstance(summary, dict):
            loaded = ModuleSummary.from_json(summary)
            summaries.append(loaded)
            pragma_maps[path] = loaded.pragmas
            for line, text in loaded.anchor_lines.items():
                line_texts.setdefault((path, line), text)

    all_findings.extend(_project_findings(summaries, rules))

    # central pragma suppression + unused-pragma notes
    used: Set[Tuple[str, int]] = set()
    used_rules: Set[Tuple[str, int, str]] = set()
    kept: List[Finding] = []
    for finding in all_findings:
        allowed = pragma_maps.get(finding.path, {}).get(finding.line, ())
        if allowed is None:
            used.add((finding.path, finding.line))
        elif allowed != () and finding.rule in allowed:
            # per-rule accounting: a multi-rule pragma (R2,R5) may
            # suppress one rule while the other never fires — the rot
            # scan then names only the unfired rule
            used_rules.add((finding.path, finding.line, finding.rule))
        else:
            kept.append(finding)
    full_run = rule_names is None
    known = set(registered_rule_names())
    for path, pragmas in sorted(pragma_maps.items()):
        for line, names in sorted(pragmas.items()):
            if names is None:
                if (path, line) in used or not full_run:
                    continue  # used, or a partial run proves nothing
                whats = ["suppresses no finding; remove it"]
            else:
                # a typo or a removed rule's alias suppresses nothing,
                # whichever rules ran
                whats = [
                    f"names unknown rule {name!r}; fix or remove it"
                    for name in sorted(set(names) - known)
                ]
                named = set(names) & known
                if named <= selected:  # else some named rules did not run
                    unfired = sorted(
                        name for name in named
                        if (path, line, name) not in used_rules
                    )
                    if unfired:
                        whats.append(
                            f"suppresses no {', '.join(unfired)} finding; "
                            "remove it"
                        )
            for what in whats:
                kept.append(Finding(
                    rule=UNUSED_PRAGMA_RULE, severity="note", path=path,
                    line=line, col=0,
                    message=f"'# repro-ok' pragma {what}",
                    hint="stale pragmas hide future regressions at this line",
                ))

    if changed is not None:
        kept = [
            finding for finding in kept
            if normalize_path(finding.path) in changed
        ]

    def line_lookup(path: str, line: int) -> str:
        return line_texts.get((path, line), "")

    result.all_pairs = fingerprint_findings(kept, line_lookup)
    if baseline is None:
        result.findings = [finding for _, finding in result.all_pairs]
    else:
        scope_files = set()
        scope_dirs = []
        for path in paths:
            if os.path.isdir(path):
                scope_dirs.append(normalize_path(path).rstrip("/") + "/")
            else:
                scope_files.add(normalize_path(path))

        def in_scope(entry_path: str) -> bool:
            entry_path = normalize_path(entry_path)
            if changed is not None and entry_path not in changed:
                return False
            return entry_path in scope_files or any(
                entry_path.startswith(prefix) for prefix in scope_dirs
            )

        result.findings, result.baselined, result.stale_fingerprints = (
            baseline.partition(result.all_pairs, in_scope=in_scope)
        )
    return result
