"""Core of the physics-aware static analyzer.

The analyzer is a thin AST framework: a :class:`SourceFile` wraps one
parsed module, a :class:`Rule` inspects it and yields
:class:`Finding` objects, and a registry collects the rules shipped in
the sibling ``rules_*`` modules.  Everything is stdlib-``ast`` based so
the checker runs anywhere the package imports, with no third-party
linting toolchain.

Suppression: a finding is discarded when the physical line it points at
carries a ``# repro-ok: <rule>`` pragma (comma-separated rule names, or
a bare ``# repro-ok`` to silence every rule on that line).  Pragmas are
the allowlist mechanism the rules refer to — e.g. marking a float
equality as an intentional exact-sentinel comparison.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type,
)

if TYPE_CHECKING:
    from .callgraph import SymbolTable

#: Severity names, ordered from least to most severe.
SEVERITIES = ("note", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

_PRAGMA_RE = re.compile(r"#\s*repro-ok(?::\s*(?P<rules>[\w\s,-]+))?")

#: Short ``R<n>`` aliases for the rule names, usable in ``--rules`` and
#: in pragmas (``repro-ok: R2,R5``).  The numbering matches the
#: DESIGN.md rule catalogue and is stable across releases: numbers of
#: removed rules are never reused.
RULE_ALIASES: Dict[str, str] = {
    "R1": "unit-consistency",
    "R2": "cache-invalidation",
    "R3": "hash-determinism",
    "R4": "pickle-safety",
    "R5": "float-equality",
    "R8": "obs-taxonomy",
    "R12": "lock-discipline",
}


def canonical_rule_name(name: str) -> str:
    """Resolve an ``R<n>`` alias to its rule name (others pass through)."""
    return RULE_ALIASES.get(name.upper(), name)


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (higher = more severe)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    ``line``/``col`` are 1-based line and 0-based column, matching the
    CPython AST convention; ``hint`` is an optional fix-it suggestion
    shown alongside the message.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering: by file, position, then rule."""
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        """``path:line:col`` reference string."""
        return f"{self.path}:{self.line}:{self.col}"


class SourceFile:
    """One Python source file plus its parse tree and pragma map."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=path)
        self._pragmas: Dict[int, Optional[Set[str]]] = self._scan_pragmas()

    @classmethod
    def from_path(cls, path: str) -> "SourceFile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(path, handle.read())

    def _scan_pragmas(self) -> Dict[int, Optional[Set[str]]]:
        """Map line number -> suppressed rule names (None = all rules).

        Only genuine ``#`` comments count: docstrings and string
        literals that merely *mention* a pragma (rule documentation,
        fixture snippets, report messages) must neither suppress
        findings nor trip the unused-pragma check, so the scan walks
        tokenizer COMMENT tokens rather than raw line text.
        """
        pragmas: Dict[int, Optional[Set[str]]] = {}
        if "repro-ok" not in self.text:
            return pragmas
        import io
        import tokenize

        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return pragmas
        for token in tokens:
            if token.type != tokenize.COMMENT or "repro-ok" not in token.string:
                continue
            match = _PRAGMA_RE.search(token.string)
            if not match:
                continue
            names = match.group("rules")
            if names is None:
                pragmas[token.start[0]] = None
            else:
                pragmas[token.start[0]] = {
                    canonical_rule_name(name.strip())
                    for name in names.split(",")
                    if name.strip()
                }
        return pragmas

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether a ``# repro-ok`` pragma silences ``rule`` on ``line``."""
        if line not in self._pragmas:
            return False
        allowed = self._pragmas[line]
        return allowed is None or rule in allowed

    def pragma_map(self) -> Dict[int, Optional[Set[str]]]:
        """Line -> suppressed rule names (``None`` = every rule).

        Rule names are canonical (``R<n>`` aliases already resolved).
        The runner uses this to apply suppression centrally — including
        to whole-program findings produced long after the file was
        parsed (possibly from a cached summary) — and to report pragmas
        that no longer suppress anything.
        """
        return dict(self._pragmas)

    def line_text(self, line: int) -> str:
        """The text of a 1-based physical line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass
class FunctionInfo:
    """A function definition with its enclosing context."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    parent_class: Optional[ast.ClassDef] = None
    parent_function: Optional[ast.AST] = None


def iter_functions(tree: ast.Module) -> Iterator[FunctionInfo]:
    """Yield every function in the module with class/function context.

    Functions nested anywhere (inside classes, other functions, or
    compound statements) are visited; ``qualname`` mirrors Python's
    ``__qualname__`` convention.
    """

    def walk(
        node: ast.AST,
        prefix: str,
        parent_class: Optional[ast.ClassDef],
        parent_function: Optional[ast.AST],
    ) -> Iterator[FunctionInfo]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield FunctionInfo(child, qualname, parent_class, parent_function)
                yield from walk(
                    child, f"{qualname}.<locals>.", parent_class, child
                )
            elif isinstance(child, ast.ClassDef):
                yield from walk(
                    child, f"{prefix}{child.name}.", child, parent_function
                )
            else:
                yield from walk(child, prefix, parent_class, parent_function)

    return walk(tree, "", None, None)


class Rule:
    """Base class for analyzer rules.

    Subclasses set ``name`` (the stable rule id used in output,
    baselines, and pragmas), ``severity`` (default severity of their
    findings) and ``description`` (one line, shown by ``--list-rules``
    and embedded in SARIF output), and implement :meth:`check`.
    """

    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one source file."""
        raise NotImplementedError

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.name,
            severity=severity or self.severity,
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Where a plain :class:`Rule` sees one :class:`SourceFile` at a time,
    a project rule runs once per analysis over the
    :class:`~repro.analysis.static.callgraph.SymbolTable` linking the
    module summaries of every analyzed file, and may anchor findings
    in any of them.  Subclasses implement :meth:`check_project`;
    :meth:`check` is a no-op so project rules compose with the
    per-file driver.
    """

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, table: "SymbolTable") -> Iterator[Finding]:
        """Yield findings over the whole analyzed project."""
        raise NotImplementedError

    def project_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at an explicit location."""
        return Finding(
            rule=self.name,
            severity=severity or self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            hint=hint,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_names() -> List[str]:
    """Names of every registered rule, sorted."""
    _load_rule_modules()
    return sorted(_REGISTRY)


def make_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate registered rules (all of them, or a named subset)."""
    _load_rule_modules()
    if names is None:
        selected = sorted(_REGISTRY)
    else:
        selected = [canonical_rule_name(name) for name in names]
        unknown = [name for name in selected if name not in _REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; available: {sorted(_REGISTRY)}"
            )
    return [_REGISTRY[name]() for name in selected]


def _load_rule_modules() -> None:
    """Import the rules_* modules so their ``@register`` calls run."""
    from . import (  # noqa: F401  (imported for registration side effect)
        rules_cache,
        rules_concurrency,
        rules_determinism,
        rules_float,
        rules_obs,
        rules_pickle,
        rules_units,
    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def expr_source(node: ast.AST) -> str:
    """Best-effort source text of an expression (for base matching)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is exotic
        return f"<expr@{getattr(node, 'lineno', '?')}>"
