"""Module summaries and the project-wide symbol table.

The whole-program pass never holds more than one AST at a time:
:func:`extract_summary` compiles a parsed file down to a
:class:`ModuleSummary` — functions with their call sites, lock
acquisitions and attribute mutations (each carrying the locks held at
that point), class-body ``guarded_by`` contracts, import aliases, and
pragma lines — and the summary is what gets cached per content hash
and re-loaded on warm runs.  :class:`SymbolTable` links summaries
together, resolving imports and ``from x import y`` re-export aliases
to fully-qualified names; it is the project the lock-discipline rule
checks.

Module names are derived structurally: a file's dotted name is built
by walking parent directories for as long as they contain an
``__init__.py``, so ``src/repro/obs/events.py`` becomes
``repro.obs.events`` without any configuration, and fixture packages
resolve the same way under ``tests/``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .core import SourceFile, iter_functions

#: Method names whose call on a container mutates it in place.
MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault",
     "pop", "popitem", "remove", "discard", "clear"}
)

_SUMMARY_VERSION = 4


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    callee: str                      # dotted name as written ("self._job")
    locks: List[str] = field(default_factory=list)  # locks held at the call


@dataclass
class LockSite:
    """One lock acquisition (``with <lock-ish>:``) inside a function.

    A ``with`` item counts as a lock acquisition when the last
    component of its context expression's dotted name contains
    ``lock`` — ``self._lock``, ``self._counters_lock()``, a bare
    ``lock``.  Lock identity is that last component: the analyzer
    unifies lock names project-wide.
    """

    line: int
    col: int
    name: str                        # lock identity ("_lock")
    base: str                        # dotted expr as written ("self._lock")
    held: List[str] = field(default_factory=list)  # locks already held


@dataclass
class AttrUse:
    """One mutation of an attribute (``x.a = ...``, ``x.a += ...``,
    ``x.a[k] = ...``, ``x.a.append(...)``), with the locks held."""

    line: int
    col: int
    attr: str                        # attribute name ("_subscribers")
    base: str                        # receiver expr ("self", "ring")
    kind: str                        # "assign"|"augassign"|"subscript"|"method"
    locks: List[str] = field(default_factory=list)  # locks held at the site
    detail: str = ""


@dataclass
class FunctionSummary:
    """Everything the whole-program pass needs about one function."""

    qualname: str
    line: int
    col: int
    calls: List[CallSite] = field(default_factory=list)
    acquires: List[LockSite] = field(default_factory=list)
    attr_uses: List[AttrUse] = field(default_factory=list)
    is_method: bool = False
    is_nested: bool = False

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data["line"]),
            col=int(data["col"]),
            calls=[CallSite(**c) for c in data["calls"]],
            acquires=[LockSite(**s) for s in data["acquires"]],
            attr_uses=[AttrUse(**u) for u in data["attr_uses"]],
            is_method=bool(data["is_method"]),
            is_nested=bool(data["is_nested"]),
        )


@dataclass
class ModuleSummary:
    """The cacheable whole-program view of one source file."""

    path: str
    module: Optional[str]
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: attr name -> lock names, from ``Annotated[..., guarded_by(...)]``
    #: class-body declarations (explicit R12 contracts)
    guarded_attrs: Dict[str, List[str]] = field(default_factory=dict)
    #: pragma line -> suppressed canonical rule names (None = all)
    pragmas: Dict[int, Optional[List[str]]] = field(default_factory=dict)
    #: stripped text of lines findings may anchor to (fingerprinting)
    anchor_lines: Dict[int, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "version": _SUMMARY_VERSION,
            "path": self.path, "module": self.module,
            "imports": self.imports,
            "functions": {name: fn.to_json()
                          for name, fn in self.functions.items()},
            "guarded_attrs": self.guarded_attrs,
            "pragmas": {str(line): rules
                        for line, rules in self.pragmas.items()},
            "anchor_lines": {str(line): text
                             for line, text in self.anchor_lines.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=str(data["path"]),
            module=data["module"],
            imports=dict(data["imports"]),
            functions={
                name: FunctionSummary.from_json(fn)
                for name, fn in data["functions"].items()
            },
            guarded_attrs=dict(data["guarded_attrs"]),
            pragmas={
                int(line): rules for line, rules in data["pragmas"].items()
            },
            anchor_lines={
                int(line): text
                for line, text in data["anchor_lines"].items()
            },
        )


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name by walking up through ``__init__.py`` parents."""
    path = os.path.abspath(path)
    base = os.path.basename(path)
    if not base.endswith(".py"):
        return None
    parts: List[str] = []
    if base != "__init__.py":
        parts.append(base[: -len(".py")])
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    if not parts:
        return None
    return ".".join(reversed(parts))


def _resolve_relative(module: Optional[str], level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute form of a ``from ...x import y`` module reference."""
    if level == 0:
        return target
    if module is None:
        return None
    parts = module.split(".")
    if level > len(parts):
        return None
    base = parts[: len(parts) - level]
    if target:
        base.append(target)
    return ".".join(base) if base else None


def _annotated_metadata(node: Optional[ast.expr]) -> List[ast.Call]:
    """The metadata Call elements of an ``Annotated[...]`` expression."""
    if not isinstance(node, ast.Subscript):
        return []
    base = node.value
    base_name = base.attr if isinstance(base, ast.Attribute) else (
        base.id if isinstance(base, ast.Name) else None
    )
    if base_name != "Annotated":
        return []
    inner = node.slice
    elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    return [element for element in elements if isinstance(element, ast.Call)]


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _guarded_attrs(tree: ast.Module) -> Dict[str, List[str]]:
    """Explicit guarded-attribute contracts from class-body
    ``attr: Annotated[..., units.guarded_by("_lock")]`` declarations."""
    guarded: Dict[str, List[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            for element in _annotated_metadata(stmt.annotation):
                func = element.func
                func_name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if func_name != "guarded_by":
                    continue
                locks = [
                    arg.value for arg in element.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                ]
                if not locks:
                    continue
                merged = set(guarded.get(stmt.target.id, ())) | set(locks)
                guarded[stmt.target.id] = sorted(merged)
    return guarded


def _imports(tree: ast.Module, module: Optional[str]) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            target_module = _resolve_relative(module, node.level, node.module)
            if target_module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{target_module}.{alias.name}"
    return table


class _FunctionExtractor:
    """Walks one function body collecting calls, lock acquisitions and
    attribute mutations, each with the locks held at that point."""

    def __init__(self, node) -> None:
        self.node = node
        self.calls: List[CallSite] = []
        self.acquires: List[LockSite] = []
        self.attr_uses: List[AttrUse] = []
        self._held: List[str] = []  # lock-acquisition stack during the walk

    def run(self) -> None:
        self._walk_body(self.node.body)

    def _walk_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            self._visit_stmt(stmt)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                # thread the lock context through the body so every
                # call / attribute-mutation site knows what is held
                acquired = self._record_acquires(stmt)
                self._held.extend(acquired)
                self._walk_body(stmt.body)
                if acquired:
                    del self._held[-len(acquired):]
            else:
                for child_body in _nested_bodies(stmt):
                    self._walk_body(child_body)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        for node in _shallow_walk(stmt):
            if isinstance(node, ast.Call):
                self._record_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._mutation_target(target, "assign")
            elif isinstance(node, ast.AugAssign):
                self._mutation_target(node.target, "augassign")

    def _record_acquires(self, stmt) -> List[str]:
        """Lock names acquired by one ``with`` statement's items."""
        acquired: List[str] = []
        for item in stmt.items:
            expr = item.context_expr
            target = expr.func if isinstance(expr, ast.Call) else expr
            dotted = _dotted(target)
            if dotted is None:
                continue
            name = dotted.split(".")[-1]
            if "lock" not in name.lower():
                continue
            self.acquires.append(
                LockSite(line=expr.lineno, col=expr.col_offset,
                         name=name, base=dotted, held=list(self._held))
            )
            acquired.append(name)
        return acquired

    def _record_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self.calls.append(
                CallSite(line=node.lineno, col=node.col_offset,
                         callee=dotted, locks=list(self._held))
            )
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
        ):
            self._attr_use(func.value, "method", f".{func.attr}()")

    def _mutation_target(self, target: ast.expr, how: str) -> None:
        if isinstance(target, ast.Attribute):
            self._attr_use(target, how)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            self._attr_use(target.value, "subscript", "[...]")
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                self._mutation_target(element, how)

    def _attr_use(self, node: ast.Attribute, kind: str,
                  detail: str = "") -> None:
        """Record a mutation of ``<base>.<attr>`` with the held locks."""
        base = _dotted(node.value)
        if base is None:
            return
        if "lock" in node.attr.lower():
            return  # the lock object itself is not guarded state
        self.attr_uses.append(
            AttrUse(line=node.lineno, col=node.col_offset,
                    attr=node.attr, base=base, kind=kind,
                    locks=list(self._held), detail=detail)
        )


def _nested_bodies(stmt: ast.stmt):
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(stmt, attr, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(stmt, "handlers", []):
        yield handler.body


def _shallow_walk(stmt: ast.stmt):
    """Nodes of one statement, not descending into nested statements/defs."""
    yield stmt
    stack = [
        child for child in ast.iter_child_nodes(stmt)
        if not isinstance(child, (ast.stmt, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.ClassDef))
    ]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.stmt, ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef))
        )


def extract_summary(source: SourceFile) -> ModuleSummary:
    """Compile one parsed file into its cacheable module summary."""
    module = module_name_for(source.path)
    summary = ModuleSummary(
        path=source.path,
        module=module,
        imports=_imports(source.tree, module),
        guarded_attrs=_guarded_attrs(source.tree),
        pragmas={
            line: (None if rules is None else sorted(rules))
            for line, rules in source.pragma_map().items()
        },
    )
    anchor_lines: Set[int] = set(summary.pragmas)
    for info in iter_functions(source.tree):
        extractor = _FunctionExtractor(info.node)
        extractor.run()
        function = FunctionSummary(
            qualname=info.qualname,
            line=info.node.lineno,
            col=info.node.col_offset,
            calls=extractor.calls,
            acquires=extractor.acquires,
            attr_uses=extractor.attr_uses,
            is_method=info.parent_class is not None,
            is_nested=info.parent_function is not None,
        )
        summary.functions[info.qualname] = function
        anchor_lines.update(s.line for s in function.acquires)
        anchor_lines.update(u.line for u in function.attr_uses)
    summary.anchor_lines = {
        line: source.line_text(line).strip() for line in sorted(anchor_lines)
    }
    return summary


class SymbolTable:
    """Fully-qualified function lookup across every analyzed module."""

    def __init__(self, summaries: List[ModuleSummary]) -> None:
        self.summaries = summaries
        #: fqn -> (module summary, function summary)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = {}
        #: fqn alias -> fqn target (from ``from x import y`` statements)
        self.aliases: Dict[str, str] = {}
        for summary in summaries:
            if summary.module is None:
                continue
            for qualname, function in summary.functions.items():
                if function.is_nested:
                    continue
                self.functions[f"{summary.module}.{qualname}"] = (
                    summary, function
                )
            for local, target in summary.imports.items():
                self.aliases[f"{summary.module}.{local}"] = target

    def resolve(self, module: ModuleSummary,
                dotted: str) -> Optional[str]:
        """Fully-qualified name a dotted reference points at, or None."""
        candidates: List[str] = []
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            target = module.imports[head]
            candidates.append(f"{target}.{rest}" if rest else target)
        if module.module is not None:
            candidates.append(f"{module.module}.{dotted}")
        candidates.append(dotted)
        for candidate in candidates:
            resolved = self._follow(candidate)
            if resolved is not None:
                return resolved
        return None

    def _follow(self, candidate: str) -> Optional[str]:
        for _ in range(10):
            if candidate in self.functions:
                return candidate
            if candidate in self.aliases:
                candidate = self.aliases[candidate]
                continue
            return None
        return None

    def lookup(self, fqn: str) -> Optional[FunctionSummary]:
        entry = self.functions.get(fqn)
        return entry[1] if entry is not None else None
