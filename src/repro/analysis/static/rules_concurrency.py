"""Rule: lock discipline (R12), the analyzer's one whole-program rule.

The campaign runtime is genuinely concurrent — a process pool, an
flock-guarded counter file, a registry-wide metrics lock, progress
state read by renderers.  R12 rides
the lock-aware extraction in :mod:`.callgraph`: per-function
:class:`~.callgraph.LockSite` and :class:`~.callgraph.AttrUse` records
plus the lock context threaded through every call site.

The model, built once per analysis over the project's
:class:`~.callgraph.SymbolTable`:

* **guarded-attribute map** — attr name -> protecting lock name(s).
  Sources: explicit class-body ``Annotated[..., units.guarded_by(...)]``
  declarations, unioned with *inference*: an attribute mutated under the
  same lock in two or more distinct functions project-wide is taken to
  be guarded by that lock.  Names are rigid symbols project-wide, so
  only distinctively-named attributes should carry explicit contracts.
* **held-lock contexts** — an interprocedural fixpoint assigning each
  *private* function the set of locks every known caller provably
  holds at the call site (``CampaignProgress._job`` mutates state on
  behalf of callers that already hold ``_lock``; flagging it would be a
  false positive).
* **acquisition-order graph** — edge A->B when B is acquired while A is
  held (lexically or via the held context); an A->B plus B->A pair is a
  deadlock-potential warning.

R12 deliberately checks **mutations only**: the codebase uses
intentional lock-free fast reads (``Counter.value``, ``Tracer.enabled``)
whose staleness is bounded and harmless, while a torn read-modify-write
always shows up as an assign/augassign/method mutation site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import SymbolTable
from .core import Finding, ProjectRule, register

#: Functions whose unguarded attribute writes are structural, not racy:
#: construction and context-manager lifecycle run before the object is
#: shared (or while the caller owns it exclusively).
_EXEMPT_FUNCTIONS = frozenset(
    {"__init__", "__new__", "__post_init__", "__enter__", "__exit__",
     "__del__"}
)

_MAX_PASSES = 10


def _leaf(qualname: str) -> str:
    return qualname.split(".")[-1]


def _is_private_helper(qualname: str) -> bool:
    leaf = _leaf(qualname)
    return leaf.startswith("_") and not leaf.startswith("__")


@dataclass
class ConcurrencyInfo:
    """The whole-program lock model R12 checks against."""

    #: attr name -> lock names that protect it
    guards: Dict[str, Set[str]] = field(default_factory=dict)
    #: attrs whose contract is an explicit ``guarded_by`` annotation
    explicit: Set[str] = field(default_factory=set)
    #: fqn -> locks every known caller holds at every call site
    held_context: Dict[str, Set[str]] = field(default_factory=dict)
    #: ordered lock pairs (a, b): b acquired while a held, with one
    #: witness site (path, line, col, fqn) per pair
    order_edges: Dict[Tuple[str, str], Tuple[str, int, int, str]] = field(
        default_factory=dict
    )


def concurrency_info(table: SymbolTable) -> ConcurrencyInfo:
    """Build the guard map, held contexts, and order graph."""
    info = ConcurrencyInfo()

    # -- guarded-attribute map: explicit contracts first ---------------
    for summary in table.summaries:
        for attr, locks in summary.guarded_attrs.items():
            info.guards.setdefault(attr, set()).update(locks)
            info.explicit.add(attr)

    # -- inference: same lock protecting the same attr in >= 2 funcs --
    writers: Dict[Tuple[str, str], Set[str]] = {}
    for summary in table.summaries:
        if summary.module is None:
            continue
        for qualname, function in summary.functions.items():
            if _leaf(qualname) in _EXEMPT_FUNCTIONS:
                continue
            fqn = f"{summary.module}.{qualname}"
            for use in function.attr_uses:
                for lock in use.locks:
                    writers.setdefault((use.attr, lock), set()).add(fqn)
    for (attr, lock), fqns in writers.items():
        if attr in info.explicit:
            continue
        if len(fqns) >= 2:
            info.guards.setdefault(attr, set()).add(lock)

    # -- held-lock contexts (private helpers only) ---------------------
    callers: Dict[str, List[Tuple[str, Set[str]]]] = {}
    universe: Set[str] = set()
    for summary in table.summaries:
        if summary.module is None:
            continue
        for qualname, function in summary.functions.items():
            caller = f"{summary.module}.{qualname}"
            for site in function.acquires:
                universe.add(site.name)
            for call in function.calls:
                target: Optional[str] = None
                if call.callee.startswith("self.") and function.is_method:
                    cls = qualname.rsplit(".", 1)[0] if "." in qualname else ""
                    candidate = f"{summary.module}.{cls}.{call.callee[5:]}"
                    if candidate in table.functions:
                        target = candidate
                if target is None:
                    target = table.resolve(summary, call.callee)
                if target is None:
                    continue
                callers.setdefault(target, []).append(
                    (caller, set(call.locks))
                )
    held: Dict[str, Set[str]] = {}
    for fqn in table.functions:
        function = table.lookup(fqn)
        if (
            function is not None
            and _is_private_helper(fqn)
            and callers.get(fqn)
        ):
            held[fqn] = set(universe)  # optimistic top, narrowed below
    for _ in range(_MAX_PASSES):
        changed = False
        for fqn in held:
            new: Optional[Set[str]] = None
            for caller, locks in callers[fqn]:
                at_call = locks | held.get(caller, set())
                new = set(at_call) if new is None else (new & at_call)
            new = new or set()
            if new != held[fqn]:
                held[fqn] = new
                changed = True
        if not changed:
            break
    info.held_context = held

    # -- acquisition-order graph ---------------------------------------
    for summary in table.summaries:
        if summary.module is None:
            continue
        for qualname, function in summary.functions.items():
            fqn = f"{summary.module}.{qualname}"
            context = info.held_context.get(fqn, set())
            for site in function.acquires:
                for prior in set(site.held) | context:
                    if prior == site.name:
                        continue
                    info.order_edges.setdefault(
                        (prior, site.name),
                        (summary.path, site.line, site.col, fqn),
                    )

    return info


@register
class LockDisciplineRule(ProjectRule):
    """Flag mutations of lock-guarded attributes outside their lock,
    and inconsistent lock-acquisition order (deadlock potential)."""

    name = "lock-discipline"
    severity = "warning"
    description = (
        "An attribute protected by a lock (declared via "
        "units.guarded_by or inferred from consistent locking) is "
        "mutated without that lock held, or two locks are acquired in "
        "both orders (deadlock potential)."
    )

    def check_project(self, table: SymbolTable) -> Iterator[Finding]:
        info = concurrency_info(table)
        seen: Set[Tuple[str, int, str]] = set()
        for summary in table.summaries:
            if summary.module is None:
                continue
            for qualname, function in summary.functions.items():
                if _leaf(qualname) in _EXEMPT_FUNCTIONS:
                    continue
                fqn = f"{summary.module}.{qualname}"
                context = info.held_context.get(fqn, set())
                for use in function.attr_uses:
                    guards = info.guards.get(use.attr)
                    if not guards:
                        continue
                    if (set(use.locks) | context) & guards:
                        continue
                    key = (summary.path, use.line, use.attr)
                    if key in seen:
                        continue
                    seen.add(key)
                    lock_list = "/".join(sorted(guards))
                    how = {
                        "assign": "assigns",
                        "augassign": "read-modify-writes",
                        "subscript": "writes into",
                        "method": "mutates",
                    }.get(use.kind, "mutates")
                    contract = (
                        "declared guarded_by"
                        if use.attr in info.explicit
                        else "consistently guarded elsewhere"
                    )
                    yield self.project_finding(
                        path=summary.path,
                        line=use.line,
                        col=use.col,
                        message=(
                            f"{function.qualname}() {how} "
                            f"{use.base}.{use.attr}{use.detail} without "
                            f"holding {lock_list} ({contract}); a "
                            "concurrent holder can interleave and tear "
                            "the update"
                        ),
                        hint=(
                            f"wrap the mutation in `with "
                            f"self.{sorted(guards)[0]}:` or go through "
                            "the locking accessor"
                        ),
                        severity=(
                            "error" if use.attr in info.explicit
                            else "warning"
                        ),
                    )
        reported: Set[Tuple[str, str]] = set()
        for (first, second), witness in sorted(info.order_edges.items()):
            if (second, first) not in info.order_edges:
                continue
            pair = tuple(sorted((first, second)))
            if pair in reported:
                continue
            reported.add(pair)
            path, line, col, fqn = witness
            other = info.order_edges[(second, first)]
            yield self.project_finding(
                path=path,
                line=line,
                col=col,
                message=(
                    f"{fqn} acquires {second} while holding {first}, "
                    f"but {other[3]} (at {other[0]}:{other[1]}) acquires "
                    "them in the opposite order; two threads can "
                    "deadlock"
                ),
                hint=(
                    "pick one global acquisition order for "
                    f"{pair[0]} and {pair[1]} and use it everywhere"
                ),
            )
