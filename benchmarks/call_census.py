"""Call census: which ``src/repro`` functions do the claims and workloads reach?

Runs, in one process and from a cold temporary cache, everything the
reproduction's results come from:

* ``run_all_experiments`` fast and full (the 21 claims of
  ``repro reproduce``), serially with ``jobs=1`` so that no figure
  runs in a forked worker the hook cannot see;
* the ``fig12-trace`` and ``campaign-sweep`` bodies of the end-to-end
  benchmark, imported from ``benchmarks/e2e/workloads.py``;
* the claim benches: ``pytest benchmarks --ignore=benchmarks/e2e
  --benchmark-disable``, run in-process.

A ``sys.setprofile`` hook records every Python code object entered.
Each function in ``src/repro`` then counts its own lines (a nested
function's lines belong to the nested function), and the script prints
per module the lines of functions no run entered, largest first,
followed by the names of those functions.  Code that only tests,
examples or the CLI reach shows up here.  Code that runs at import
time (a module-level ``obs.metrics().counter(...)``) is entered before
the hook is set, so the list names candidates, not verdicts.  Names
that only the traced iteration's hooks in ``benchmarks/e2e/layers.py``
read are listed as never entered but must stay:
``SyntheticWorkload.total_instructions`` and
``ReferenceFDSolver.surface_rise``.

Run:  python3 benchmarks/call_census.py   (no flags; ~35 s on a 2-core machine)
"""

import ast
import os
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

#: (file, first line) of a function, as its code object reports them
FunctionKey = Tuple[str, int]


def _run_everything(called: Set[FunctionKey]) -> None:
    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    import pytest

    from repro.experiments import report

    from benchmarks.e2e import workloads

    with tempfile.TemporaryDirectory() as scratch:
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            for fast in (True, False):
                # serial: the profile hook sees this process only
                report.run_all_experiments(fast=fast, jobs=1)
            for name in ("fig12-trace", "campaign-sweep"):
                cls = workloads.WORKLOADS[name]
                cls.warm(0)
                cls(0, scratch).run()
            exit_code = pytest.main([
                "-q", "-p", "no:cacheprovider", "--rootdir", REPO,
                os.path.join(REPO, "benchmarks"),
                "--ignore", os.path.join(HERE, "e2e"),
                "--benchmark-disable",
            ])
        finally:
            threading.setprofile(None)  # type: ignore[arg-type]
            sys.setprofile(None)
    if exit_code != 0:
        raise SystemExit(f"claim benches failed (pytest exit {exit_code})")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(function: ast.AST) -> int:
    """The line a function's code object starts at (its first decorator)."""
    return min([function.lineno]
               + [d.lineno for d in function.decorator_list])


def _collect(node: ast.AST, prefix: str,
             out: List[Tuple[int, str, int]]) -> int:
    """Append (first line, name, own lines) of each function below ``node``.

    Returns the lines spanned by the outermost functions found, which
    the enclosing function subtracts from its own.
    """
    covered = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS):
            first = _first_line(child)
            span = child.end_lineno - first + 1
            inner = _collect(child, f"{prefix}{child.name}.", out)
            out.append((first, prefix + child.name, span - inner))
            covered += span
        elif isinstance(child, ast.ClassDef):
            covered += _collect(child, f"{prefix}{child.name}.", out)
        else:
            covered += _collect(child, prefix, out)
    return covered


def census(called: Set[FunctionKey]) -> Dict[str, Tuple[int, int, List[str]]]:
    """module -> (never-called lines, function lines, never-called names)."""
    table = {}
    for root, _, files in os.walk(PACKAGE):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            functions: List[Tuple[int, str, int]] = []
            _collect(tree, "", functions)
            total = missed = 0
            names = []
            for first, name, own in functions:
                total += own
                if (path, first) not in called:
                    missed += own
                    names.append(f"{name} ({own})")
            if total:
                table[os.path.relpath(path, SRC)] = (missed, total, names)
    return table


def main() -> int:
    sys.path[:0] = [SRC, REPO]
    called: Set[FunctionKey] = set()
    with tempfile.TemporaryDirectory() as store:
        os.environ["REPRO_CACHE_DIR"] = store
        _run_everything(called)
    table = census(called)

    by_missed = sorted(table.items(), key=lambda kv: (-kv[1][0], kv[0]))
    missed_total = sum(row[0] for row in table.values())
    lines_total = sum(row[1] for row in table.values())
    print(f"{'module':48s} {'never called':>12s} {'of':>6s}")
    for module, (missed, total, _) in by_missed:
        if missed:
            print(f"{module:48s} {missed:12d} {total:6d}")
    print(f"{'total':48s} {missed_total:12d} {lines_total:6d}")
    for module, (missed, _, names) in by_missed:
        if missed:
            print(f"\n{module}:")
            print("\n".join(f"  {name}" for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
