"""Tests for the physics-aware static analyzer (repro.analysis.static).

Each rule gets at least one positive and one negative fixture under
``tests/analysis_fixtures/``; on top of that: dimension-algebra unit
tests, pragma suppression (including R-aliases, unused-pragma notes
and unknown rule names), the whole-program layer (symbol table, the
seeded cross-module lock race), the analysis cache, parallel and
git-diff modes, baseline round-trip/staleness, golden JSON + SARIF
output, the CLI surface, the seeded stale-factor regression, the rule
catalogue, and the self-check that ``src/`` is clean against the
committed baseline.
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis.static import (
    Baseline,
    RULE_ALIASES,
    SourceFile,
    SymbolTable,
    analyze_file,
    analyze_paths,
    canonical_rule_name,
    extract_summary,
    format_json,
    format_sarif,
    format_text,
    iter_python_files,
    make_rules,
    parse_dimension,
    rule_names,
)
from repro.analysis.static.dimensions import DIMENSIONLESS, DimensionError
from repro.cli import main as cli_main
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def analyze_fixture(name, rules=None):
    source = SourceFile.from_path(str(FIXTURES / name))
    return analyze_file(source, make_rules(rules))


def rules_fired(findings):
    return {finding.rule for finding in findings}


# --- dimension algebra ------------------------------------------------------


def test_derived_units_expand_to_base_units():
    assert parse_dimension("W") == parse_dimension("kg*m^2/s^3")
    assert parse_dimension("W/(m*K)") == parse_dimension("kg*m/(s^3*K)")
    assert parse_dimension("J/(kg*K)") == parse_dimension("m^2/(s^2*K)")


def test_dimension_arithmetic():
    watts = parse_dimension("W")
    kelvin = parse_dimension("K")
    assert watts / watts == DIMENSIONLESS
    assert (watts / kelvin) * kelvin == watts
    assert parse_dimension("m") ** 2 == parse_dimension("m^2")
    assert str(parse_dimension("W/K")) == "kg*m^2/(s^3*K)"


def test_dimension_parse_errors():
    with pytest.raises(DimensionError):
        parse_dimension("furlongs")
    with pytest.raises(DimensionError):
        parse_dimension("W/(m*K")
    with pytest.raises(DimensionError):
        parse_dimension("m^x")


def test_units_tables_parse():
    from repro import units

    for table in (units.DIMENSIONS, units.ATTRIBUTE_DIMENSIONS):
        for name, text in table.items():
            parse_dimension(text)  # must not raise


# --- R1: unit consistency ---------------------------------------------------


def test_r1_positive_fixture():
    findings = analyze_fixture("r1_unit_positive.py", ["unit-consistency"])
    assert len(findings) >= 4
    messages = " | ".join(f.message for f in findings)
    assert "dimension mismatch" in messages
    assert "comparing incompatible dimensions" in messages
    assert "magic number 751.1" in messages


def test_r1_negative_fixture():
    assert analyze_fixture("r1_unit_negative.py", ["unit-consistency"]) == []


def test_r1_magic_constant_severity_is_warning():
    findings = analyze_fixture("r1_unit_positive.py", ["unit-consistency"])
    magic = [f for f in findings if "magic number" in f.message]
    assert magic and all(f.severity == "warning" for f in magic)
    assert all("repro.materials" in (f.hint or "") for f in magic)


# --- R2: cache invalidation -------------------------------------------------


def test_r2_positive_fixture():
    findings = analyze_fixture("r2_cache_positive.py", ["cache-invalidation"])
    assert len(findings) == 4
    assert all(f.severity == "error" for f in findings)
    assert any("net.ambient_conductance" in f.message for f in findings)
    assert any("model.network.capacitance" in f.message for f in findings)


def test_r2_negative_fixture():
    assert analyze_fixture("r2_cache_negative.py", ["cache-invalidation"]) == []


def test_r2_catches_seeded_pr1_regression():
    """Re-introducing the PR-1 mutate-without-invalidate bug is caught."""
    findings = analyze_fixture("r2_regression_pr1.py", ["cache-invalidation"])
    assert len(findings) == 1
    assert "ambient_conductance" in findings[0].message
    assert "invalidate()" in findings[0].message


# --- R3: hash determinism ---------------------------------------------------


def test_r3_positive_fixture():
    findings = analyze_fixture("r3_hash_positive.py", ["hash-determinism"])
    messages = " | ".join(f.message for f in findings)
    assert "time.time()" in messages
    assert "iteration over a set" in messages
    assert "id()" in messages
    assert "sort_keys" in messages
    # json.dumps inside fingerprint code is an error, outside a warning
    dumps = [f for f in findings if "sort_keys" in f.message]
    assert {f.severity for f in dumps} == {"error", "warning"}


def test_r3_negative_fixture():
    assert analyze_fixture("r3_hash_negative.py", ["hash-determinism"]) == []


# --- R4: pickle safety ------------------------------------------------------


def test_r4_positive_fixture():
    findings = analyze_fixture("r4_pickle_positive.py", ["pickle-safety"])
    messages = " | ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "local_worker" in messages
    assert "shared_registry" in messages


def test_r4_negative_fixture():
    assert analyze_fixture("r4_pickle_negative.py", ["pickle-safety"]) == []


# --- R5: float equality -----------------------------------------------------


def test_r5_positive_fixture():
    findings = analyze_fixture("r5_float_positive.py", ["float-equality"])
    assert len(findings) == 3
    assert all(f.severity == "error" for f in findings)


def test_r5_negative_fixture():
    assert analyze_fixture("r5_float_negative.py", ["float-equality"]) == []


def test_pragma_suppresses_only_named_rule():
    code = (
        "def f(x, net):\n"
        "    a = x == 1.5  # repro-ok: float-equality\n"
        "    b = x == 2.5  # repro-ok: cache-invalidation\n"
        "    c = x == 3.5  # repro-ok\n"
        "    return a, b, c\n"
    )
    source = SourceFile("snippet.py", code)
    findings = analyze_file(source, make_rules(["float-equality"]))
    assert [f.line for f in findings] == [3]


# --- R8: observability taxonomy ---------------------------------------------


def test_r8_positive_fixture():
    source = SourceFile.from_path(
        str(FIXTURES / "obs_proj" / "repro" / "instrumented_bad.py")
    )
    findings = analyze_file(source, make_rules(["obs-taxonomy"]))
    assert len(findings) == 4
    messages = " | ".join(f.message for f in findings)
    assert "'solver.steady.solve_count'" in messages  # the misspelling
    assert "'solver.steady.solvee'" in messages
    assert "outside a with-statement" in messages
    assert "dynamic metric name" in messages
    errors = [f for f in findings if f.severity == "error"]
    assert len(errors) == 2  # unknown names; the structural two warn


def test_r8_negative_fixture():
    source = SourceFile.from_path(
        str(FIXTURES / "obs_proj" / "repro" / "instrumented_ok.py")
    )
    assert analyze_file(source, make_rules(["obs-taxonomy"])) == []


def test_r8_flags_misnamed_analytic_and_triage_instrumentation():
    """Near-misses of the solver.analytic/campaign.triage names fail."""
    source = SourceFile.from_path(
        str(FIXTURES / "obs_proj" / "repro" / "instrumented_analytic_bad.py")
    )
    findings = analyze_file(source, make_rules(["obs-taxonomy"]))
    messages = " | ".join(f.message for f in findings)
    assert "'campaign.triage.screens'" in messages
    assert "'campaign.triage.screen'" in messages
    assert "'solver.analytic.cache_hits'" in messages
    assert "dynamic metric name" in messages
    assert len([f for f in findings if f.severity == "error"]) == 3


def test_r8_accepts_registered_analytic_and_triage_names():
    source = SourceFile.from_path(
        str(FIXTURES / "obs_proj" / "repro" / "instrumented_analytic_ok.py")
    )
    assert analyze_file(source, make_rules(["obs-taxonomy"])) == []


def test_r8_ignores_code_outside_the_repro_package():
    code = 'def f(reg):\n    reg.counter("totally.unregistered").add(1)\n'
    source = SourceFile("snippet.py", code)
    assert analyze_file(source, make_rules(["obs-taxonomy"])) == []


# --- R12: lock discipline ---------------------------------------------------


def test_r12_positive_fixture():
    result = analyze_paths(
        [str(FIXTURES / "r12_lock_positive.py")],
        rule_names=["lock-discipline"],
    )
    assert len(result.findings) == 2
    messages = " | ".join(f.message for f in result.findings)
    assert "discard_oldest() mutates self._samples.pop()" in messages
    assert "declared guarded_by" in messages
    assert "opposite order" in messages
    by_severity = sorted(f.severity for f in result.findings)
    assert by_severity == ["error", "warning"]  # explicit contract errs


def test_r12_negative_fixture():
    """Disciplined locking plus a lock-holding caller's private helper
    (the held-context fixpoint) produce no findings."""
    result = analyze_paths(
        [str(FIXTURES / "r12_lock_negative.py")],
        rule_names=["lock-discipline"],
    )
    assert result.findings == []


def test_r12_seeded_cross_module_bug_needs_the_whole_program_pass():
    """render.py mutates ring.py's guarded subscriber list unlocked:
    only the project-wide guard map connects the two files."""
    locked = analyze_paths(
        [str(FIXTURES / "conc_proj")], rule_names=["lock-discipline"]
    )
    assert len(locked.findings) == 1
    finding = locked.findings[0]
    assert finding.rule == "lock-discipline"
    assert finding.path.endswith("render.py")
    assert "_subscribers" in finding.message
    assert finding.severity == "warning"  # inferred guard, not declared
    # each file alone is consistent: every per-file rule stays silent
    per_file = analyze_paths(
        [str(FIXTURES / "conc_proj")],
        rule_names=[
            "unit-consistency", "cache-invalidation", "hash-determinism",
            "pickle-safety", "float-equality", "obs-taxonomy",
        ],
    )
    assert per_file.findings == []


def test_r12_pragma_alias_suppresses(tmp_path):
    target = tmp_path / "guarded.py"
    target.write_text(
        "import threading\n"
        "from typing import Annotated, List\n"
        "from repro import units\n"
        "\n"
        "\n"
        "class Ring:\n"
        "    _items: Annotated[List[int], units.guarded_by('_lock')]\n"
        "\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def add(self, item):\n"
        "        with self._lock:\n"
        "            self._items.append(item)\n"
        "\n"
        "    def drop(self, item):\n"
        "        self._items.remove(item)  # repro-ok: R12\n"
        "\n"
        "    def steal(self, item):\n"
        "        self._items.remove(item)\n"
    )
    result = analyze_paths([str(target)], rule_names=["lock-discipline"])
    assert [f.line for f in result.findings] == [21]


def test_multi_rule_pragma_suppression_and_per_rule_rot_scan(tmp_path):
    """``# repro-ok: R1,R5`` suppresses both rules on one line; where
    only one of the two actually fires, the rot scan names just the
    unfired rule."""
    target = tmp_path / "pragma_pair.py"
    target.write_text(
        "def both_suppressed(x):\n"
        "    return x == 751.1  # repro-ok: R1,R5\n"
        "\n"
        "\n"
        "def only_float_fires(x):\n"
        "    return x == 2.5  # repro-ok: R1,R5\n"
    )
    full = analyze_paths([str(target)])
    assert [f for f in full.findings
            if f.rule in ("unit-consistency", "float-equality")] == []
    notes = [f for f in full.findings if f.rule == "unused-pragma"]
    assert len(notes) == 1
    assert notes[0].line == 6
    assert "suppresses no unit-consistency finding" in notes[0].message
    assert "float-equality" not in notes[0].message


def test_pragma_naming_an_unknown_rule_is_reported(tmp_path):
    """A misspelled rule name or a removed rule's alias suppresses
    nothing, so the pragma gets a note naming it, even on runs that
    select a subset of the rules."""
    target = tmp_path / "typo.py"
    target.write_text(
        "def f(x):\n"
        "    y = x  # repro-ok: flot-equality\n"
        "    z = x  # repro-ok: R99\n"
        "    return x == 1.5, y, z  # repro-ok: R5,R13\n"
    )
    for rules in (None, ["float-equality"]):
        result = analyze_paths([str(target)], rule_names=rules)
        notes = sorted(
            (f.line, f.message) for f in result.findings
            if f.rule == "unused-pragma"
        )
        assert [line for line, _ in notes] == [2, 3, 4]
        assert "unknown rule 'flot-equality'" in notes[0][1]
        assert "unknown rule 'R99'" in notes[1][1]
        assert "unknown rule 'R13'" in notes[2][1]
        assert all(f.severity == "note" for f in result.findings)
        # the known half of the mixed pragma still suppresses R5
        assert [f for f in result.findings
                if f.rule == "float-equality"] == []


# --- whole-program machinery ------------------------------------------------


def _write_package(tmp_path, name, modules):
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""test package"""\n')
    for module, text in modules.items():
        (pkg / f"{module}.py").write_text(text)
    paths = [str(pkg / "__init__.py")]
    paths += [str(pkg / f"{module}.py") for module in sorted(modules)]
    return [extract_summary(SourceFile.from_path(path)) for path in paths]


def test_symbol_table_resolves_through_import_aliases(tmp_path):
    summaries = _write_package(tmp_path, "toolpkg", {
        "alpha": (
            "from toolpkg.beta import helper as h\n\n\n"
            "def entry(x):\n"
            "    return h(x)\n"
        ),
        "beta": (
            "def helper(x):\n"
            "    return inner(x)\n\n\n"
            "def inner(x):\n"
            "    return x\n"
        ),
    })
    alpha = next(s for s in summaries if s.path.endswith("alpha.py"))
    beta = next(s for s in summaries if s.path.endswith("beta.py"))
    assert alpha.module == "toolpkg.alpha"
    table = SymbolTable(summaries)
    assert table.resolve(alpha, "h") == "toolpkg.beta.helper"
    assert table.resolve(beta, "inner") == "toolpkg.beta.inner"
    assert table.resolve(alpha, "nowhere") is None
    assert table.lookup("toolpkg.alpha.entry").calls[0].callee == "h"


# --- rule aliases and unused pragmas ----------------------------------------


def test_rule_aliases_select_and_canonicalize():
    assert canonical_rule_name("R2") == "cache-invalidation"
    assert canonical_rule_name("cache-invalidation") == "cache-invalidation"
    assert {rule.name for rule in make_rules(["R2", "R12"])} == {
        "cache-invalidation", "lock-discipline",
    }
    assert RULE_ALIASES["R1"] == "unit-consistency"
    assert canonical_rule_name("r12") == "lock-discipline"
    # numbers of removed rules are not reused: they resolve to nothing
    assert canonical_rule_name("R6") == "R6"
    with pytest.raises(ValueError):
        make_rules(["R6"])


def test_alias_pragmas_and_unused_pragma_notes(tmp_path):
    target = tmp_path / "pragmas.py"
    target.write_text(
        "def f(x):\n"
        "    a = x == 1.5  # repro-ok: R5\n"
        "    b = x == 2.5\n"
        "    c = 1.0  # repro-ok: R5\n"
        "    d = 2.0  # repro-ok\n"
        "    return a, b, c, d\n"
    )
    full = analyze_paths([str(target)])
    by_rule = {}
    for finding in full.findings:
        by_rule.setdefault(finding.rule, []).append(finding.line)
    assert by_rule["float-equality"] == [3]  # line 2 suppressed via alias
    assert sorted(by_rule["unused-pragma"]) == [4, 5]
    notes = [f for f in full.findings if f.rule == "unused-pragma"]
    assert all(f.severity == "note" for f in notes)


def test_unused_bare_pragma_not_judged_on_partial_runs(tmp_path):
    """A bare pragma can only be called unused when every rule ran."""
    target = tmp_path / "pragmas.py"
    target.write_text(
        "def f(x):\n"
        "    c = 1.0  # repro-ok: R5\n"
        "    d = 2.0  # repro-ok\n"
        "    return c, d\n"
    )
    partial = analyze_paths([str(target)], rule_names=["float-equality"])
    unused = [f.line for f in partial.findings if f.rule == "unused-pragma"]
    assert unused == [2]  # the named one ran; the bare one is unprovable


def test_pragma_mentions_in_strings_are_not_pragmas(tmp_path):
    target = tmp_path / "docs.py"
    target.write_text(
        'MESSAGE = "suppress with # repro-ok: R5 on the line"\n\n\n'
        "def f():\n"
        '    """Docs may say # repro-ok freely."""\n'
        "    return MESSAGE\n"
    )
    full = analyze_paths([str(target)])
    assert [f for f in full.findings if f.rule == "unused-pragma"] == []


# --- broken and unreadable files --------------------------------------------


def test_broken_file_is_a_finding_not_an_abort():
    result = analyze_paths([
        str(FIXTURES / "broken_syntax.py"),
        str(FIXTURES / "r5_float_positive.py"),
    ])
    assert result.files_analyzed == 2
    fired = rules_fired(result.findings)
    assert "parse-error" in fired  # the broken file is reported...
    assert "float-equality" in fired  # ...and the healthy one still runs
    parse_errors = [f for f in result.findings if f.rule == "parse-error"]
    assert len(parse_errors) == 1
    assert parse_errors[0].path.endswith("broken_syntax.py")
    assert parse_errors[0].severity == "error"
    assert result.fails("error")


def test_unreadable_file_is_a_finding_not_an_abort(tmp_path):
    bad = tmp_path / "not_utf8.py"
    bad.write_bytes(b"\x80\x81\x82 this is not utf-8")
    good = tmp_path / "fine.py"
    good.write_text("def f(x):\n    return x == 1.5\n")
    result = analyze_paths([str(bad), str(good)])
    fired = rules_fired(result.findings)
    assert "unreadable-file" in fired
    assert "float-equality" in fired


# --- analysis cache ---------------------------------------------------------


def test_cache_hit_then_content_invalidation(tmp_path):
    target = tmp_path / "cached_mod.py"
    target.write_text("def f(x):\n    return x == 1.5\n")
    cache_dir = str(tmp_path / "cache")

    cold = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert cold.cache_hits == 0
    assert len(cold.findings) == 1

    warm = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert warm.cache_hits == 1
    assert [f.message for f in warm.findings] == \
        [f.message for f in cold.findings]

    target.write_text("def f(x):\n    return x == 1.5 or x == 2.5\n")
    edited = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert edited.cache_hits == 0  # content hash changed
    assert len(edited.findings) == 2


def test_project_rules_fire_from_cached_summaries(tmp_path):
    """Whole-program findings must survive a 100% per-file cache hit."""
    import shutil

    project = tmp_path / "conc_proj"
    shutil.copytree(str(FIXTURES / "conc_proj"), str(project))
    cache_dir = str(tmp_path / "cache")
    cold = analyze_paths([str(project)], rule_names=["lock-discipline"],
                         use_cache=True, cache_dir=cache_dir)
    warm = analyze_paths([str(project)], rule_names=["lock-discipline"],
                         use_cache=True, cache_dir=cache_dir)
    assert cold.cache_hits == 0
    assert warm.cache_hits == warm.files_analyzed > 1
    assert len(cold.findings) == len(warm.findings) == 1
    assert warm.findings[0].path.endswith("render.py")


def test_cache_invalidates_when_dimension_tables_change(tmp_path, monkeypatch):
    """The config fingerprint covers units.ATTRIBUTE_DIMENSIONS: editing
    the table R1 reads must turn warm hits back into misses."""
    from repro import units

    target = tmp_path / "dims.py"
    target.write_text("def f(m):\n    return m.conductivity + m.density\n")
    cache_dir = str(tmp_path / "cache")
    cold = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert [f.rule for f in cold.findings] == ["unit-consistency"]
    warm = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert warm.cache_hits == 1

    monkeypatch.setitem(units.ATTRIBUTE_DIMENSIONS, "density", "W/(m*K)")
    changed = analyze_paths(
        [str(target)], use_cache=True, cache_dir=cache_dir
    )
    assert changed.cache_hits == 0
    assert changed.findings == []


def test_cache_invalidates_when_material_constants_change(
    tmp_path, monkeypatch
):
    """R1's magic-number check reads repro.materials: recalibrating a
    material must turn warm hits back into misses, or the cache keeps
    serving the stale verdict."""
    import dataclasses

    from repro import materials

    target = tmp_path / "magic.py"
    target.write_text("def f():\n    return 123.456\n")
    cache_dir = str(tmp_path / "cache")
    cold = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert cold.findings == []
    warm = analyze_paths([str(target)], use_cache=True, cache_dir=cache_dir)
    assert warm.cache_hits == 1

    key = next(
        name for name, record in materials.MATERIALS.items()
        if record is materials.C4_UNDERFILL
    )
    monkeypatch.setitem(
        materials.MATERIALS, key,
        dataclasses.replace(materials.C4_UNDERFILL, conductivity=123.456),
    )
    changed = analyze_paths(
        [str(target)], use_cache=True, cache_dir=cache_dir
    )
    assert changed.cache_hits == 0
    assert [f.message for f in changed.findings] == [
        "magic number 123.456 duplicates "
        "repro.materials.C4_UNDERFILL.conductivity"
    ]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    target = tmp_path / "cached_mod.py"
    target.write_text("def f(x):\n    return x == 1.5\n")
    cache_dir = tmp_path / "cache"
    analyze_paths([str(target)], use_cache=True, cache_dir=str(cache_dir))
    for entry in cache_dir.rglob("*.json"):
        entry.write_text("{ not json")
    again = analyze_paths([str(target)], use_cache=True,
                          cache_dir=str(cache_dir))
    assert again.cache_hits == 0
    assert len(again.findings) == 1


# --- parallel mode ----------------------------------------------------------


def test_parallel_jobs_match_serial_results():
    targets = [
        str(FIXTURES / name)
        for name in ("r5_float_positive.py", "r2_cache_positive.py",
                     "r1_unit_positive.py", "r12_lock_positive.py")
    ]

    def key(finding):
        return (finding.path, finding.line, finding.rule, finding.message)

    serial = analyze_paths(targets, jobs=1)
    parallel = analyze_paths(targets, jobs=2)
    assert sorted(map(key, serial.findings)) == \
        sorted(map(key, parallel.findings))
    assert parallel.files_analyzed == len(targets)


# --- git diff / changed-only modes ------------------------------------------


def _git(repo, *argv):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=dev@example.invalid",
         "-c", "user.name=dev", *argv],
        check=True, capture_output=True,
    )


def test_diff_and_changed_only_restrict_reporting(tmp_path, monkeypatch):
    repo = tmp_path / "proj"
    repo.mkdir()
    _git(repo, "init", "-q")
    committed = repo / "committed.py"
    committed.write_text("def f(x):\n    return x == 1.5\n")
    touched = repo / "touched.py"
    touched.write_text("def g(x):\n    return x == 2.5\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    _git(repo, "branch", "base")
    touched.write_text("def g(x):\n    return x == 2.5 or x == 3.5\n")
    _git(repo, "commit", "-aqm", "change touched")
    monkeypatch.chdir(repo)

    # --diff base: only the file changed since the merge base is reported
    diffed = analyze_paths(["."], diff_ref="base")
    assert {Path(f.path).name for f in diffed.findings} == {"touched.py"}
    # the whole project was still linked (both files analyzed)
    assert diffed.files_analyzed == 2

    # --changed-only with a clean tree: nothing to report
    clean = analyze_paths(["."], changed_only=True)
    assert clean.findings == []

    # an uncommitted edit brings that file (and only it) back
    committed.write_text("def f(x):\n    return x == 9.5\n")
    dirty = analyze_paths(["."], changed_only=True)
    assert {Path(f.path).name for f in dirty.findings} == {"committed.py"}


# --- runner / baseline ------------------------------------------------------


def test_analyze_paths_over_fixture_files():
    result = analyze_paths(
        [str(FIXTURES / "r5_float_positive.py"),
         str(FIXTURES / "r5_float_negative.py")]
    )
    assert result.files_analyzed == 2
    assert rules_fired(result.findings) == {"float-equality"}
    assert result.fails("error")
    assert not result.fails("never")


def test_fixture_directory_excluded_from_discovery():
    result = analyze_paths([str(FIXTURES.parent)])
    analyzed_names = {f.path for f in result.findings}
    assert not any("analysis_fixtures" in path for path in analyzed_names)


def test_baseline_round_trip(tmp_path):
    target = str(FIXTURES / "r5_float_positive.py")
    baseline_path = tmp_path / "baseline.json"

    first = analyze_paths([target])
    assert first.findings
    Baseline.from_findings(first.all_pairs).write(str(baseline_path))

    reloaded = Baseline.load(str(baseline_path))
    assert len(reloaded) == len(first.all_pairs)

    second = analyze_paths([target], baseline=reloaded)
    assert second.findings == []
    assert len(second.baselined) == len(first.all_pairs)
    assert second.stale_fingerprints == []
    assert not second.fails("error")


def test_baseline_staleness_detected(tmp_path):
    target = str(FIXTURES / "r5_float_positive.py")
    first = analyze_paths([target])
    baseline = Baseline.from_findings(first.all_pairs)
    entry_path = first.all_pairs[0][1].path  # same file, fixed finding
    baseline.entries["deadbeefdeadbeefdead"] = {
        "rule": "float-equality", "path": entry_path,
        "line": 1, "message": "fixed long ago", "severity": "error",
    }
    second = analyze_paths([target], baseline=baseline)
    assert second.stale_fingerprints == ["deadbeefdeadbeefdead"]


def test_stale_reporting_scoped_to_analyzed_paths():
    """An src-only run must not call tests/-only baseline entries stale."""
    target = str(FIXTURES / "r5_float_positive.py")
    first = analyze_paths([target])
    baseline = Baseline.from_findings(first.all_pairs)
    baseline.entries["feedfacefeedfacefeed"] = {
        "rule": "float-equality", "path": "somewhere/else/entirely.py",
        "line": 1, "message": "not analyzed this run", "severity": "error",
    }
    second = analyze_paths([target], baseline=baseline)
    assert second.stale_fingerprints == []


def test_baseline_survives_line_drift(tmp_path):
    code = "def f(x):\n    return x == 1.5\n"
    source = SourceFile("drift.py", code)
    findings = analyze_file(source, make_rules(["float-equality"]))
    from repro.analysis.static import finding_fingerprint

    fp_before = finding_fingerprint(findings[0], "return x == 1.5", 0)

    shifted = "\n\n# comment\ndef f(x):\n    return x == 1.5\n"
    source2 = SourceFile("drift.py", shifted)
    findings2 = analyze_file(source2, make_rules(["float-equality"]))
    fp_after = finding_fingerprint(findings2[0], "return x == 1.5", 0)
    assert fp_before == fp_after


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 999, "findings": {}}, sort_keys=True))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


# --- output formats (golden) ------------------------------------------------


def _golden_findings():
    source = SourceFile.from_path(str(FIXTURES / "r5_float_positive.py"))
    findings = analyze_file(source, make_rules(["float-equality"]))
    # normalize the path so the golden file is machine-independent
    return [
        type(f)(rule=f.rule, severity=f.severity,
                path="tests/analysis_fixtures/r5_float_positive.py",
                line=f.line, col=f.col, message=f.message, hint=f.hint)
        for f in findings
    ]


def test_golden_json_output():
    text = format_json(_golden_findings())
    golden = (FIXTURES / "golden_r5.json").read_text()
    assert text == golden


def test_golden_sarif_output():
    text = format_sarif(_golden_findings(), make_rules(["float-equality"]))
    golden = (FIXTURES / "golden_r5.sarif").read_text()
    assert text == golden
    payload = json.loads(text)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["rules"][0]["id"] == "float-equality"
    assert len(run["results"]) == 3


def test_text_output_mentions_hint_and_summary():
    text = format_text(_golden_findings())
    assert "3 error(s)" in text
    assert "hint:" in text
    assert "float-equality" in text


# --- CLI --------------------------------------------------------------------


def test_cli_analyze_fails_on_findings(capsys):
    code = cli_main(
        ["analyze", str(FIXTURES / "r5_float_positive.py"),
         "--baseline", str(FIXTURES / "no_such_baseline.json")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "float-equality" in captured.out


def test_cli_analyze_write_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "r5_float_positive.py")
    assert cli_main(
        ["analyze", target, "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    assert baseline.exists()
    assert cli_main(["analyze", target, "--baseline", str(baseline)]) == 0
    captured = capsys.readouterr()
    assert "baselined finding(s) suppressed" in captured.out


def test_cli_analyze_json_and_rule_subset(capsys):
    code = cli_main(
        ["analyze", str(FIXTURES / "r2_cache_positive.py"),
         "--rules", "cache-invalidation", "--format", "json",
         "--baseline", str(FIXTURES / "no_such_baseline.json"),
         "--fail-on", "never"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 4
    assert {f["rule"] for f in payload["findings"]} == {"cache-invalidation"}


def test_cli_list_rules(capsys):
    assert cli_main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out


def test_cli_analyze_accepts_rule_aliases_and_jobs(capsys):
    code = cli_main(
        ["analyze", str(FIXTURES / "r12_lock_positive.py"),
         "--rules", "R12", "--format", "json", "--fail-on", "never",
         "--no-cache", "-j", "2",
         "--baseline", str(FIXTURES / "no_such_baseline.json")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"lock-discipline"}


def test_missing_path_is_an_error_not_a_clean_run(tmp_path, capsys):
    """A misspelled path in a CI gate must fail, not analyze nothing."""
    missing = str(tmp_path / "nonexistent.py")
    with pytest.raises(ConfigurationError, match="nonexistent.py"):
        analyze_paths([missing])
    with pytest.raises(ConfigurationError):
        list(iter_python_files([str(FIXTURES / "r5_float_negative.py"),
                                missing]))
    code = cli_main(["analyze", missing, "--fail-on", "note", "--no-cache"])
    captured = capsys.readouterr()
    assert code != 0
    assert "no findings" not in captured.out
    assert "nonexistent.py" in captured.err


def test_cli_analyze_cache_flags(tmp_path, capsys):
    target = str(FIXTURES / "r5_float_positive.py")
    cache_dir = str(tmp_path / "cache")
    common = ["analyze", target, "--fail-on", "never",
              "--cache-dir", cache_dir,
              "--baseline", str(FIXTURES / "no_such_baseline.json")]
    assert cli_main(common) == 0
    assert cli_main(common) == 0
    capsys.readouterr()
    assert any((tmp_path / "cache").rglob("*.json"))


def test_cli_write_baseline_refuses_diff_modes(tmp_path, capsys):
    code = cli_main(
        ["analyze", str(FIXTURES / "r5_float_positive.py"),
         "--baseline", str(tmp_path / "b.json"), "--write-baseline",
         "--changed-only"]
    )
    capsys.readouterr()
    assert code == 2


# --- the repository itself --------------------------------------------------


def test_src_tree_is_clean_against_committed_baseline():
    """Acceptance gate: `repro analyze src/` reports nothing new."""
    baseline = Baseline.load(str(REPO_ROOT / "analysis-baseline.json"))
    result = analyze_paths([str(REPO_ROOT / "src")], baseline=baseline)
    assert result.findings == [], (
        "new analyzer findings in src/: "
        + "; ".join(f"{f.location()} {f.rule}: {f.message}"
                    for f in result.findings)
    )


def test_rule_catalogue_is_the_seven_rules_with_fixtures():
    """The catalogue is exactly the seven rules of DESIGN.md, and every
    ``r<n>_*`` fixture belongs to a registered rule's alias."""
    assert rule_names() == [
        "cache-invalidation",
        "float-equality",
        "hash-determinism",
        "lock-discipline",
        "obs-taxonomy",
        "pickle-safety",
        "unit-consistency",
    ]
    assert RULE_ALIASES == {
        "R1": "unit-consistency",
        "R2": "cache-invalidation",
        "R3": "hash-determinism",
        "R4": "pickle-safety",
        "R5": "float-equality",
        "R8": "obs-taxonomy",
        "R12": "lock-discipline",
    }
    fixtures = sorted(FIXTURES.glob("r[0-9]*_*"))
    assert fixtures
    for fixture in fixtures:
        alias = fixture.name.split("_")[0].upper()
        assert alias in RULE_ALIASES, f"{fixture.name} has no rule"
