"""Tests for the one-shot reproduction report."""

import multiprocessing
import os

import pytest

from repro import obs
from repro.campaign.executor import fan_out
from repro.errors import ConfigurationError
from repro.experiments import common, report as report_module
from repro.experiments.report import (
    CheckRow,
    ReproductionReport,
    format_report,
    run_all_experiments,
)

_TEST_PID = os.getpid()


class TestReportStructure:
    def test_add_and_counts(self):
        report = ReproductionReport()
        report.add("Fig. X", "thing", "1", "1.1", True)
        report.add("Fig. Y", "other", "2", "0", False)
        assert report.n_passed == 1
        assert not report.all_passed
        assert report.rows[0] == CheckRow("Fig. X", "thing", "1", "1.1",
                                          True)

    def test_format_is_markdown_table(self):
        report = ReproductionReport()
        report.add("Fig. X", "thing", "1", "1.1", True)
        text = format_report(report)
        assert text.startswith("# Reproduction report")
        assert "| Fig. X | thing | 1 | 1.1 | PASS |" in text


@pytest.mark.slow
def test_full_fast_run_passes():
    lines = []
    report = run_all_experiments(fast=True, progress=lines.append)
    assert lines  # progress was reported
    assert len(report.rows) >= 20
    failed = [row for row in report.rows if not row.passed]
    assert not failed, f"claim checks failed: {failed}"
    assert report.elapsed_seconds > 0


def test_cli_reproduce_writes_file(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "report.md"
    code = main(["reproduce", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "FAIL" not in text


# ---------------------------------------------------------------------------
# the figure fan-out
# ---------------------------------------------------------------------------


def _cold_fast_run(store, **kwargs):
    """``run_all_experiments(fast=True)`` from cold trace caches.

    Returns the rows as (figure, quantity, measured, passed) and the
    ``repro.obs`` counter delta of the run.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(store))
        for cached in (common._gcc_simulation, common.gcc_power_trace,
                       common.gcc_synthesized_trace):
            cached.cache_clear()
        before = obs.metrics().snapshot()
        report = run_all_experiments(fast=True, **kwargs)
        counters = obs.snapshot_diff(obs.metrics().snapshot(),
                                     before)["counters"]
    rows = [(r.figure, r.quantity, r.measured, r.passed) for r in report.rows]
    return rows, counters


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    return _cold_fast_run(tmp_path_factory.mktemp("serial"), jobs=1)


def test_pool_gives_the_serial_rows_and_counts(serial_run, tmp_path):
    lines = []
    rows, counters = _cold_fast_run(tmp_path, jobs=2, progress=lines.append)
    assert not any("NOTE" in line for line in lines)  # the pool ran
    assert len(lines) == 11
    assert rows == serial_run[0]
    assert counters == serial_run[1]


def _no_fork(method=None):
    raise OSError("no fork here")


def test_pool_that_cannot_start_runs_serially(serial_run, tmp_path,
                                              monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    lines = []
    rows, counters = _cold_fast_run(tmp_path, jobs=2, progress=lines.append)
    assert any("no fork here" in line and "serially" in line
               for line in lines)
    assert rows == serial_run[0]
    assert counters == serial_run[1]


def _exit_in_worker():
    if os.getpid() != _TEST_PID:
        os._exit(1)


def test_broken_pool_runs_the_rest_serially():
    lines = []
    started = []
    calls = [_exit_in_worker, _exit_in_worker]
    assert list(fan_out(calls, 2, started.append, lines.append)) == [None,
                                                                     None]
    assert sum("BrokenProcessPool" in line for line in lines) == 1
    # dispatched to the pool, then once more each in this process
    assert started == [0, 1, 0, 1]


def _raise_value_error(**kwargs):
    raise ValueError("figure failed")


def test_figure_error_propagates(monkeypatch):
    calls = [("fig04", _raise_value_error, {}),
             ("fig09", _raise_value_error, {})]
    monkeypatch.setattr(report_module, "figure_calls", lambda fast: calls)
    with pytest.raises(ValueError, match="figure failed"):
        run_all_experiments(fast=True, jobs=2)
    with pytest.raises(ConfigurationError, match="at least 1"):
        run_all_experiments(fast=True, jobs=0)


def test_cli_reproduce_rejects_jobs_below_one(capsys):
    from repro.cli import main

    assert main(["reproduce", "-j", "0"]) == 1
    assert "error: jobs must be at least 1" in capsys.readouterr().err
