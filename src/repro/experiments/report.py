"""One-shot reproduction report: run every figure, write markdown.

``run_all_experiments`` executes every figure/table experiment at a
chosen resolution and collects the quantities EXPERIMENTS.md tracks,
each paired with the paper's published value and a pass/fail check of
the qualitative claim.  ``format_report`` renders the result as a
markdown table; the CLI exposes it as ``python -m repro reproduce``.

The eleven figures share nothing but the gcc power trace, so they run
on a pool of forked workers, one per available CPU.  The parent
simulates gcc first, so every worker inherits the cached trace; each
worker returns its figure's result with the :mod:`repro.obs` metrics
delta of the call, which the parent merges.  The check rows are built
in the parent afterwards, so the report does not depend on how many
workers ran or in which order they finished.  The pool is the
campaign engine's :func:`~repro.campaign.executor.fan_out`: without
``fork``, or when the pool cannot start or breaks, the figures without
a result run serially in this process.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign.executor import fan_out
from ..convection.flow import FlowDirection
from .common import gcc_power_trace
from . import (
    run_fig02,
    run_fig03,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
)

@dataclass
class CheckRow:
    """One paper-vs-measured line of the report."""

    figure: str
    quantity: str
    paper: str
    measured: str
    passed: bool


@dataclass
class ReproductionReport:
    """All check rows plus bookkeeping."""

    rows: List[CheckRow] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def n_passed(self) -> int:
        """Number of checks that passed."""
        return sum(row.passed for row in self.rows)

    @property
    def all_passed(self) -> bool:
        """Whether every claim check passed."""
        return self.n_passed == len(self.rows)

    def add(self, figure: str, quantity: str, paper: str,
            measured: str, passed: bool) -> None:
        """Append one check row."""
        self.rows.append(CheckRow(figure, quantity, paper, measured,
                                  bool(passed)))


#: One figure experiment: its name, its ``run_figNN`` function and the
#: keyword arguments of the call.
FigureCall = Tuple[str, Callable[..., Any], Dict[str, Any]]

#: What ``progress`` is told when a figure starts.
_TITLES = {
    "fig02": "Fig. 2: transient validation",
    "fig03": "Fig. 3: steady validation",
    "fig04": "Fig. 4: Athlon map",
    "fig05": "Fig. 5: secondary path ablation",
    "fig06": "Fig. 6: warm-up transients",
    "fig07": "Fig. 7: time constants",
    "fig08": "Fig. 8: pulse oscillation",
    "fig09": "Fig. 9: hot-spot migration",
    "fig10": "Fig. 10: steady maps",
    "fig11": "Fig. 11: flow directions",
    "fig12": "Fig. 12: trace-driven runs",
}


def figure_calls(fast: bool) -> List[FigureCall]:
    """The eleven figure experiments, longest first.

    Longest first keeps a pool's tail short: the last figures to start
    are the quickest to finish.
    """
    grid = 20 if fast else 32
    return [
        ("fig12", run_fig12, {"duration": 0.02 if fast else 0.04,
                              "nx": 12 if fast else 24}),
        ("fig10", run_fig10, {"nx": grid, "ny": grid}),
        ("fig11", run_fig11, {"nx": 24 if fast else 32}),
        ("fig06", run_fig06, {"nx": 16 if fast else 24,
                              "dt": 0.02 if fast else 0.01}),
        ("fig03", run_fig03, {"rc_grid": 24 if fast else 40,
                              "fd_grid": 36 if fast else 60,
                              "fd_layers": 3 if fast else 5}),
        ("fig05", run_fig05, {"nx": grid, "ny": grid}),
        ("fig02", run_fig02, {"rc_grid": 12 if fast else 20,
                              "fd_grid": 20 if fast else 32,
                              "fd_layers": 3 if fast else 4}),
        ("fig07", run_fig07, {"nx": 8 if fast else 16}),
        ("fig08", run_fig08, {"nx": 16 if fast else 24,
                              "dt": 1e-3 if fast else 0.5e-3}),
        ("fig09", run_fig09, {"nx": 16 if fast else 24}),
        ("fig04", run_fig04, {"nx": grid, "ny": grid}),
    ]


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_all_experiments(
    fast: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> ReproductionReport:
    """Run every experiment and collect paper-vs-measured checks.

    ``fast`` lowers grid resolutions and trace lengths (the bench suite
    runs the full-resolution versions); ``progress`` receives a line
    per figure if given.  ``jobs`` worker processes run the figures
    (``None``: one per available CPU, at most one per figure; ``1``:
    serially in this process; below ``1``: ``ConfigurationError``).
    The report is the same for any ``jobs``.
    """
    calls = figure_calls(fast)
    if jobs is None:
        jobs = _available_cpus()

    def started(index: int) -> None:
        if progress is not None:
            progress(f"{_TITLES[calls[index][0]]} ...")

    start = time.perf_counter()
    if min(jobs, len(calls)) > 1:
        # simulate gcc once here; every forked worker inherits the
        # lru_caches instead of simulating it again
        gcc_power_trace(500_000)
    results = dict(zip(
        (name for name, _, _ in calls),
        fan_out([functools.partial(function, **kwargs)
                 for _, function, kwargs in calls],
                jobs, started, progress),
    ))
    (fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
     fig12) = (results[f"fig{n:02d}"] for n in range(2, 13))

    report = ReproductionReport()
    report.add("Fig. 2", "solver agreement (steady)", "close",
               f"{100 * fig02.steady_agreement:.1f}%",
               fig02.steady_agreement < 0.05)
    report.add("Fig. 2", "Rconv (K/W)", "~1.0", f"{fig02.rconv:.2f}",
               0.7 < fig02.rconv < 1.3)
    tau = fig02.time_constant_estimate()
    report.add("Fig. 2", "time constant (s)", "O(1 s)", f"{tau:.2f}",
               0.1 < tau < 1.5)

    report.add("Fig. 3", "Tmax agreement", "close",
               f"{100 * fig03.tmax_agreement:.1f}%",
               fig03.tmax_agreement < 0.10)

    hot_name, hot_temp = fig04.hottest
    _, cool_temp = fig04.coolest_active
    report.add("Fig. 4", "hottest block", "sched ~73 C",
               f"{hot_name} {hot_temp:.1f} C",
               hot_name == "sched" and abs(hot_temp - 72) < 5)
    report.add("Fig. 4", "coolest active", "~45 C",
               f"{cool_temp:.1f} C", abs(cool_temp - 46) < 5)

    report.add("Fig. 5a", "oil error w/o secondary", "> 10 C",
               f"{fig05.oil_max_error_c:.1f} C",
               fig05.oil_max_error_c > 10.0)
    worst_air = max(
        abs(fig05.air_with_secondary[n] - fig05.air_without_secondary[n])
        / fig05.air_without_secondary[n]
        for n in fig05.air_with_secondary
    )
    report.add("Fig. 5b", "air change w/ secondary", "< 1%",
               f"{100 * worst_air:.2f}%", worst_air < 0.01)

    report.add("Fig. 6", "oil settles within 6 s", "yes",
               f"{100 * fig06.fraction_of_steady_at_end('oil'):.0f}%",
               fig06.fraction_of_steady_at_end("oil") > 0.95)
    report.add("Fig. 6", "air still warming at 6 s", "yes",
               f"{100 * fig06.fraction_of_steady_at_end('air'):.0f}%",
               fig06.fraction_of_steady_at_end("air") < 0.85)
    report.add("Fig. 6", "steady hot: oil >> air", "137 vs 63 C",
               f"{fig06.oil_hot_steady:.0f} vs "
               f"{fig06.air_hot_steady:.0f} C",
               fig06.oil_hot_steady > fig06.air_hot_steady + 15)
    report.add("Fig. 6", "steady cool: oil < air", "42 vs 55 C",
               f"{fig06.oil_cool_steady:.0f} vs "
               f"{fig06.air_cool_steady:.0f} C",
               fig06.oil_cool_steady < fig06.air_cool_steady)

    report.add("Fig. 7", "R_Si (K/W)", "0.0125", f"{fig07.r_si:.4f}",
               abs(fig07.r_si - 0.0125) < 1e-3)
    report.add("Fig. 7", "tau_oil model vs Eqn 6", "match",
               f"{fig07.tau_oil_fitted:.2f} vs "
               f"{fig07.tau_oil_analytic:.2f} s",
               fig07.oil_agreement < 0.15)

    oil_rec = fig08.recovery_fraction(fig08.oil_trace)
    air_rec = fig08.recovery_fraction(fig08.air_trace)
    report.add("Fig. 8", "oil cools much slower", "yes",
               f"recovered {100 * oil_rec:.0f}% vs "
               f"{100 * air_rec:.0f}% at +15 ms",
               air_rec - oil_rec > 0.15)

    report.add("Fig. 9", "hottest at 14 ms (air/oil)", "FPMap / IntReg",
               f"{fig09.air_hottest_at_observation} / "
               f"{fig09.oil_hottest_at_observation}",
               fig09.air_hottest_at_observation == "FPMap"
               and fig09.oil_hottest_at_observation == "IntReg")

    report.add("Fig. 10", "oil hotter Tmax", "~+30 C",
               f"+{fig10.tmax_difference:.1f} C",
               fig10.tmax_difference > 5)
    report.add("Fig. 10", "oil bigger dT", "~+55 C",
               f"+{fig10.gradient_difference:.1f} C",
               fig10.gradient_difference > 15)

    hottest = [
        fig11.hottest(d) for d in (
            FlowDirection.LEFT_TO_RIGHT, FlowDirection.RIGHT_TO_LEFT,
            FlowDirection.BOTTOM_TO_TOP, FlowDirection.TOP_TO_BOTTOM,
        )
    ]
    report.add("Fig. 11", "hottest per direction",
               "IntReg x3, then Dcache", " / ".join(hottest),
               hottest == ["IntReg", "IntReg", "IntReg", "Dcache"])

    interval_air = fig12.sampling_interval_for("air", "IntReg", 0.1)
    interval_oil = fig12.sampling_interval_for("oil", "IntReg", 0.1)
    report.add("Fig. 12", "sensor sampling @0.1 C", "~60 us",
               f"{1e6 * interval_air:.0f} / {1e6 * interval_oil:.0f} us",
               5e-6 < interval_air < 5e-4 and 5e-6 < interval_oil < 5e-4)
    report.add("Fig. 12", "top blocks include core+cache", "yes",
               ", ".join(fig12.hottest_five_air[:3]),
               {"IntReg", "Dcache"} <= set(fig12.hottest_five_air))

    report.elapsed_seconds = time.perf_counter() - start
    return report


def format_report(report: ReproductionReport) -> str:
    """Render the report as markdown."""
    lines = [
        "# Reproduction report",
        "",
        f"{report.n_passed}/{len(report.rows)} claim checks passed "
        f"({report.elapsed_seconds:.0f} s).",
        "",
        "| figure | quantity | paper | measured | check |",
        "|---|---|---|---|---|",
    ]
    for row in report.rows:
        mark = "PASS" if row.passed else "FAIL"
        lines.append(
            f"| {row.figure} | {row.quantity} | {row.paper} "
            f"| {row.measured} | {mark} |"
        )
    return "\n".join(lines) + "\n"
