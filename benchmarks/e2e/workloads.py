"""The benchmark's workloads: what one iteration runs and checks.

Each workload class is built inside the worker process, after the
imports; its constructor builds the specs, :meth:`run` is the timed
body, :meth:`check` returns the failed correctness checks of the output
and :meth:`digest` hashes the output numbers that must repeat bitwise.
A workload with a ``warm`` classmethod fills the trace store once per
run, before any iteration is timed.

Only ``fig12-trace`` uses the seed: it is the gcc trace seed of the
job.  ``run_all_experiments`` hard-wires seed 0 and ``gcc_average``
power ignores the seed, so the other workloads take fixed inputs.

Imports of ``repro`` stay inside methods, so ``run.py``, which only
lists workloads, never loads the package.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple, Type


def _array_bytes(array: Any) -> bytes:
    import numpy as np

    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


class ReproduceFast:
    """``run_all_experiments(fast=True)`` with a cold trace store."""

    name = "reproduce-fast"
    fast = True

    def __init__(self, seed: int, scratch: str) -> None:
        pass  # run_all_experiments takes no seed

    def run(self) -> Any:
        from repro.experiments import report

        return report.run_all_experiments(fast=self.fast)

    def check(self, report: Any) -> List[str]:
        failures = [f"{row.figure} {row.quantity}: {row.measured}"
                    for row in report.rows if not row.passed]
        if not report.rows:
            failures.append("report has no check rows")
        return failures

    def digest(self, report: Any, sha: Any) -> None:
        for row in report.rows:
            sha.update(f"{row.figure}|{row.quantity}|{row.measured}\n".encode())


class ReproduceFull(ReproduceFast):
    """``run_all_experiments(fast=False)`` with a cold trace store."""

    name = "reproduce-full"
    fast = False


class Fig12Trace:
    """The paper's ~130 ms gcc trace under both packages, one seed."""

    name = "fig12-trace"
    duration = 0.13
    packages = ("oil", "air")

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.experiments.fig12 import fig12_ensemble_campaign

        self.specs = {
            package: fig12_ensemble_campaign(
                [seed], package=package, duration=self.duration)
            for package in self.packages
        }

    @classmethod
    def warm(cls, seed: int) -> None:
        """Synthesize the job's trace into the trace store."""
        from repro.experiments.common import gcc_synthesized_trace

        job = cls(seed, "").specs["oil"].jobs[0]
        gcc_synthesized_trace(
            float(job.param("duration")), int(job.param("instructions")),
            int(job.param("seed")), float(job.param("mean_dwell", 0.005)),
        )

    def run(self) -> Dict[str, Any]:
        from repro import campaign

        return {package: campaign.run_campaign(spec, jobs=1)
                for package, spec in self.specs.items()}

    def check(self, runs: Dict[str, Any]) -> List[str]:
        import numpy as np
        from repro.experiments.fig12 import Fig12Result
        from repro.units import ZERO_CELSIUS_IN_KELVIN

        failed = [f"{package} campaign failed"
                  for package, run in runs.items() if not run.ok]
        if failed:
            return failed
        oil = runs["oil"].outcomes[0].result
        air = runs["air"].outcomes[0].result
        names = list(oil.meta["block_names"])
        ambient_c = oil.meta["ambient_k"] - ZERO_CELSIUS_IN_KELVIN
        oil_c = oil.arrays["block_rise_k"] + ambient_c
        air_c = air.arrays["block_rise_k"] + ambient_c

        def hottest_five(data: Any) -> List[str]:
            return [names[i] for i in np.argsort(data.mean(axis=0))[::-1][:5]]

        fig12 = Fig12Result(
            times=oil.arrays["times"], oil_blocks_c=oil_c, air_blocks_c=air_c,
            block_names=names, hottest_five_air=hottest_five(air_c),
            hottest_five_oil=hottest_five(oil_c),
        )
        # the two Fig. 12 claims of repro.experiments.report
        failures = []
        for which in self.packages:
            interval = fig12.sampling_interval_for(which, "IntReg", 0.1)
            if not 5e-6 < interval < 5e-4:
                failures.append(f"{which} sampling interval {interval:.3g} s")
        if not {"IntReg", "Dcache"} <= set(fig12.hottest_five_air):
            failures.append(f"air hottest five {fig12.hottest_five_air}")
        return failures

    def digest(self, runs: Dict[str, Any], sha: Any) -> None:
        for package in self.packages:
            result = runs[package].outcomes[0].result
            sha.update(_array_bytes(result.arrays["times"]))
            sha.update(_array_bytes(result.arrays["block_rise_k"]))


class CampaignSweep:
    """Design-space, Fig. 11 and DTM campaigns, then a cached replay."""

    name = "campaign-sweep"

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.campaign import ResultCache
        from repro.experiments.design_space import design_space_campaign
        from repro.experiments.dtm_study import dtm_campaign
        from repro.experiments.fig11 import fig11_campaign

        self.specs = (
            design_space_campaign(nx=40),
            fig11_campaign(nx=48),
            dtm_campaign(nx=32, cycles=10),
        )
        self.cache = ResultCache(os.path.join(scratch, "results"))

    @classmethod
    def warm(cls, seed: int) -> None:
        """Simulate the gcc trace behind ``gcc_average`` power."""
        from repro.experiments.common import gcc_power_trace

        gcc_power_trace(500_000)

    def run(self) -> Tuple[List[Any], List[Any]]:
        from repro import campaign

        first = [campaign.run_campaign(spec, jobs=1, cache=self.cache)
                 for spec in self.specs]
        replay = [campaign.run_campaign(spec, jobs=1, cache=self.cache)
                  for spec in self.specs]
        return first, replay

    def check(self, runs: Tuple[List[Any], List[Any]]) -> List[str]:
        import numpy as np

        first, replay = runs
        failed = [f"{run.campaign.name} campaign failed"
                  for run in (*first, *replay) if not run.ok]
        if failed:
            return failed
        failures = []
        for before, after in zip(first, replay):
            for old, new in zip(before.outcomes, after.outcomes):
                if new.status != "cached" or not new.result.same_values(
                        old.result):
                    failures.append(f"replay of {old.spec.tag}: {new.status}")
        design, fig11, _ = first
        expected = {"left_to_right": "IntReg", "right_to_left": "IntReg",
                    "bottom_to_top": "IntReg", "top_to_bottom": "Dcache"}
        for outcome in fig11.outcomes:
            result = outcome.result
            names = result.meta["block_names"]
            hottest = names[int(np.argmax(result.arrays["block_temps_k"]))]
            if hottest != expected[outcome.spec.tag]:
                failures.append(f"fig11 {outcome.spec.tag} hottest {hottest}")
        oil = design.result_for("OIL-SILICON").scalars
        air = design.result_for("AIR-SINK").scalars
        for key in ("dt", "t63"):
            if not oil[key] > air[key]:
                failures.append(f"OIL-SILICON {key} {oil[key]:.4g} <= "
                                f"AIR-SINK {air[key]:.4g}")
        return failures

    def digest(self, runs: Tuple[List[Any], List[Any]], sha: Any) -> None:
        for run in runs[0]:
            for outcome in run.outcomes:
                scalars = sorted(outcome.result.scalars.items())
                sha.update(f"{outcome.spec.tag}|{scalars!r}\n".encode())


WORKLOADS: Dict[str, Type[Any]] = {
    cls.name: cls
    for cls in (ReproduceFast, ReproduceFull, Fig12Trace, CampaignSweep)
}
