"""Fig. 12 -- simulated EV6 temperature traces running gcc.

Paper setup: SimpleScalar+Wattch power samples every 10 kcycles
(~3.3 us) drive the thermal model; both packages use
Rconv = 0.3 K/W and 45 C ambient; the five hottest blocks are plotted.
Claims:

* AIR-SINK's heat-up/cool-down phases last ~3 ms; OIL-SILICON's far
  exceed the trace's swings (it spends most of its time in transient);
* OIL-SILICON's absolute temperatures are much higher (same total
  power, no copper spreading, high local densities) while cross-die
  *average* temperatures stay close (the cool L2 balances the core);
* the AIR-SINK hot spot (IntReg) is more distinct than OIL-SILICON's,
  where neighbors blend together;
* in both, IntReg can rise ~5 C in ~3 ms, so 0.1 C sensing resolution
  needs sampling every ~60 us (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.time_constants import required_sampling_interval
from ..campaign import CampaignSpec, JobSpec, ModelSpec, ResultCache, run_campaign
from ..units import ZERO_CELSIUS_IN_KELVIN


@dataclass
class Fig12Result:
    """Per-block temperature traces (C) for both packages."""

    times: np.ndarray
    oil_blocks_c: np.ndarray   # (n_times, n_blocks)
    air_blocks_c: np.ndarray
    block_names: List[str]
    hottest_five_air: List[str]
    hottest_five_oil: List[str]

    def block_series(self, which: str, block: str) -> np.ndarray:
        """One block's trace from one package ("oil" or "air")."""
        data = self.oil_blocks_c if which == "oil" else self.air_blocks_c
        return data[:, self.block_names.index(block)]

    def average_trace(self, which: str, areas: np.ndarray) -> np.ndarray:
        """Area-weighted cross-die average temperature trace."""
        data = self.oil_blocks_c if which == "oil" else self.air_blocks_c
        weights = areas / areas.sum()
        return data @ weights

    def sampling_interval_for(
        self, which: str, block: str, resolution: float = 0.1
    ) -> float:
        """Sensor sampling interval bounding per-sample change (s)."""
        series = self.block_series(which, block)
        return required_sampling_interval(self.times, series, resolution)


def fig12_campaign(
    instructions: int = 500_000,
    duration: float = 0.040,
    rconv: float = 0.3,
    nx: int = 24,
    ny: int = 24,
    thermal_stride: int = 10,
) -> CampaignSpec:
    """The Fig. 12 experiment as a campaign: one transient per package."""
    trace_params = dict(
        duration=duration, instructions=instructions,
        thermal_stride=thermal_stride, init="steady",
    )
    oil = JobSpec.make(
        "trace_transient", tag="oil",
        model=ModelSpec(
            chip="ev6", package="oil", nx=nx, ny=ny,
            uniform_h=True, target_resistance=rconv,
            include_secondary=True, ambient_c=45.0,
        ),
        **trace_params,
    )
    air = JobSpec.make(
        "trace_transient", tag="air",
        model=ModelSpec(
            chip="ev6", package="air", nx=nx, ny=ny,
            convection_resistance=rconv, include_secondary=False,
            ambient_c=45.0,
        ),
        **trace_params,
    )
    return CampaignSpec(name="fig12", jobs=(oil, air))


def fig12_ensemble_campaign(
    seeds: Sequence[int],
    package: str = "oil",
    instructions: int = 500_000,
    duration: float = 0.040,
    rconv: float = 0.3,
    nx: int = 24,
    ny: int = 24,
    thermal_stride: int = 10,
) -> CampaignSpec:
    """A seed ensemble of Fig. 12-style trace runs on one package.

    All jobs share one :class:`~repro.campaign.ModelSpec` and one
    thermal step, so the executor's batch path integrates the whole
    ensemble as a single lockstep solve — the demonstration case for
    :mod:`repro.campaign.batching` (the two-package ``fig12`` campaign
    itself cannot batch: its jobs use different models).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if package == "oil":
        model = ModelSpec(
            chip="ev6", package="oil", nx=nx, ny=ny,
            uniform_h=True, target_resistance=rconv,
            include_secondary=True, ambient_c=45.0,
        )
    else:
        model = ModelSpec(
            chip="ev6", package="air", nx=nx, ny=ny,
            convection_resistance=rconv, include_secondary=False,
            ambient_c=45.0,
        )
    jobs = tuple(
        JobSpec.make(
            "trace_transient", tag=f"seed{seed}", model=model,
            duration=duration, instructions=instructions, seed=seed,
            thermal_stride=thermal_stride, init="steady",
        )
        for seed in seeds
    )
    return CampaignSpec(name=f"fig12-ensemble-{package}", jobs=jobs)


def run_fig12(
    instructions: int = 500_000,
    duration: float = 0.040,
    rconv: float = 0.3,
    nx: int = 24,
    ny: int = 24,
    thermal_stride: int = 10,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    batch: bool = True,
) -> Fig12Result:
    """Run the Fig. 12 trace-driven experiment via the campaign engine.

    The power trace comes from the functional simulation extended to
    ``duration`` seconds by the phase-level synthesizer (the paper's
    trace spans ~130 ms; the default 40 ms keeps the run quick while
    covering many program phases).  ``thermal_stride`` bins the 3.3 us
    power samples into coarser thermal steps -- 33 us by default, far
    below the millisecond thermal dynamics of interest and below the
    ~60 us sensor-sampling bound the experiment derives.  Both jobs
    integrate the same binned trace: in one process (``jobs=1``) the
    air job reuses the oil job's from the in-process cache; pool
    workers each bin the trace from the machine-wide trace cache.
    """
    run = run_campaign(
        fig12_campaign(
            instructions=instructions, duration=duration, rconv=rconv,
            nx=nx, ny=ny, thermal_stride=thermal_stride,
        ),
        jobs=jobs, cache=cache, batch=batch,
    )
    oil_result = run.result_for("oil")
    air_result = run.result_for("air")
    plan_names = list(oil_result.meta["block_names"])
    ambient_c = oil_result.meta["ambient_k"] - ZERO_CELSIUS_IN_KELVIN
    times = oil_result.arrays["times"]
    oil_c = oil_result.arrays["block_rise_k"] + ambient_c
    air_c = air_result.arrays["block_rise_k"] + ambient_c

    def hottest_five(data: np.ndarray) -> List[str]:
        order = np.argsort(data.mean(axis=0))[::-1][:5]
        return [plan_names[i] for i in order]

    return Fig12Result(
        times=times,
        oil_blocks_c=oil_c,
        air_blocks_c=air_c,
        block_names=plan_names,
        hottest_five_air=hottest_five(air_c),
        hottest_five_oil=hottest_five(oil_c),
    )
