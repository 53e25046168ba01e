"""Fig. 11 -- the paper's TABLE: EV6 steady temperatures under four oil
flow directions.

Paper setup: EV6 with the gcc power map, OIL-SILICON with the local
h(x) of Eqns 7-8, for the four axis-aligned flow directions.  Claims:

* temperatures of individual units shift by tens of degrees with
  direction (upstream units are cooled best);
* with flow from top to bottom, IntReg (which sits at the top die
  edge, i.e. at the leading edge) is cooled so well that **Dcache**
  becomes the hottest unit -- for every other direction, IntReg stays
  hottest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.thermal_maps import hottest_block
from ..campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    run_campaign,
)
from ..convection.flow import ALL_DIRECTIONS, FlowDirection
from ..units import ZERO_CELSIUS_IN_KELVIN

#: Human-readable labels matching the paper's column headers.
DIRECTION_LABELS = {
    FlowDirection.LEFT_TO_RIGHT: "left to right",
    FlowDirection.RIGHT_TO_LEFT: "right to left",
    FlowDirection.BOTTOM_TO_TOP: "bottom to top",
    FlowDirection.TOP_TO_BOTTOM: "top to bottom",
}


@dataclass
class Fig11Result:
    """Per-direction block temperatures in Celsius."""

    temps_c: Dict[FlowDirection, Dict[str, float]]

    def hottest(self, direction: FlowDirection) -> str:
        """Name of the hottest unit for one flow direction."""
        return hottest_block(self.temps_c[direction])[0]

    def table_rows(self) -> List[List[str]]:
        """The figure's table: one row per unit, one column per
        direction, formatted like the paper."""
        directions = list(ALL_DIRECTIONS)
        header = ["units"] + [DIRECTION_LABELS[d] for d in directions]
        first = self.temps_c[directions[0]]
        rows = [header]
        for unit in first:
            rows.append(
                [unit] + [
                    f"{self.temps_c[d][unit]:.2f}" for d in directions
                ]
            )
        return rows

    def direction_span(self, unit: str) -> float:
        """Max-minus-min temperature of one unit across directions."""
        values = [self.temps_c[d][unit] for d in ALL_DIRECTIONS]
        return max(values) - min(values)


def fig11_campaign(
    nx: int = 32,
    ny: int = 32,
    velocity: float = 10.0,
    instructions: int = 500_000,
) -> CampaignSpec:
    """The Fig. 11 sweep as a campaign: one steady job per direction."""
    jobs = tuple(
        JobSpec.make(
            "steady_blocks",
            tag=direction.value,
            model=ModelSpec(
                chip="ev6", package="oil", nx=nx, ny=ny,
                direction=direction.value, velocity=velocity,
                uniform_h=False, include_secondary=True, ambient_c=45.0,
            ),
            power="gcc_average", instructions=instructions,
        )
        for direction in ALL_DIRECTIONS
    )
    return CampaignSpec(name="fig11", jobs=jobs)


def run_fig11(
    nx: int = 32,
    ny: int = 32,
    velocity: float = 10.0,
    instructions: int = 500_000,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Fig11Result:
    """Run the Fig. 11 flow-direction sweep through the campaign engine."""
    campaign = fig11_campaign(nx=nx, ny=ny, velocity=velocity,
                              instructions=instructions)
    run = run_campaign(campaign, jobs=jobs, cache=cache)
    temps: Dict[FlowDirection, Dict[str, float]] = {}
    for direction in ALL_DIRECTIONS:
        result = run.result_for(direction.value)
        names = result.meta["block_names"]
        temps[direction] = {
            name: kelvin - ZERO_CELSIUS_IN_KELVIN
            for name, kelvin in zip(names, result.arrays["block_temps_k"])
        }
    return Fig11Result(temps_c=temps)
