"""Thermal-map statistics: hot spots and per-block rankings.

The paper's steady-state comparisons revolve around three numbers per
map -- the maximum temperature, the minimum temperature and the
across-die difference (its Fig. 3 plots exactly Tmax/Tmin/dT) -- plus
the identity of the hottest block (Figs. 10-11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class MapStatistics:
    """Summary statistics of one temperature map (all in the map's units)."""

    t_max: float
    t_min: float
    t_mean: float
    dt: float

    @classmethod
    def of(cls, values: np.ndarray) -> "MapStatistics":
        """Compute from any array of temperatures."""
        values = np.asarray(values, dtype=float)
        return cls(
            t_max=float(values.max()),
            t_min=float(values.min()),
            t_mean=float(values.mean()),
            dt=float(values.max() - values.min()),
        )


def hottest_block(block_temps: Dict[str, float]) -> Tuple[str, float]:
    """(name, temperature) of the hottest block."""
    name = max(block_temps, key=block_temps.get)
    return name, block_temps[name]


def coolest_block(
    block_temps: Dict[str, float], exclude_prefixes: Tuple[str, ...] = ()
) -> Tuple[str, float]:
    """(name, temperature) of the coolest block.

    ``exclude_prefixes`` skips e.g. the ``blank`` filler units -- the
    paper quotes the Athlon's coolest temperature "excluding the blank
    area on the edges".
    """
    candidates = {
        name: temp
        for name, temp in block_temps.items()
        if not any(name.startswith(p) for p in exclude_prefixes)
    }
    if not candidates:
        raise ValueError("all blocks excluded")
    name = min(candidates, key=candidates.get)
    return name, candidates[name]


def block_ranking(block_temps: Dict[str, float]) -> List[Tuple[str, float]]:
    """Blocks sorted hottest first."""
    return sorted(block_temps.items(), key=lambda kv: kv[1], reverse=True)
