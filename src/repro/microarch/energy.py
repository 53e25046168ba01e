"""Wattch-style energy model: activity counts -> per-block power.

Each microarchitectural structure has a per-access energy; each
floorplan block additionally leaks in proportion to its area, with an
optional exponential temperature dependence (the leakage feedback the
paper's Conclusions flag as a complication for reconciling packages).

Per-access energies are calibrated so the ``gcc_like`` workload on the
EV6 floorplan lands near the published HotSpot/Wattch example powers
for gcc (hot IntReg/IntExec/Dcache, warm Icache/Bpred/LdStQ, idle FP
row, a few Watts of L2) -- the spatial power structure every Fig. 10-12
conclusion rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from ..errors import ConfigurationError
from ..floorplan.block import Floorplan
from .core import STRUCTURES, ActivityCounts

#: Default mapping from structure names to EV6 floorplan blocks.
DEFAULT_EV6_BLOCK_MAP: Dict[str, str] = {
    "icache": "Icache",
    "itb": "ITB",
    "bpred": "Bpred",
    "int_map": "IntMap",
    "fp_map": "FPMap",
    "int_q": "IntQ",
    "fp_q": "FPQ",
    "int_reg": "IntReg",
    "fp_reg": "FPReg",
    "int_exec": "IntExec",
    "fp_add": "FPAdd",
    "fp_mul": "FPMul",
    "ldst_q": "LdStQ",
    "dcache": "Dcache",
    "dtb": "DTB",
    "l2": "L2",
}

#: Per-access energies in Joules, EV6-class structures at a ~3 GHz
#: process point.  Calibrated (see module docstring).
DEFAULT_ACCESS_ENERGY: Dict[str, float] = {
    "icache": 1.72e-9,
    "itb": 0.42e-9,
    "bpred": 0.55e-9,
    "int_map": 0.24e-9,
    "fp_map": 1.02e-9,
    "int_q": 0.12e-9,
    "fp_q": 0.51e-9,
    "int_reg": 0.53e-9,
    "fp_reg": 0.17e-9,
    "int_exec": 1.00e-9,
    "fp_add": 1.01e-9,
    "fp_mul": 1.02e-9,
    "ldst_q": 2.66e-9,
    "dcache": 11.5e-9,
    "dtb": 0.71e-9,
    "l2": 24.2e-9,
}


@dataclass
class EnergyModel:
    """Converts activity windows into per-block power vectors.

    Parameters
    ----------
    floorplan:
        Target floorplan; structure power lands on its blocks.
    access_energy:
        Joules per access for each structure.
    block_map:
        structure -> block name.  Structures mapped to ``"L2"`` are
        split over all blocks whose name starts with ``L2`` in
        proportion to area (the EV6 floorplan has three L2 banks).
    leakage_density:
        Idle leakage per unit area, W/m^2, applied to every block.
    leakage_beta:
        Optional exponential temperature coefficient (1/K): leakage at
        temperature T is scaled by ``exp(beta * (T - T_ref))``.
    t_ref:
        Reference temperature for the leakage law, Kelvin.
    """

    floorplan: Floorplan
    access_energy: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_ACCESS_ENERGY)
    )
    block_map: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_EV6_BLOCK_MAP)
    )
    leakage_density: float = 2.0e4  # 0.02 W/mm^2
    leakage_beta: float = 0.0
    t_ref: float = 318.15

    def __post_init__(self) -> None:
        missing = set(STRUCTURES) - set(self.access_energy)
        if missing:
            raise ConfigurationError(
                f"access_energy missing structures: {sorted(missing)}"
            )
        if self.leakage_density < 0:
            raise ConfigurationError("leakage_density must be >= 0")
        self._weights = self._build_weights()

    def _build_weights(self) -> np.ndarray:
        """(n_structures, n_blocks) distribution matrix."""
        n_blocks = len(self.floorplan)
        weights = np.zeros((len(STRUCTURES), n_blocks))
        areas = self.floorplan.areas()
        for s_idx, structure in enumerate(STRUCTURES):
            target = self.block_map.get(structure)
            if target is None:
                raise ConfigurationError(
                    f"structure {structure!r} has no block mapping"
                )
            if target in self.floorplan:
                weights[s_idx, self.floorplan.index_of(target)] = 1.0
                continue
            # Area-proportional split over a bank group (e.g. "L2" over
            # L2_left / L2 / L2_right).
            group = [
                i for i, name in enumerate(self.floorplan.names)
                if name.startswith(target)
            ]
            if not group:
                raise ConfigurationError(
                    f"block {target!r} (for structure {structure!r}) not in "
                    f"floorplan {self.floorplan.name!r}"
                )
            group_areas = areas[group]
            weights[s_idx, group] = group_areas / group_areas.sum()
        return weights

    # ------------------------------------------------------------------

    def dynamic_power(self, activity: ActivityCounts, window_time: float) -> np.ndarray:
        """Per-block dynamic power (W) for one activity window."""
        if window_time <= 0:
            raise ConfigurationError("window_time must be positive")
        energy = np.array([
            self.access_energy[s] * activity.accesses.get(s, 0.0)
            for s in STRUCTURES
        ])
        return (energy @ self._weights) / window_time

    def leakage_power(
        self, block_temps: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-block leakage power (W), optionally temperature-scaled."""
        base = self.leakage_density * self.floorplan.areas()
        if block_temps is None or self.leakage_beta == 0.0:  # exact zero = scaling off
            return base
        block_temps = np.asarray(block_temps, dtype=float)
        return base * np.exp(self.leakage_beta * (block_temps - self.t_ref))

    def block_power(
        self,
        activity: ActivityCounts,
        window_time: float,
        block_temps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Dynamic + leakage per-block power for one window."""
        return self.dynamic_power(activity, window_time) + self.leakage_power(
            block_temps
        )


def default_ev6_energy_model(floorplan: Floorplan, **overrides) -> EnergyModel:
    """The calibrated EV6 energy model used by the paper experiments."""
    return EnergyModel(floorplan=floorplan, **overrides)
