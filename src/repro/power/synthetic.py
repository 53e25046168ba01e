"""Synthetic power workloads for the paper's controlled experiments.

These generators produce the exact power stimuli of the characterization
figures: a long step on one block (Fig. 6), a periodic on/off pulse
train (Fig. 8) and a power hand-off between two blocks (Fig. 9).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import PowerTraceError
from ..floorplan.block import Floorplan
from .trace import PowerTrace


def constant_power(
    floorplan: Floorplan, powers: Dict[str, float], duration: float, dt: float
) -> PowerTrace:
    """A constant per-block power held for ``duration`` seconds."""
    vector = floorplan.power_vector(powers)
    n = max(1, int(round(duration / dt)))
    return PowerTrace(floorplan.names, np.tile(vector, (n, 1)), dt)


def step_power(
    floorplan: Floorplan,
    block: str,
    power_density: float,
    duration: float,
    dt: float,
) -> PowerTrace:
    """Power density (W/m^2) applied to one block, all others idle.

    The paper's Fig. 6 warm-up experiment: "we apply power for about 6
    seconds duration to one hot block ... the power density is
    2.0 W/mm^2" (2e6 W/m^2 in SI).
    """
    watts = power_density * floorplan[block].area
    return constant_power(floorplan, {block: watts}, duration, dt)


def pulse_train(
    floorplan: Floorplan,
    block: str,
    on_power: float,
    on_time: float,
    off_time: float,
    cycles: int,
    dt: float,
    base_power: Optional[Dict[str, float]] = None,
) -> PowerTrace:
    """A periodic on/off pulse on one block (paper Fig. 8).

    The paper applies power for 15 ms then turns it off for 85 ms,
    repeating periodically.  ``base_power`` optionally adds a constant
    background on other blocks.
    """
    if on_time <= 0 or off_time <= 0:
        raise PowerTraceError("on_time and off_time must be positive")
    if cycles < 1:
        raise PowerTraceError("cycles must be >= 1")
    base = floorplan.power_vector(base_power or {})
    index = floorplan.index_of(block)
    n_on = max(1, int(round(on_time / dt)))
    n_off = max(1, int(round(off_time / dt)))
    period = np.tile(base, (n_on + n_off, 1))
    period[:n_on, index] += on_power
    samples = np.tile(period, (cycles, 1))
    return PowerTrace(floorplan.names, samples, dt)


def power_handoff(
    floorplan: Floorplan,
    first_block: str,
    second_block: str,
    power: float,
    switch_time: float,
    total_time: float,
    dt: float,
) -> PowerTrace:
    """Power on one block, then switched entirely to another (Fig. 9).

    The paper applies 2 W to IntReg for 10 ms with FPMap idle, then
    turns IntReg off and FPMap on, and asks which block is hottest at
    14 ms under each package.
    """
    if not 0 < switch_time < total_time:
        raise PowerTraceError("need 0 < switch_time < total_time")
    n_total = max(2, int(round(total_time / dt)))
    n_first = max(1, min(n_total - 1, int(round(switch_time / dt))))
    samples = np.zeros((n_total, len(floorplan)))
    samples[:n_first, floorplan.index_of(first_block)] = power
    samples[n_first:, floorplan.index_of(second_block)] = power
    return PowerTrace(floorplan.names, samples, dt)

