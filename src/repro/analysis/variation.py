"""Variation-aware thermal characterization (Monte-Carlo).

The paper's related work (Section 2.3) discusses Kursun & Cher's
variation-aware thermal characterization: die-to-die and within-die
process variation perturbs each block's power, so the thermal picture
is a distribution, not a single map.  Because the steady-state problem
is linear, every sample shares one factorization and costs one
back-substitution -- and the interesting question the paper
raises can be answered quantitatively: the poorly-spreading
OIL-SILICON configuration converts a given power variation into a much
wider temperature spread than AIR-SINK, affecting the guard-bands a
designer would derive from bench measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import SolverError
from ..solver.steady import steady_state


@dataclass
class VariationStudy:
    """Monte-Carlo results over per-block power variation."""

    block_names: list
    samples: np.ndarray         # (n_samples, n_blocks) block temps, K
    power_samples: np.ndarray   # (n_samples, n_blocks) powers, W

    @property
    def mean(self) -> np.ndarray:
        """Per-block mean temperature, K."""
        return self.samples.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        """Per-block temperature standard deviation, K."""
        return self.samples.std(axis=0)

    def quantile(self, q: float) -> np.ndarray:
        """Per-block temperature quantile (e.g. 0.99 for guard-bands)."""
        return np.quantile(self.samples, q, axis=0)

    def guard_band(self, q: float = 0.99) -> np.ndarray:
        """Quantile minus mean: the margin a threshold must keep, K."""
        return self.quantile(q) - self.mean

    def hotspot_distribution(self) -> Dict[str, float]:
        """Fraction of sampled dies on which each block is hottest."""
        winners = np.argmax(self.samples, axis=1)
        counts = np.bincount(winners, minlength=len(self.block_names))
        return {
            name: float(c) / self.samples.shape[0]
            for name, c in zip(self.block_names, counts)
            if c
        }


def power_variation_study(
    model,
    nominal_power,
    sigma_fraction: float = 0.1,
    n_samples: int = 200,
    correlation: float = 0.5,
    seed: int = 0,
) -> VariationStudy:
    """Sample block powers and solve each die's steady state.

    Power variation follows the standard decomposition: a die-to-die
    (fully correlated) lognormal factor plus independent within-die
    per-block lognormal factors; ``correlation`` sets the share of the
    total (log-domain) variance carried by the die-to-die component.

    Parameters
    ----------
    model:
        A thermal model (grid or block flavor; the samples are the
        columns of one steady solve, so each costs one back-substitution).
    nominal_power:
        Per-block nominal power, vector or name->W dict.
    sigma_fraction:
        Total relative power sigma per block (~0.1 = 10% variation).
    correlation:
        Die-to-die share of the variance, in [0, 1].
    """
    if isinstance(nominal_power, dict):
        nominal_power = model.floorplan.power_vector(nominal_power)
    nominal_power = np.asarray(nominal_power, dtype=float)
    if np.any(nominal_power < 0):
        raise SolverError("nominal powers must be non-negative")
    if not 0.0 <= correlation <= 1.0:
        raise SolverError("correlation must lie in [0, 1]")
    if sigma_fraction < 0 or n_samples < 1:
        raise SolverError("bad sigma_fraction or n_samples")

    rng = np.random.default_rng(seed)
    n_blocks = len(model.floorplan)
    sigma_log = np.log1p(sigma_fraction)
    sigma_d2d = sigma_log * np.sqrt(correlation)
    sigma_wid = sigma_log * np.sqrt(1.0 - correlation)

    powers = np.empty((n_samples, n_blocks))
    for i in range(n_samples):
        d2d = rng.normal(0.0, sigma_d2d)
        wid = rng.normal(0.0, sigma_wid, size=n_blocks)
        factor = np.exp(d2d + wid - 0.5 * sigma_log**2)
        powers[i] = nominal_power * factor
    rises = steady_state(
        model.network,
        np.column_stack([model.node_power(power) for power in powers]),
    )
    block_rises = np.array([model.block_rise(rise) for rise in rises.T])
    return VariationStudy(
        block_names=model.floorplan.names,
        samples=block_rises + model.config.ambient,
        power_samples=powers,
    )
