"""Metrics over DTM runs and temperature traces.

Quantifies the Section 5 comparisons: time spent in thermal violation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def time_above_threshold(
    times: np.ndarray, temps: np.ndarray, threshold: float
) -> float:
    """Total time (s) a temperature trace spends at/above a threshold."""
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if times.size != temps.size or times.size < 2:
        raise ConfigurationError("need matching arrays with >= 2 samples")
    dt = np.diff(times)
    above = temps[1:] >= threshold
    return float(dt[above].sum())
