"""Extract thermal time constants from transient traces.

The paper's Fig. 7 analysis predicts the packages' time constants
analytically (Eqns 5-6); :func:`rise_time` reads the 63% time back out
of simulated (or measured) step responses so prediction and model can
be compared, and the rate-of-change helpers drive the Section 5.2
sampling argument.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError


def rise_time(
    times: np.ndarray, values: np.ndarray, fraction: float = 0.63
) -> float:
    """First time the trace reaches ``fraction`` of its final value."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    target = fraction * values[-1]
    above = np.nonzero(values >= target)[0]
    if above.size == 0:
        raise SolverError("trace never reaches the target fraction")
    i = int(above[0])
    if i == 0:
        return float(times[0])
    # Linear interpolation inside the crossing interval.
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    if v1 == v0:
        return float(t1)
    return float(t0 + (target - v0) / (v1 - v0) * (t1 - t0))


def max_rate_of_change(times: np.ndarray, values: np.ndarray) -> float:
    """Peak |dv/dt| along a trace (K/s).

    Drives the paper's Section 5.2 sampling argument: IntReg rises about
    5 C in 3 ms, so resolving 0.1 C requires sampling every ~60 us.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 2:
        raise SolverError("need at least two points")
    return float(np.max(np.abs(np.diff(values) / np.diff(times))))


def required_sampling_interval(
    times: np.ndarray, values: np.ndarray, resolution: float
) -> float:
    """Sampling interval needed so consecutive samples differ by at most
    ``resolution`` at the trace's fastest point (seconds)."""
    if resolution <= 0:
        raise SolverError("resolution must be positive")
    return resolution / max_rate_of_change(times, values)
