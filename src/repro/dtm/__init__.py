"""Dynamic thermal management: policies, closed-loop control, metrics."""

from .policies import DTMPolicy, FetchThrottle, DVFS, ClockGating
from .controller import DTMController, DTMRun
from .predictive import PredictiveDTMController
from .metrics import time_above_threshold

__all__ = [
    "DTMPolicy",
    "FetchThrottle",
    "DVFS",
    "ClockGating",
    "DTMController",
    "DTMRun",
    "PredictiveDTMController",
    "time_above_threshold",
]
