"""A microarchitecture activity/power simulator (the Wattch substitute).

The paper drives its Fig. 10/12 experiments with per-block power traces
of an Alpha EV6-like processor running ``gcc``, produced by
SimpleScalar + Wattch.  Neither tool (nor SPEC traces) is available
here, so this package provides the substitute described in DESIGN.md:

* :mod:`workload` -- synthetic, phase-structured instruction streams
  with controllable mix, locality, and branch behavior (the "gcc-like"
  preset);
* :mod:`bpred`, :mod:`caches` -- functional branch predictor and cache
  hierarchy models, simulated on the instruction stream;
* :mod:`core` -- an interval-style out-of-order pipeline model that
  converts the stream + miss/misprediction events into per-cycle
  structure access counts;
* :mod:`energy` -- Wattch-style per-access energies plus leakage,
  mapped onto floorplan blocks;
* :mod:`simulator` -- ties everything together into a
  :class:`~repro.power.PowerTrace` sampled every N cycles (the paper
  samples every 10 kcycles, ~3.3 us).

Absolute IPC fidelity is not the goal; the produced traces match the
statistics the thermal experiments rely on (hot integer core, cool L2,
microsecond-scale burstiness, program phases).
"""

from .workload import SyntheticWorkload, gcc_like_workload
from .bpred import BimodalPredictor
from .caches import SetAssociativeCache, CacheHierarchy
from .core import PipelineConfig, IntervalCore, ActivityCounts
from .energy import EnergyModel, default_ev6_energy_model
from .simulator import MicroarchSimulator
from .synthesis import TraceSynthesizer

__all__ = [
    "SyntheticWorkload",
    "gcc_like_workload",
    "BimodalPredictor",
    "SetAssociativeCache",
    "CacheHierarchy",
    "PipelineConfig",
    "IntervalCore",
    "ActivityCounts",
    "EnergyModel",
    "default_ev6_energy_model",
    "MicroarchSimulator",
    "TraceSynthesizer",
]
