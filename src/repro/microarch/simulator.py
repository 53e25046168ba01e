"""The top-level microarchitecture simulator: workload -> power trace.

Walks the synthetic instruction stream in chunks, feeding each chunk
through the branch predictor, the cache hierarchy and the interval
pipeline model, then bins the resulting activity into fixed cycle
windows (10 kcycles by default, the paper's Fig. 12 sampling) and
converts every window to a per-block power vector with the energy
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..floorplan.block import Floorplan
from ..power.trace import PowerTrace
from .bpred import BimodalPredictor
from .caches import CacheHierarchy
from .core import ActivityCounts, IntervalCore, PipelineConfig
from .energy import EnergyModel, default_ev6_energy_model
from .workload import BRANCH, LOAD, STORE, SyntheticWorkload


@dataclass
class SimulationSummary:
    """Aggregate statistics of one simulator run."""

    instructions: int
    cycles: float
    ipc: float
    branch_misprediction_rate: float
    l1i_miss_rate: float
    l1d_miss_rate: float
    l2_miss_rate: float


class MicroarchSimulator:
    """Workload-to-power simulation pipeline."""

    def __init__(
        self,
        floorplan: Floorplan,
        pipeline: Optional[PipelineConfig] = None,
        energy: Optional[EnergyModel] = None,
        hierarchy: Optional[CacheHierarchy] = None,
        predictor: Optional[BimodalPredictor] = None,
        window_cycles: int = 10_000,
        fetch_sample_stride: int = 4,
    ) -> None:
        if window_cycles < 100:
            raise ConfigurationError("window_cycles must be >= 100")
        if fetch_sample_stride < 1:
            raise ConfigurationError("fetch_sample_stride must be >= 1")
        self.floorplan = floorplan
        self.pipeline = pipeline or PipelineConfig()
        self.energy = energy or default_ev6_energy_model(floorplan)
        self.hierarchy = hierarchy or CacheHierarchy()
        self.predictor = predictor or BimodalPredictor()
        self.core = IntervalCore(self.pipeline)
        self.window_cycles = int(window_cycles)
        # The I-cache is probed once per fetch group, not per
        # instruction; sampling every `stride` PCs keeps the functional
        # simulation affordable while preserving miss behavior.
        self.fetch_sample_stride = int(fetch_sample_stride)
        self.last_summary: Optional[SimulationSummary] = None
        self.last_window_phases: Optional[np.ndarray] = None

    def run(self, workload: SyntheticWorkload,
            chunk_size: int = 16384) -> PowerTrace:
        """Simulate a workload and return its per-block power trace."""
        window_time = self.window_cycles / self.pipeline.clock_hz
        windows: List[np.ndarray] = []
        window_phases: List[int] = []
        phase_index = 0
        carry = ActivityCounts(cycles=0.0, instructions=0, accesses={})
        total_instr = 0
        total_cycles = 0.0
        mem_accesses = 0

        for phase_index, chunk in workload.chunks(chunk_size):
            sampled_pcs = chunk.pcs[:: self.fetch_sample_stride]
            is_mem = (chunk.classes == LOAD) | (chunk.classes == STORE)
            data_addresses = chunk.addresses[is_mem]
            stats = self.hierarchy.simulate_chunk(sampled_pcs, data_addresses)
            # Scale I-cache activity back to per-instruction-group rates.
            stats.l1i_accesses *= self.fetch_sample_stride
            stats.l1i_misses *= self.fetch_sample_stride
            is_branch = chunk.classes == BRANCH
            wrong = self.predictor.predict_and_update(
                chunk.pcs[is_branch], chunk.taken[is_branch]
            )
            activity = self.core.chunk_activity(chunk, stats, int(wrong.sum()))
            total_instr += activity.instructions
            total_cycles += activity.cycles
            mem_accesses += int(data_addresses.size)

            carry = carry + activity
            while carry.cycles >= self.window_cycles:
                fraction = self.window_cycles / carry.cycles
                window_part = carry.scaled(fraction)
                windows.append(
                    self.energy.block_power(window_part, window_time)
                )
                window_phases.append(phase_index)
                carry = carry + window_part.scaled(-1.0)
                # Guard against drift from the float split.
                carry.cycles = max(carry.cycles, 0.0)

        if carry.cycles > 0.5 * self.window_cycles or not windows:
            windows.append(
                self.energy.block_power(
                    carry, carry.cycles / self.pipeline.clock_hz
                    if carry.cycles else window_time
                )
            )
            window_phases.append(phase_index)

        self.last_summary = SimulationSummary(
            instructions=total_instr,
            cycles=total_cycles,
            ipc=total_instr / total_cycles if total_cycles else 0.0,
            branch_misprediction_rate=self.predictor.misprediction_rate,
            l1i_miss_rate=self.hierarchy.l1i.miss_rate,
            l1d_miss_rate=self.hierarchy.l1d.miss_rate,
            l2_miss_rate=self.hierarchy.l2.miss_rate,
        )
        samples = np.clip(np.vstack(windows), 0.0, None)
        self.last_window_phases = np.asarray(window_phases, dtype=int)
        return PowerTrace(self.floorplan.names, samples, window_time)
