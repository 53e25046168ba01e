"""Per-element reference models of the microarchitecture kernels.

These are the original scalar loops of ``SetAssociativeCache.access``,
``CacheHierarchy.simulate_chunk``, ``BimodalPredictor.predict_and_update``
and ``workload._generate_chunk``, kept verbatim as the specification the
array kernels in :mod:`repro.microarch` must match bit for bit.  They
are slow on purpose; only the exactness tests use them.

The four non-gcc workload presets live here too: no claim runs them,
but with gcc they give the exactness tests all five access patterns.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.microarch.bpred import BimodalPredictor
from repro.microarch.caches import CacheHierarchy, HierarchyStats
from repro.microarch.workload import (
    BRANCH, FP_ADD, FP_MUL, INT_ALU, INT_MUL, LOAD, N_CLASSES, STORE,
    InstructionChunk, Phase, SyntheticWorkload,
)


class ReferenceCache:
    """True-LRU set-associative cache, one Python scan per access."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int) -> None:
        n_lines = size_bytes // line_bytes
        self.ways = ways
        self.n_sets = n_lines // ways
        self._set_mask = self.n_sets - 1
        self._line_shift = int(np.log2(line_bytes))
        # recency-ordered tag list per set; -1 = invalid.
        self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one address; returns True on hit (and updates LRU)."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        tag = line >> int(np.log2(self.n_sets)) if self.n_sets > 1 else line
        row = self._tags[set_index]
        self.accesses += 1
        for way in range(self.ways):
            if row[way] == tag:
                if way:
                    row[1:way + 1] = row[0:way]
                    row[0] = tag
                return True
        # miss: evict LRU (last), insert MRU (first)
        row[1:] = row[:-1]
        row[0] = tag
        self.misses += 1
        return False

    def access_block(self, addresses: np.ndarray) -> np.ndarray:
        """Access a sequence of addresses; returns per-access hit flags."""
        addresses = np.asarray(addresses, dtype=np.int64)
        hits = np.empty(addresses.shape, dtype=bool)
        for i, address in enumerate(addresses):
            hits[i] = self.access(int(address))
        return hits

    @property
    def miss_rate(self) -> float:
        """Cumulative miss rate."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class ReferenceHierarchy(CacheHierarchy):
    """The EV6-like hierarchy on :class:`ReferenceCache` levels."""

    def __init__(
        self,
        l1i: Tuple[int, int, int] = (64 * 1024, 64, 2),
        l1d: Tuple[int, int, int] = (64 * 1024, 64, 2),
        l2: Tuple[int, int, int] = (2 * 1024 * 1024, 64, 8),
    ) -> None:
        self.l1i = ReferenceCache(*l1i)
        self.l1d = ReferenceCache(*l1d)
        self.l2 = ReferenceCache(*l2)

    def simulate_chunk(
        self,
        pcs: np.ndarray,
        data_addresses: np.ndarray,
    ) -> HierarchyStats:
        i_hits = self.l1i.access_block(np.asarray(pcs, dtype=np.int64))
        i_misses = np.flatnonzero(~i_hits)
        d_hits = self.l1d.access_block(np.asarray(data_addresses, np.int64))
        d_misses = np.flatnonzero(~d_hits)
        l2_accesses = 0
        l2_misses = 0
        for idx in i_misses:
            l2_accesses += 1
            if not self.l2.access(int(pcs[idx])):
                l2_misses += 1
        for idx in d_misses:
            l2_accesses += 1
            if not self.l2.access(int(data_addresses[idx])):
                l2_misses += 1
        return HierarchyStats(
            l1i_accesses=int(len(pcs)),
            l1i_misses=int(i_misses.size),
            l1d_accesses=int(len(data_addresses)),
            l1d_misses=int(d_misses.size),
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
        )


class ReferencePredictor(BimodalPredictor):
    """Bimodal predictor trained one branch at a time."""

    def predict_and_update(
        self, pcs: np.ndarray, taken: np.ndarray
    ) -> np.ndarray:
        pcs = np.asarray(pcs, dtype=np.int64)
        taken = np.asarray(taken, dtype=bool)
        indices = self._index(pcs)
        wrong = np.zeros(pcs.shape, dtype=bool)
        counters = self.counters
        for i in range(pcs.size):
            idx = indices[i]
            predicted_taken = counters[idx] >= 2
            actual = taken[i]
            wrong[i] = predicted_taken != actual
            if actual:
                if counters[idx] < 3:
                    counters[idx] += 1
            else:
                if counters[idx] > 0:
                    counters[idx] -= 1
        self.predictions += int(pcs.size)
        self.mispredictions += int(wrong.sum())
        return wrong


def reference_generate_chunk(
    phase: Phase,
    n: int,
    rng: np.random.Generator,
    cursor: int,
    hot_blocks: np.ndarray,
) -> Tuple[InstructionChunk, int]:
    """``workload._generate_chunk`` walking every instruction in Python."""
    classes = rng.choice(
        N_CLASSES, size=n, p=np.asarray(phase.mix)
    ).astype(np.int8)

    pcs = np.zeros(n, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    is_branch = classes == BRANCH
    outcomes = rng.random(n)
    pc = int(hot_blocks[int(rng.integers(0, len(hot_blocks)))])
    target_picks = rng.integers(0, len(hot_blocks), size=n)
    for i in range(n):
        pcs[i] = pc
        if is_branch[i]:
            if (pc >> 2) & 1:
                taken_prob = phase.branch_bias
            else:
                taken_prob = 1.0 - phase.branch_bias
            taken[i] = outcomes[i] < taken_prob
            if taken[i]:
                pc = int(hot_blocks[target_picks[i]])
                continue
        pc += 4

    addresses = np.zeros(n, dtype=np.int64)
    is_mem = (classes == LOAD) | (classes == STORE)
    mem_indices = np.flatnonzero(is_mem)
    if mem_indices.size:
        strided = rng.random(mem_indices.size) < phase.stride_fraction
        cold = rng.random(mem_indices.size) < phase.cold_fraction
        hot_size = min(phase.hot_set, phase.working_set)
        stride_wrap = max(8, min(phase.stride_region, phase.working_set))
        hot_randoms = rng.integers(0, max(8, hot_size),
                                   size=mem_indices.size)
        cold_randoms = rng.integers(0, max(8, phase.working_set),
                                    size=mem_indices.size)
        addr = cursor % stride_wrap
        for k, idx in enumerate(mem_indices):
            if strided[k]:
                addr = (addr + 8) % stride_wrap
                addresses[idx] = addr
            elif cold[k]:
                addresses[idx] = cold_randoms[k]
            else:
                addresses[idx] = hot_randoms[k]
        cursor = addr
    return InstructionChunk(classes, pcs, addresses, taken), cursor


CLASS_NAMES = {
    INT_ALU: "int_alu",
    INT_MUL: "int_mul",
    FP_ADD: "fp_add",
    FP_MUL: "fp_mul",
    LOAD: "load",
    STORE: "store",
    BRANCH: "branch",
}


def mix_summary(workload: SyntheticWorkload) -> Dict[str, float]:
    """Instruction-weighted average mix over all phases."""
    total = workload.total_instructions
    avg = np.zeros(N_CLASSES)
    for phase in workload.phases:
        avg += np.asarray(phase.mix) * (phase.instructions / total)
    return {CLASS_NAMES[c]: float(avg[c]) for c in range(N_CLASSES)}


def fp_intensive_workload(
    instructions: int = 2_000_000, seed: int = 1
) -> SyntheticWorkload:
    """FP-dominated stream (the FP row of the EV6 lights up instead)."""
    half = instructions // 2
    phases = [
        Phase((0.15, 0.01, 0.28, 0.22, 0.22, 0.08, 0.04),
              half, working_set=1 << 22, stride_fraction=0.9,
              branch_bias=0.97, code_footprint=1 << 15,
              stride_region=1 << 20, cold_fraction=0.02),
        Phase((0.18, 0.01, 0.24, 0.26, 0.20, 0.08, 0.03),
              instructions - half, working_set=1 << 23,
              stride_fraction=0.85, branch_bias=0.97,
              code_footprint=1 << 15, stride_region=1 << 20,
              cold_fraction=0.02),
    ]
    return SyntheticWorkload(phases, name="fp_intensive", seed=seed)


def compression_workload(
    instructions: int = 2_000_000, seed: int = 3
) -> SyntheticWorkload:
    """bzip2-flavored stream: integer-heavy, data-dependent branches,
    table-driven memory accesses over a mid-sized working set."""
    half = instructions // 2
    phases = [
        # modelling/encoding: branchy, hard-to-predict
        Phase((0.44, 0.02, 0.0, 0.0, 0.26, 0.10, 0.18),
              half, working_set=1 << 20, stride_fraction=0.35,
              branch_bias=0.80, code_footprint=1 << 15,
              hot_set=1 << 17, cold_fraction=0.02,
              stride_region=1 << 18),
        # block sorting: strided sweeps with good branches
        Phase((0.50, 0.02, 0.0, 0.0, 0.26, 0.08, 0.14),
              instructions - half, working_set=1 << 21,
              stride_fraction=0.8, branch_bias=0.95,
              code_footprint=1 << 14, cold_fraction=0.01,
              stride_region=1 << 19),
    ]
    return SyntheticWorkload(phases, name="compression", seed=seed)


def mixed_workload(
    instructions: int = 2_000_000, seed: int = 4
) -> SyntheticWorkload:
    """Alternating integer and FP program regions -- exercises the
    Fig. 9 scenario (hot spot migrating between IntReg and the FP row)
    under a realistic instruction stream."""
    quarter = instructions // 4
    int_mix = (0.50, 0.02, 0.005, 0.005, 0.24, 0.09, 0.14)
    fp_mix = (0.16, 0.01, 0.26, 0.24, 0.21, 0.08, 0.04)
    phases = [
        Phase(int_mix, quarter, working_set=1 << 19,
              stride_fraction=0.65, branch_bias=0.93,
              code_footprint=1 << 16, cold_fraction=0.01),
        Phase(fp_mix, quarter, working_set=1 << 21,
              stride_fraction=0.9, branch_bias=0.97,
              code_footprint=1 << 14, stride_region=1 << 19,
              cold_fraction=0.01),
        Phase(int_mix, quarter, working_set=1 << 19,
              stride_fraction=0.65, branch_bias=0.93,
              code_footprint=1 << 16, cold_fraction=0.01),
        Phase(fp_mix, instructions - 3 * quarter, working_set=1 << 21,
              stride_fraction=0.9, branch_bias=0.97,
              code_footprint=1 << 14, stride_region=1 << 19,
              cold_fraction=0.01),
    ]
    return SyntheticWorkload(phases, name="mixed", seed=seed)


def memory_bound_workload(
    instructions: int = 2_000_000, seed: int = 2
) -> SyntheticWorkload:
    """Pointer-chasing stream: large working set, little stride locality."""
    phases = [
        Phase((0.30, 0.01, 0.00, 0.00, 0.40, 0.14, 0.15),
              instructions, working_set=1 << 25, stride_fraction=0.1,
              branch_bias=0.80, code_footprint=1 << 17,
              stride_region=1 << 25, cold_fraction=0.5,
              hot_set=1 << 16),
    ]
    return SyntheticWorkload(phases, name="memory_bound", seed=seed)
