"""Synthetic instruction streams with program-phase structure.

A workload is a sequence of *phases*; each phase fixes an instruction
mix, a working-set size, memory stride behavior, and branch
predictability, and contributes a number of instructions.  Streams are
generated lazily in chunks as flat numpy arrays (class codes, PCs,
memory addresses, branch outcomes), which the cache/predictor models
consume directly.

The ``gcc_like`` preset mimics the published character of SPEC gcc:
integer-dominated, moderately branchy, noticeable L1-D activity, very
little floating point -- which is what makes the integer register file
the EV6 hot spot in the paper's figures while the FP row stays cool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from .scan import compose_prefix

#: Instruction class codes (compact integers for numpy streams).
INT_ALU = 0
INT_MUL = 1
FP_ADD = 2
FP_MUL = 3
LOAD = 4
STORE = 5
BRANCH = 6

N_CLASSES = 7


@dataclass(frozen=True)
class Phase:
    """One program phase.

    Parameters
    ----------
    mix:
        Probability per instruction class (must sum to 1).
    instructions:
        Number of instructions contributed by this phase.
    working_set:
        Data working-set size in bytes (drives cache behavior).
    stride_fraction:
        Fraction of memory accesses that walk sequentially; the rest
        are uniform over the working set.
    branch_bias:
        Probability a conditional branch repeats its previous outcome
        (higher = more predictable).
    code_footprint:
        Static code size in bytes (drives I-cache behavior).
    """

    mix: Tuple[float, ...]
    instructions: int
    working_set: int = 1 << 20
    stride_fraction: float = 0.6
    branch_bias: float = 0.9
    code_footprint: int = 1 << 16
    hot_set: int = 32 << 10
    cold_fraction: float = 0.05
    n_hot_blocks: int = 256
    stride_region: int = 64 << 10

    def __post_init__(self) -> None:
        if len(self.mix) != N_CLASSES:
            raise ConfigurationError(f"mix needs {N_CLASSES} entries")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigurationError("mix must sum to 1")
        if any(p < 0 for p in self.mix):
            raise ConfigurationError("mix probabilities must be >= 0")
        if self.instructions < 1:
            raise ConfigurationError("phase needs at least one instruction")
        if not 0.0 <= self.stride_fraction <= 1.0:
            raise ConfigurationError("stride_fraction must lie in [0, 1]")
        if not 0.0 <= self.branch_bias <= 1.0:
            raise ConfigurationError("branch_bias must lie in [0, 1]")
        if not 0.0 <= self.cold_fraction <= 1.0:
            raise ConfigurationError("cold_fraction must lie in [0, 1]")
        if self.hot_set < 8 or self.n_hot_blocks < 1:
            raise ConfigurationError("hot_set/n_hot_blocks too small")
        if self.stride_region < 8:
            raise ConfigurationError("stride_region too small")


@dataclass
class InstructionChunk:
    """A generated block of instructions as parallel arrays."""

    classes: np.ndarray      # int8 class codes
    pcs: np.ndarray          # int64 instruction addresses
    addresses: np.ndarray    # int64 memory addresses (0 for non-memory)
    taken: np.ndarray        # bool branch outcomes (False for non-branches)

    def __len__(self) -> int:
        return len(self.classes)


class SyntheticWorkload:
    """A phase sequence plus deterministic stream generation."""

    def __init__(self, phases: List[Phase], name: str, seed: int = 0) -> None:
        if not phases:
            raise ConfigurationError("workload needs at least one phase")
        self.phases = list(phases)
        self.name = name
        self.seed = int(seed)

    @property
    def total_instructions(self) -> int:
        """Instructions across all phases."""
        return sum(p.instructions for p in self.phases)

    def chunks(self, chunk_size: int = 65536) -> Iterator[Tuple[int, InstructionChunk]]:
        """Yield (phase_index, chunk) pairs across the whole workload."""
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        rng = np.random.default_rng(self.seed)
        for phase_index, phase in enumerate(self.phases):
            remaining = phase.instructions
            cursor = int(rng.integers(0, max(1, phase.working_set)))
            # The phase's hot loop structure: a fixed set of basic-block
            # entry points all jumps target (real code revisits the same
            # loops; this is what gives the I-cache its locality).
            hot_blocks = (
                rng.integers(
                    0, max(4, phase.code_footprint), size=phase.n_hot_blocks
                ) & ~np.int64(3)
            )
            while remaining > 0:
                n = min(chunk_size, remaining)
                chunk, cursor = _generate_chunk(
                    phase, n, rng, cursor, hot_blocks
                )
                yield phase_index, chunk
                remaining -= n


def _generate_chunk(
    phase: Phase,
    n: int,
    rng: np.random.Generator,
    cursor: int,
    hot_blocks: np.ndarray,
) -> Tuple[InstructionChunk, int]:
    classes = rng.choice(
        N_CLASSES, size=n, p=np.asarray(phase.mix)
    ).astype(np.int8)

    # PCs walk basic blocks: sequential 4-byte instructions; taken
    # branches jump to one of the phase's hot basic-block entry points.
    # Each *static* branch (identified by its PC) has a stable bias, so
    # a PC-indexed predictor can learn it -- mispredictions then track
    # (1 - branch_bias) as they do for real integer codes.
    outcomes = rng.random(n)
    start = int(hot_blocks[int(rng.integers(0, len(hot_blocks)))])
    target_picks = rng.integers(0, len(hot_blocks), size=n)
    pcs, taken = _walk_pcs(
        phase.branch_bias, classes == BRANCH, outcomes, start,
        hot_blocks[target_picks],
    )

    # Memory addresses: a strided walk wrapping within a bounded reuse
    # region (real loops re-traverse the same arrays) for
    # stride_fraction of accesses; the rest hit a small hot region with
    # occasional cold excursions over the full working set.
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
        # the k-th strided access steps 8 bytes past the (k-1)-th
        walk = (cursor % stride_wrap + 8 * np.cumsum(strided)) % stride_wrap
        addresses[mem_indices] = np.where(
            strided, walk, np.where(cold, cold_randoms, hot_randoms)
        )
        cursor = int(walk[-1])
    return InstructionChunk(classes, pcs, addresses, taken), cursor


def _walk_pcs(
    branch_bias: float,
    is_branch: np.ndarray,
    outcomes: np.ndarray,
    start: int,
    targets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Program counters and branch outcomes of one chunk.

    Instruction ``i`` sits at the PC reached from ``start`` by 4-byte
    steps, except that a taken branch at ``i`` sends instruction
    ``i + 1`` to ``targets[i]``.  A branch is taken when
    ``outcomes[i]`` falls below ``branch_bias`` if bit 2 of its PC is
    set, and below ``1 - branch_bias`` otherwise.

    Only that PC bit feeds back into the walk.  Between consecutive
    branches it evolves by a map of ``{0, 1}`` fixed by the gap and the
    first branch's outcome draw and target, so a prefix composition of
    those maps (:func:`~repro.microarch.scan.compose_prefix`) gives the
    bit, and so the outcome, at every branch.  The PCs then follow in
    closed form: ``segment start + 4 * offset``, where segments begin at
    instruction 0 and after each taken branch.
    """
    n = is_branch.size
    branches = np.flatnonzero(is_branch)
    taken = np.zeros(n, dtype=bool)
    if branches.size:
        draws = outcomes[branches]
        # outcome at a branch whose PC bit 2 is 0 (column 0) or 1
        by_bit = np.stack(
            (draws < 1.0 - branch_bias, draws < branch_bias), axis=1
        )
        jump_bits = (targets[branches] >> 2) & 1
        gaps = np.diff(branches)
        # bit at the next branch: from the jump target, taken, or
        # from this branch's own PC, not taken
        steps = np.where(
            by_bit[:-1],
            (jump_bits[:-1] ^ ((gaps - 1) & 1))[:, None],
            np.arange(2) ^ (gaps & 1)[:, None],
        ).astype(np.int8)
        bits = np.empty(branches.size, dtype=np.int64)
        bits[0] = ((start >> 2) ^ branches[0]) & 1
        prefix = compose_prefix(steps, np.zeros(gaps.size, dtype=np.int64))
        bits[1:] = prefix[:, bits[0]]
        taken[branches] = by_bit[np.arange(branches.size), bits]
    jumps = np.flatnonzero(taken[:-1])
    seg_starts = np.concatenate(([0], jumps + 1))
    seg_pcs = np.concatenate(([start], targets[jumps]))
    pcs = np.repeat(seg_pcs - 4 * seg_starts, np.diff(seg_starts, append=n))
    pcs += 4 * np.arange(n, dtype=np.int64)
    return pcs, taken


# --- presets --------------------------------------------------------------


def gcc_like_workload(
    instructions: int = 2_000_000, seed: int = 0
) -> SyntheticWorkload:
    """Integer-heavy, branchy, phase-alternating stream ("gcc-like")."""
    base = instructions // 4
    #       int_alu int_mul fp_add fp_mul load  store branch
    phases = [
        Phase((0.46, 0.02, 0.005, 0.005, 0.26, 0.10, 0.15),
              base, working_set=1 << 20, stride_fraction=0.55,
              branch_bias=0.93, code_footprint=1 << 18,
              cold_fraction=0.01),
        Phase((0.52, 0.03, 0.00, 0.00, 0.22, 0.08, 0.15),
              base, working_set=1 << 18, stride_fraction=0.75,
              branch_bias=0.96, code_footprint=1 << 16,
              cold_fraction=0.005),
        Phase((0.40, 0.02, 0.01, 0.01, 0.30, 0.12, 0.14),
              base, working_set=1 << 21, stride_fraction=0.5,
              branch_bias=0.92, code_footprint=1 << 18,
              cold_fraction=0.02),
        Phase((0.50, 0.02, 0.005, 0.005, 0.24, 0.09, 0.14),
              instructions - 3 * base, working_set=1 << 19,
              stride_fraction=0.65, branch_bias=0.94,
              code_footprint=1 << 17, cold_fraction=0.01),
    ]
    return SyntheticWorkload(phases, name="gcc_like", seed=seed)
