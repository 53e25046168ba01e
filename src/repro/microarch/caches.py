"""Functional cache models.

Set-associative caches with true-LRU replacement, simulated on address
streams.  The hierarchy mirrors the EV6: split 64 KB L1 I/D caches
backed by a unified L2; per chunk, L2 sees all of the L1I misses, then
all of the L1D misses.  Only hit/miss behavior is modelled (no data or
TLBs), which is all the activity/power model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Tags are stored per set in recency order (index 0 = most recent,
    -1 = invalid way).  :meth:`access_block` simulates a whole block of
    addresses as array work and gives, per access, the same hit flag
    and leaves the same tag state as accessing the addresses one by one:

    * the block is stable-sorted by set, which keeps each set's program
      order; accesses to different sets never interact;
    * an access whose tag equals the previous tag seen by its set is a
      hit on the most recent way and changes nothing, so it is settled
      without a lookup;
    * the rest advance all sets together, one access per set per round:
      each round compares a ``(sets x ways)`` slab of tags and moves the
      hit way, or on a miss the LRU way, to the front.

    The state stays warm across blocks.
    """

    def __init__(
        self, size_bytes: int, line_bytes: int, ways: int, name: str = "cache"
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ConfigurationError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines % ways:
            raise ConfigurationError("lines must divide evenly into ways")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = n_lines // ways
        if self.n_sets & (self.n_sets - 1):
            raise ConfigurationError("set count must be a power of two")
        self._set_mask = self.n_sets - 1
        self._set_bits = self.n_sets.bit_length() - 1
        self._line_shift = int(np.log2(line_bytes))
        if (1 << self._line_shift) != line_bytes:
            raise ConfigurationError("line size must be a power of two")
        # recency-ordered tag list per set; -1 = invalid.
        self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
        self._way_numbers = np.arange(ways)
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one address; returns True on hit (and updates LRU)."""
        return bool(self.access_block(np.asarray([address]))[0])

    def access_block(self, addresses: np.ndarray) -> np.ndarray:
        """Access a sequence of addresses; returns per-access hit flags.

        ``addresses`` must be a 1-D array of non-negative integers.
        """
        addresses = np.asarray(addresses)
        if addresses.ndim != 1 or addresses.dtype.kind not in "iu":
            raise ConfigurationError(
                f"{self.name}: addresses must be a 1-D integer array"
            )
        lines = addresses.astype(np.int64, copy=False) >> self._line_shift
        if lines.size and lines.min() < 0:
            raise ConfigurationError(
                f"{self.name}: addresses must be non-negative"
            )
        sets = lines & self._set_mask
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        tags = lines[order] >> self._set_bits
        first = np.ones(sets.size, dtype=bool)
        first[1:] = sets[1:] != sets[:-1]
        previous = np.where(first, self._tags[sets, 0], np.roll(tags, 1))
        hits = tags == previous
        pending = np.flatnonzero(~hits)
        if pending.size:
            # round of each pending access: its rank among its set's
            # pending accesses
            head = np.ones(pending.size, dtype=bool)
            head[1:] = sets[pending[1:]] != sets[pending[:-1]]
            ranks = np.arange(pending.size)
            ranks -= np.maximum.accumulate(np.where(head, ranks, 0))
            pending = pending[np.argsort(ranks, kind="stable")]
            bounds = np.cumsum(np.bincount(ranks)).tolist()
            for lo, hi in zip([0] + bounds[:-1], bounds):
                self._advance(pending[lo:hi], sets, tags, hits)
        self.accesses += int(hits.size)
        self.misses += int(hits.size - np.count_nonzero(hits))
        result = np.empty(hits.shape, dtype=bool)
        result[order] = hits
        return result

    def _advance(self, group: np.ndarray, sets: np.ndarray,
                 tags: np.ndarray, hits: np.ndarray) -> None:
        """Apply one access to each of distinct sets, in lockstep."""
        rows = sets[group]
        tag = tags[group]
        state = self._tags[rows]
        match = state == tag[:, None]
        hit = match.any(axis=1)
        # the way that moves to the front: the hit way, else the LRU way
        way = np.where(hit, match.argmax(axis=1), self.ways - 1)
        shifted = np.empty_like(state)
        shifted[:, 0] = tag
        shifted[:, 1:] = state[:, :-1]
        self._tags[rows] = np.where(
            self._way_numbers <= way[:, None], shifted, state
        )
        hits[group] = hit

    @property
    def miss_rate(self) -> float:
        """Cumulative miss rate."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class HierarchyStats:
    """Per-level access/miss counts for one simulated chunk."""

    l1i_accesses: int
    l1i_misses: int
    l1d_accesses: int
    l1d_misses: int
    l2_accesses: int
    l2_misses: int


class CacheHierarchy:
    """EV6-like hierarchy: split L1 I/D, unified L2."""

    def __init__(
        self,
        l1i: Tuple[int, int, int] = (64 * 1024, 64, 2),
        l1d: Tuple[int, int, int] = (64 * 1024, 64, 2),
        l2: Tuple[int, int, int] = (2 * 1024 * 1024, 64, 8),
    ) -> None:
        self.l1i = SetAssociativeCache(*l1i, name="l1i")
        self.l1d = SetAssociativeCache(*l1d, name="l1d")
        self.l2 = SetAssociativeCache(*l2, name="l2")

    def simulate_chunk(
        self,
        pcs: np.ndarray,
        data_addresses: np.ndarray,
    ) -> HierarchyStats:
        """Run instruction fetches and data accesses through the levels.

        ``pcs`` are sampled fetch addresses, ``data_addresses`` the
        chunk's load/store addresses.  L1 misses are forwarded to L2 as
        one block: all of the chunk's L1I misses, then all of its L1D
        misses, each in program order.  L2 misses stand for DRAM
        traffic.
        """
        pcs = np.asarray(pcs)
        data_addresses = np.asarray(data_addresses)
        i_hits = self.l1i.access_block(pcs)
        d_hits = self.l1d.access_block(data_addresses)
        l2_hits = self.l2.access_block(
            np.concatenate((pcs[~i_hits], data_addresses[~d_hits]))
        )
        return HierarchyStats(
            l1i_accesses=int(pcs.size),
            l1i_misses=int(pcs.size - np.count_nonzero(i_hits)),
            l1d_accesses=int(data_addresses.size),
            l1d_misses=int(data_addresses.size - np.count_nonzero(d_hits)),
            l2_accesses=int(l2_hits.size),
            l2_misses=int(l2_hits.size - np.count_nonzero(l2_hits)),
        )
