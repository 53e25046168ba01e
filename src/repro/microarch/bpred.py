"""Branch predictor models.

A bimodal (2-bit saturating counter) predictor indexed by PC -- the
classic baseline and close to the EV6's local history component for
this purpose.

A chunk of branches is predicted and trained as array work, exactly as
if the branches ran one at a time.  Branches are grouped by table entry
with a stable sort, which keeps each entry's program order; only
branches sharing an entry interact.  Every update is the map
``x -> clamp(x ± 1, 0, 3)``, and the maps of an entry's branches
compose, so a segmented prefix composition (:mod:`.scan`) gives the
counter each branch read before its own update.
"""

from __future__ import annotations


import numpy as np

from ..errors import ConfigurationError
from .scan import compose_prefix

#: Counter update maps as lookup tables over the states 0..3.
_NOT_TAKEN = np.array([0, 0, 1, 2], dtype=np.int8)
_TAKEN = np.array([1, 2, 3, 3], dtype=np.int8)


class BimodalPredictor:
    """2-bit saturating-counter branch predictor."""

    def __init__(self, table_bits: int = 12) -> None:
        if not 4 <= table_bits <= 24:
            raise ConfigurationError("table_bits must lie in [4, 24]")
        self.table_bits = int(table_bits)
        self.size = 1 << self.table_bits
        # Counters start weakly taken (2 on the 0..3 scale).
        self.counters = np.full(self.size, 2, dtype=np.int8)
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pcs: np.ndarray) -> np.ndarray:
        return (pcs >> 2) & (self.size - 1)

    def predict_and_update(
        self, pcs: np.ndarray, taken: np.ndarray
    ) -> np.ndarray:
        """Predict a chunk of branches and train the counters.

        ``pcs`` is a 1-D integer array and ``taken`` the branch outcomes
        of the same shape.  Returns a boolean array: True where the
        prediction was wrong.
        """
        pcs = np.asarray(pcs)
        taken = np.asarray(taken)
        if pcs.ndim != 1 or pcs.dtype.kind not in "iu":
            raise ConfigurationError("branch pcs must be a 1-D integer array")
        if taken.shape != pcs.shape:
            raise ConfigurationError("pcs and outcomes must align")
        taken = taken.astype(bool, copy=False)
        indices = self._index(pcs.astype(np.int64, copy=False))
        order = np.argsort(indices, kind="stable")
        entries = indices[order]
        outcomes = taken[order]
        rows = np.arange(entries.size)
        first = np.ones(entries.size, dtype=bool)
        first[1:] = entries[1:] != entries[:-1]
        starts = np.maximum.accumulate(np.where(first, rows, 0))
        after = compose_prefix(
            np.where(outcomes[:, None], _TAKEN, _NOT_TAKEN), starts
        )
        initial = self.counters[entries]
        # counter before each update: the entry's chunk-start value
        # pushed through the entry's earlier updates
        before = np.where(first, initial, after[rows - 1, initial])
        last = np.ones(entries.size, dtype=bool)
        last[:-1] = first[1:]
        self.counters[entries[last]] = after[last, initial[last]]
        wrong = np.empty(pcs.shape, dtype=bool)
        wrong[order] = (before >= 2) != outcomes
        self.predictions += int(pcs.size)
        self.mispredictions += int(wrong.sum())
        return wrong

    @property
    def misprediction_rate(self) -> float:
        """Cumulative misprediction rate over everything predicted."""
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
