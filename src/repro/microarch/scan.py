"""Segmented prefix composition of small finite maps.

A sequential state machine whose state lives in ``{0, ..., m-1}`` and
whose every step applies one map ``f_i`` of that set to itself can be
unrolled without a Python loop: composition is associative, so the
state after step ``i`` is ``(f_i ∘ ... ∘ f_0)(x0)``, and all of those
prefix compositions follow from ``log2(n)`` array passes
(Hillis-Steele).  Maps are lookup tables, one row per step, so the
result is exact for any map, including saturating counters and
branch-dependent program-counter parities.
"""

from __future__ import annotations

import numpy as np


def compose_prefix(tables: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inclusive prefix compositions of lookup-table maps, per segment.

    ``tables`` is an ``(n, m)`` integer array: row ``i`` maps state
    ``x`` to ``tables[i, x]``.  ``starts[i]`` is the index of the first
    row of the segment that row ``i`` belongs to.  Returns ``out`` with
    ``out[i] = tables[i] ∘ tables[i-1] ∘ ... ∘ tables[starts[i]]``, so
    ``out[i, x]`` is the state after row ``i`` of a segment entered in
    state ``x``.
    """
    out = np.array(tables, copy=True)
    depth = np.arange(len(out)) - starts  # rows before i in its segment
    span = 1
    while span <= depth.max(initial=0):
        combined = np.take_along_axis(out[span:], out[:-span], axis=1)
        reach = (depth[span:] >= span)[:, None]
        out[span:] = np.where(reach, combined, out[span:])
        span *= 2
    return out
