"""The PowerTrace container.

A power trace is a uniformly sampled sequence of per-block power
vectors -- the same structure HotSpot consumes as a ``.ptrace`` file
(one column per block, one row per sampling interval).  The paper's
Fig. 12 traces sample every 10 kcycles, about 3.3 us at its simulated
clock.
"""

from __future__ import annotations

from typing import IO, List, Sequence, Union

import numpy as np

from ..errors import PowerTraceError
from ..floorplan.block import Floorplan
from ..rcmodel.blockmodel import ThermalBlockModel
from ..rcmodel.grid import ThermalGridModel
from ..solver.events import PiecewiseConstantSchedule

ThermalModel = Union[ThermalBlockModel, ThermalGridModel]


class PowerTrace:
    """Uniformly sampled per-block power over time.

    Parameters
    ----------
    block_names:
        Column labels, in floorplan order.
    samples:
        Array of shape (n_samples, n_blocks), Watts; each row applies
        for one sampling interval.
    dt:
        Sampling interval in seconds.
    """

    def __init__(
        self, block_names: Sequence[str], samples: np.ndarray, dt: float
    ) -> None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise PowerTraceError("samples must be 2-D (time x blocks)")
        if samples.shape[1] != len(block_names):
            raise PowerTraceError(
                f"{samples.shape[1]} columns but {len(block_names)} names"
            )
        if samples.shape[0] < 1:
            raise PowerTraceError("trace needs at least one sample")
        if not (np.isfinite(dt) and dt > 0):
            raise PowerTraceError("dt must be finite and positive")
        if np.any(samples < 0) or not np.all(np.isfinite(samples)):
            raise PowerTraceError("powers must be finite and non-negative")
        self.block_names = list(block_names)
        self.samples = samples
        self.dt = float(dt)

    # --- basic views -------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of sampling intervals."""
        return self.samples.shape[0]

    @property
    def n_blocks(self) -> int:
        """Number of blocks (columns)."""
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Total trace duration in seconds."""
        return self.n_samples * self.dt

    @property
    def times(self) -> np.ndarray:
        """Start time of each sampling interval."""
        return np.arange(self.n_samples) * self.dt

    def column(self, block: str) -> np.ndarray:
        """Power time series of one named block."""
        try:
            index = self.block_names.index(block)
        except ValueError:
            raise PowerTraceError(f"no block named {block!r}") from None
        return self.samples[:, index]

    def average(self) -> np.ndarray:
        """Time-averaged per-block power vector."""
        return self.samples.mean(axis=0)

    def resampled(self, factor: int) -> "PowerTrace":
        """Average groups of ``factor`` samples (coarser dt).

        Mimics what a lower-bandwidth measurement (e.g. an IR camera
        frame) would see of the power activity.
        """
        if factor < 1:
            raise PowerTraceError("factor must be >= 1")
        n = (self.n_samples // factor) * factor
        if n == 0:
            raise PowerTraceError("trace shorter than one resampled bin")
        binned = self.samples[:n].reshape(-1, factor, self.n_blocks).mean(axis=1)
        return PowerTrace(self.block_names, binned, self.dt * factor)

    # --- model integration ---------------------------------------------------

    def check_floorplan(self, floorplan: Floorplan) -> None:
        """Raise unless the trace columns match the floorplan blocks."""
        if self.block_names != floorplan.names:
            raise PowerTraceError(
                "trace columns do not match floorplan block order"
            )

    def to_schedule(self, model: ThermalModel) -> PiecewiseConstantSchedule:
        """A block-power schedule for the transient solver.

        The schedule holds :attr:`samples` by reference and injects
        them through ``model`` one segment at a time while stepping.
        """
        self.check_floorplan(model.floorplan)
        return PiecewiseConstantSchedule.uniform(self.samples, self.dt, model)

    # --- HotSpot ptrace compatibility ----------------------------------------

    def to_ptrace(self, stream: IO[str]) -> None:
        """Write in HotSpot ``.ptrace`` format (header + rows)."""
        stream.write("\t".join(self.block_names) + "\n")
        for row in self.samples:
            stream.write("\t".join(f"{v:.6g}" for v in row) + "\n")

    @classmethod
    def from_ptrace(cls, stream: IO[str], dt: float) -> "PowerTrace":
        """Read a HotSpot ``.ptrace`` file (header + rows)."""
        lines = [line.strip() for line in stream if line.strip()]
        if len(lines) < 2:
            raise PowerTraceError("ptrace needs a header and at least one row")
        names = lines[0].split()
        rows: List[List[float]] = []
        for line_no, line in enumerate(lines[1:], start=2):
            fields = line.split()
            if len(fields) != len(names):
                raise PowerTraceError(
                    f"ptrace line {line_no}: {len(fields)} fields, "
                    f"expected {len(names)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise PowerTraceError(
                    f"ptrace line {line_no}: non-numeric value"
                ) from exc
        return cls(names, np.asarray(rows), dt)
