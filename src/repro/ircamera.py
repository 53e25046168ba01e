"""An infrared thermal camera model.

What limits IR thermal imaging, for the paper's purposes, is not optics
but sampling: "the limited sampling rate of the IR camera may also
filter out high-frequency transient thermal fluctuations and miss
thermal violations" (Section 2.2), and AIR-SINK's ~3 ms heat-up phases
are "typically shorter than the IR camera's sampling interval"
(Section 5.1).  This module models exactly those characteristics:

* frame rate -- temperature is reported once per frame;
* exposure integration -- each frame averages the field over the
  exposure window (a snapshot camera uses a very short exposure);
* optical blur -- an isotropic Gaussian point-spread function over the
  die surface;
* noise-equivalent temperature difference (NETD) -- per-pixel Gaussian
  noise.

The camera consumes the die *surface* temperature field (what is
visible through the IR-transparent silicon and oil).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigurationError
from .floorplan.grid_map import GridMapping
from .units import require_non_negative, require_positive


@dataclass(frozen=True)
class IRCamera:
    """An IR camera's sampling and imaging characteristics.

    Parameters
    ----------
    frame_rate:
        Frames per second (the QWIP cameras in the cited setups run in
        the tens-to-hundreds of Hz).
    exposure:
        Integration time per frame, seconds; must fit in a frame
        period.  0 means an idealized instantaneous snapshot.
    blur_sigma:
        Gaussian PSF standard deviation in meters on the die surface.
    netd:
        Per-pixel temperature noise standard deviation, Kelvin.
    seed:
        RNG seed for the NETD noise (deterministic captures).
    """

    frame_rate: float = 125.0
    exposure: float = 0.0
    blur_sigma: float = 0.0
    netd: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("frame_rate", self.frame_rate)
        require_non_negative("exposure", self.exposure)
        require_non_negative("blur_sigma", self.blur_sigma)
        require_non_negative("netd", self.netd)
        if self.exposure > 1.0 / self.frame_rate + 1e-12:
            raise ConfigurationError("exposure longer than the frame period")

    @property
    def frame_period(self) -> float:
        """Seconds between frames."""
        return 1.0 / self.frame_rate

    # ------------------------------------------------------------------

    def capture(
        self,
        times: np.ndarray,
        surface_fields: np.ndarray,
        mapping: GridMapping,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample a simulated surface-field time series into frames.

        Parameters
        ----------
        times:
            Simulation instants, seconds (uniformly spaced).
        surface_fields:
            Array (n_times, n_cells) of surface temperatures (or rises).
        mapping:
            Grid geometry for the blur kernel.

        Returns
        -------
        (frame_times, frames):
            Frame timestamps and an array (n_frames, n_cells) of what
            the camera reports.
        """
        times = np.asarray(times, dtype=float)
        surface_fields = np.asarray(surface_fields, dtype=float)
        if surface_fields.shape[0] != times.shape[0]:
            raise ConfigurationError("times and fields disagree in length")
        if times.size < 2:
            raise ConfigurationError("need at least two simulation instants")
        rng = np.random.default_rng(self.seed)
        frame_times = np.arange(
            self.frame_period, times[-1] + 1e-12, self.frame_period
        )
        # a frame that falls on a sample instant reads that sample, even
        # when np.arange rounding puts the frame time a few ulps early
        on_sample = 1e-6 * (times[-1] - times[0]) / (times.size - 1)
        frames: List[np.ndarray] = []
        for t_frame in frame_times:
            now = t_frame + on_sample
            # a snapshot, or an exposure that holds no sample, reads the
            # latest sample at or before the frame, never a later one
            latest = int(np.searchsorted(times, now, "right")) - 1
            field = surface_fields[max(0, latest)]
            if self.exposure > 0:
                window = (times >= t_frame - self.exposure) & (times <= now)
                if np.any(window):
                    field = surface_fields[window].mean(axis=0)
            field = self._blur(field, mapping)
            if self.netd > 0:
                field = field + rng.normal(0.0, self.netd, size=field.shape)
            frames.append(field)
        return frame_times, np.vstack(frames)

    def _blur(self, field: np.ndarray, mapping: GridMapping) -> np.ndarray:
        if self.blur_sigma <= 0:
            return field
        grid = mapping.as_grid(field)
        blurred = _gaussian_blur_2d(
            grid, self.blur_sigma / mapping.dx, self.blur_sigma / mapping.dy
        )
        return blurred.ravel()


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _gaussian_blur_2d(
    grid: np.ndarray, sigma_x: float, sigma_y: float
) -> np.ndarray:
    """Separable Gaussian blur with edge replication."""
    result = grid
    if sigma_x > 0:
        kernel = _gaussian_kernel(sigma_x)
        pad = len(kernel) // 2
        padded = np.pad(result, ((0, 0), (pad, pad)), mode="edge")
        result = np.vstack([
            np.convolve(row, kernel, mode="valid") for row in padded
        ])
    if sigma_y > 0:
        kernel = _gaussian_kernel(sigma_y)
        pad = len(kernel) // 2
        padded = np.pad(result, ((pad, pad), (0, 0)), mode="edge")
        result = np.vstack([
            np.convolve(col, kernel, mode="valid")
            for col in padded.T
        ]).T
    return result


def missed_peak_fraction(
    trace: np.ndarray, frame_trace: np.ndarray, threshold: float
) -> float:
    """Fraction of above-threshold time the camera failed to observe.

    Compares the true trace's time above ``threshold`` with the
    camera-reported trace's: the paper's warning that a slow camera can
    "miss thermal violations" made quantitative.
    """
    trace = np.asarray(trace, dtype=float)
    true_above = float(np.mean(trace >= threshold))
    if true_above <= 0.0:
        return 0.0
    seen_above = float(np.mean(np.asarray(frame_trace) >= threshold))
    return max(0.0, 1.0 - seen_above / true_above)
