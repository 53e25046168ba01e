"""Tests for the IR camera model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan import GridMapping, uniform_grid_floorplan
from repro.ircamera import IRCamera, missed_peak_fraction


@pytest.fixture()
def mapping():
    plan = uniform_grid_floorplan(10e-3, 10e-3)
    return GridMapping(plan, nx=10, ny=10)


def pulsed_fields(mapping, n_times=1000, dt=1e-4, pulse_every=0.02,
                  pulse_len=0.003):
    """A field that spikes briefly -- ~3 ms events, as in the paper."""
    times = np.arange(n_times) * dt
    base = np.zeros((n_times, mapping.n_cells))
    phase = times % pulse_every
    hot = phase < pulse_len
    base[hot, :] = 80.0
    base[~hot, :] = 50.0
    return times, base


def test_frame_timing(mapping):
    times = np.linspace(0, 1, 500)
    fields = np.zeros((500, mapping.n_cells))
    camera = IRCamera(frame_rate=50.0)
    frame_times, frames = camera.capture(times, fields, mapping)
    assert len(frame_times) == 50
    assert frames.shape == (50, mapping.n_cells)
    assert frame_times[0] == pytest.approx(0.02)


def test_slow_camera_misses_short_events(mapping):
    # The paper: "3 ms is typically shorter than the IR camera's
    # sampling interval, therefore IR thermal measurements could miss
    # thermal emergencies within that time scale."
    times, fields = pulsed_fields(mapping)
    slow = IRCamera(frame_rate=30.0)
    fast = IRCamera(frame_rate=1000.0)
    _, slow_frames = slow.capture(times, fields, mapping)
    _, fast_frames = fast.capture(times, fields, mapping)
    threshold = 75.0
    missed_slow = missed_peak_fraction(
        fields[:, 0], slow_frames[:, 0], threshold
    )
    missed_fast = missed_peak_fraction(
        fields[:, 0], fast_frames[:, 0], threshold
    )
    assert missed_fast < 0.1
    assert missed_slow > missed_fast


def test_exposure_averages_window(mapping):
    times, fields = pulsed_fields(mapping)
    snapshot = IRCamera(frame_rate=25.0, exposure=0.0)
    integrating = IRCamera(frame_rate=25.0, exposure=0.04)
    _, snap = snapshot.capture(times, fields, mapping)
    _, integ = integrating.capture(times, fields, mapping)
    # integration pulls frames toward the duty-cycle mean
    duty_mean = 50.0 + 30.0 * (0.003 / 0.02)
    assert abs(integ[:, 0].mean() - duty_mean) < abs(
        snap[:, 0].mean() - duty_mean
    ) + 1e-9


def test_exposure_without_samples_holds_the_latest_past_sample(mapping):
    # 3 ms samples whose field equals t in ms, a 125 Hz camera and a
    # 1 ms exposure: no sample lies in the 8 ms frame's [7, 8] ms window
    times = 0.003 * np.arange(11)
    fields = np.repeat(1e3 * times[:, None], mapping.n_cells, axis=1)
    camera = IRCamera(frame_rate=125.0, exposure=0.001)
    frame_times, frames = camera.capture(times, fields, mapping)
    assert frame_times[0] == pytest.approx(0.008)
    # the latest sample at or before 8 ms is the 6 ms one, not the
    # 18.0 mean of it and every later sample
    np.testing.assert_allclose(frames[0], 6.0)
    np.testing.assert_allclose(frames[1], 15.0)


def test_snapshot_holds_the_latest_past_sample(mapping):
    # the same 3 ms samples at 125 Hz: the nearest sample to the 8 ms
    # frame is the 9 ms one, which a snapshot has not seen yet
    times = 0.003 * np.arange(11)
    fields = np.repeat(1e3 * times[:, None], mapping.n_cells, axis=1)
    frame_times, frames = IRCamera(frame_rate=125.0).capture(
        times, fields, mapping
    )
    np.testing.assert_allclose(frames[:, 0], [6.0, 15.0, 24.0])


def test_snapshot_on_a_sample_instant_reads_that_sample(mapping):
    # 0.1 ms samples whose field is the sample index and a 1000 Hz
    # camera: every frame falls on every tenth sample, though np.arange
    # rounds some frame times a few ulps early
    times = np.arange(200) * 1e-4
    fields = np.repeat(np.arange(200.0)[:, None], mapping.n_cells, axis=1)
    frame_times, frames = IRCamera(frame_rate=1000.0).capture(
        times, fields, mapping
    )
    on_frame = 10 * np.arange(1, 20)
    assert np.any(frame_times < times[on_frame])
    np.testing.assert_array_equal(frames[:, 0], on_frame)


def test_exposure_cannot_exceed_frame_period():
    with pytest.raises(ConfigurationError):
        IRCamera(frame_rate=100.0, exposure=0.02)


def test_blur_smooths_spatial_peak(mapping):
    times = np.array([0.0, 1.0])
    field = np.zeros(mapping.n_cells)
    field[mapping.cell_index(5e-3, 5e-3)] = 100.0
    fields = np.vstack([field, field])
    sharp = IRCamera(frame_rate=1.0, blur_sigma=0.0)
    blurry = IRCamera(frame_rate=1.0, blur_sigma=1.0e-3)
    _, sharp_frames = sharp.capture(times, fields, mapping)
    _, blurry_frames = blurry.capture(times, fields, mapping)
    assert blurry_frames[0].max() < sharp_frames[0].max()
    # blur conserves total signal away from the borders
    assert blurry_frames[0].sum() == pytest.approx(100.0, rel=0.05)


def test_netd_noise_deterministic_by_seed(mapping):
    times = np.array([0.0, 1.0])
    fields = np.full((2, mapping.n_cells), 40.0)
    cam = IRCamera(frame_rate=1.0, netd=0.1, seed=3)
    _, a = cam.capture(times, fields, mapping)
    _, b = IRCamera(frame_rate=1.0, netd=0.1, seed=3).capture(
        times, fields, mapping
    )
    np.testing.assert_allclose(a, b)
    assert a.std() > 0


def test_capture_validates_shapes(mapping):
    camera = IRCamera()
    with pytest.raises(ConfigurationError):
        camera.capture(
            np.array([0.0, 1.0]), np.zeros((3, mapping.n_cells)), mapping
        )
