"""Spectral chain: MTI filter, FFTs, clutter removal, stage plumbing."""
import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmvc

from mmvc import (
    MtiState,
    MtiStateError,
    ProcessingOptions,
    clutter_removal,
    doppler_fft,
    energy_compensation,
    extract_point_cloud,
    mti_filter,
    process_frame,
    range_fft,
)
from mmvc.types import FrameCube

from conftest import tone_cube


def _frame(cube, view="left", index=0, ts=0):
    return FrameCube(
        samples=np.asarray(cube, dtype=np.complex64),
        view=view,
        frame_index=index,
        local_timestamp_ns=ts,
        calibrated_timestamp_ns=ts,
    )


def _random_cube(rng, scale=1.0):
    re = rng.standard_normal((3, 128, 128))
    im = rng.standard_normal((3, 128, 128))
    return ((re + 1j * im) * scale).astype(np.complex64)


# --- MTI -------------------------------------------------------------------


def test_first_frame_seeds_and_returns_zeros(config):
    rng = np.random.default_rng(0)
    frame = _frame(_random_cube(rng))
    out, state = mti_filter(frame, MtiState(), config)
    assert out.dtype == np.complex64
    assert np.all(out == 0)
    assert len(state.ring) == 1
    assert state.ring[0] is frame.samples


def test_static_scene_cancels_exactly(config):
    cube = _random_cube(np.random.default_rng(1))
    state = MtiState()
    out = None
    for i in range(8):
        out, state = mti_filter(_frame(cube, index=i), state, config)
    # identical history means background == frame; the EMA weights sum to
    # one so the residual is pure round-off
    assert np.max(np.abs(out)) < 1e-12


def test_static_scene_cancels_in_mean_mode(config):
    cube = _random_cube(np.random.default_rng(2))
    state = MtiState()
    for i in range(7):
        out, state = mti_filter(_frame(cube, index=i), state, config, mode="mean")
    assert np.max(np.abs(out)) == 0.0


def test_ema_background_matches_manual_fold(config):
    rng = np.random.default_rng(3)
    cubes = [_random_cube(rng) for _ in range(6)]
    state = MtiState()
    for i, cube in enumerate(cubes):
        out, state = mti_filter(_frame(cube, index=i), state, config)
    # recursion folded over the retained ring, seeded at its oldest frame
    alpha = config.mti_alpha
    background = cubes[0].astype(np.complex128)
    for cube in cubes[1:5]:
        background = alpha * cube + (1 - alpha) * background
    expected = cubes[5].astype(np.complex128) - background
    assert np.max(np.abs(out - expected.astype(np.complex64))) < 1e-5


def test_ema_fold_is_bit_exact_and_leaves_state_unchanged(config):
    rng = np.random.default_rng(6)
    state = MtiState()
    for i in range(config.mti_history):
        _, state = mti_filter(_frame(_random_cube(rng), index=i), state, config)
    ring = [cube.copy() for cube in state.ring]
    frame = _frame(_random_cube(rng), index=config.mti_history)
    first, _ = mti_filter(frame, state, config)
    second, _ = mti_filter(frame, state, config)
    assert first.tobytes() == second.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(state.ring, ring))
    # the expression form of the fold over the complex128 frames, one
    # fresh array per operation
    alpha = config.mti_alpha
    wide = [cube.astype(np.complex128) for cube in ring]
    background = wide[0]
    for cube in wide[1:]:
        background = alpha * cube + (1 - alpha) * background
    expected = frame.samples.astype(np.complex128) - background
    assert first.tobytes() == expected.astype(np.complex64).tobytes()


def test_ring_eviction_caps_history(config):
    rng = np.random.default_rng(4)
    state = MtiState()
    for i in range(12):
        _, state = mti_filter(_frame(_random_cube(rng), index=i), state, config)
    assert len(state.ring) == config.mti_history


def test_mti_rejects_mismatched_shape(config):
    state = MtiState()
    _, state = mti_filter(_frame(np.zeros((3, 128, 128))), state, config)
    small = FrameCube(
        samples=np.zeros((3, 64, 128), dtype=np.complex64),
        view="left",
        frame_index=1,
        local_timestamp_ns=0,
    )
    with pytest.raises(MtiStateError):
        mti_filter(small, state, config)


def test_mti_rejects_unknown_mode(config):
    with pytest.raises(ValueError, match="mti mode"):
        mti_filter(_frame(np.zeros((3, 128, 128))), MtiState(), config, mode="iir")


# --- range FFT -------------------------------------------------------------


def test_range_fft_peaks_at_exact_bin(config):
    cube = tone_cube(config, range_bin=20.0)
    spec = range_fft(_frame(cube).samples, window=False)
    assert spec.shape == (3, 128, 64)
    mags = np.abs(spec[0, 0])
    assert mags.argmax() == 20
    # all energy lives in that one bin when the tone is on-grid
    assert mags[20] == pytest.approx(128.0)
    # leakage floor set by complex64 quantisation of the tone samples
    others = np.delete(mags, 20)
    assert others.max() < 1e-4


def test_range_fft_window_spreads_mainlobe(config):
    cube = tone_cube(config, range_bin=20.0)
    mags = np.abs(range_fft(_frame(cube).samples)[0, 0])
    assert mags.argmax() == 20
    assert mags[19] > 1.0 and mags[21] > 1.0


def test_range_fft_is_linear(config):
    rng = np.random.default_rng(7)
    a, b = _random_cube(rng), _random_cube(rng)
    lhs = range_fft(a.astype(np.complex128) + 2.0 * b, window=False)
    rhs = range_fft(a, window=False) + 2.0 * range_fft(b, window=False)
    assert np.allclose(lhs, rhs, atol=1e-9)


# --- clutter removal -------------------------------------------------------


def test_clutter_removal_zeroes_chirp_constant_signal(config):
    cube = tone_cube(config, range_bin=11.0)  # no Doppler: constant over chirps
    spec = range_fft(_frame(cube).samples, window=False)
    cleaned = clutter_removal(spec)
    assert np.max(np.abs(cleaned)) < 1e-9


def test_clutter_removal_preserves_zero_mean_doppler(config):
    cube = tone_cube(config, range_bin=11.0, doppler_bins=32.0)
    spec = range_fft(_frame(cube).samples, window=False)
    cleaned = clutter_removal(spec)
    # an on-grid Doppler tone already averages to zero over chirps, up to
    # the complex64 quantisation of the input samples
    assert np.allclose(cleaned, spec, atol=1e-4)


# --- Doppler FFT -----------------------------------------------------------


def test_doppler_fft_layout_and_center(config):
    cube = tone_cube(config, range_bin=11.0)
    cells = doppler_fft(range_fft(_frame(cube).samples, window=False), window=False)
    assert cells.shape == (64, 128, 3)
    r, d = np.unravel_index(np.argmax(np.abs(cells[:, :, 0])), (64, 128))
    assert (r, d) == (11, 64)


def test_doppler_fft_receding_target_lands_above_center(config):
    # +1 m/s is 36.736 bins of Doppler; the peak rounds to bin 101
    v = 1.0
    bins = v / config.velocity_resolution_mps
    cube = tone_cube(config, range_bin=11.0, doppler_bins=bins)
    cells = doppler_fft(range_fft(_frame(cube).samples, window=False), window=False)
    col = np.abs(cells[11, :, 0])
    assert col.argmax() == 101


def test_doppler_fft_wraps_fast_target(config):
    # 2.0 m/s exceeds the +-1.742 m/s unambiguous span: 73.472 raw bins
    # fold onto fftshifted bin 9, i.e. -1.497 m/s
    bins = 2.0 / config.velocity_resolution_mps
    cube = tone_cube(config, range_bin=30.0, doppler_bins=bins)
    cells = doppler_fft(range_fft(_frame(cube).samples, window=False), window=False)
    col = np.abs(cells[30, :, 0])
    assert col.argmax() == 9


def test_doppler_window_flag(config):
    cube = tone_cube(config, range_bin=11.0, doppler_bins=20.0)
    spec = range_fft(_frame(cube).samples, window=False)
    windowed = doppler_fft(spec)
    plain = doppler_fft(spec, window=False)
    col_w = np.abs(windowed[11, :, 0])
    col_p = np.abs(plain[11, :, 0])
    assert col_p[84] > col_w[84]  # window trades peak gain
    assert col_w[83] > col_p[83]  # ...for a wider mainlobe
    assert col_w[85] > col_p[85]


# --- full stage driver -----------------------------------------------------


def test_process_frame_stage_switches_take_effect(config):
    # A static tone (one fresh MTI state per call, so MTI would zero any
    # frame): with both stages off it lands on its range bin at zero
    # velocity; clutter removal alone cancels it down to rounding, since
    # the chirp mean of identical spectra is not summed exactly.
    frame = _frame(tone_cube(config, range_bin=11.0, doppler_bins=0.0))
    neither = ProcessingOptions(apply_mti=False, apply_clutter_removal=False)
    rd, _ = process_frame(frame, MtiState(), config, neither)
    peak = np.abs(rd.cells).max()
    assert np.abs(rd.cells[11, 64]).min() == peak > 0
    clutter_only = ProcessingOptions(apply_mti=False, apply_clutter_removal=True)
    rd, _ = process_frame(frame, MtiState(), config, clutter_only)
    assert np.abs(rd.cells).max() <= 1e-12 * peak


def test_process_frame_without_mti_leaves_state_alone(config):
    frame = _frame(np.zeros((3, 128, 128)))
    state = MtiState()
    _, state_after = process_frame(
        frame, state, config, ProcessingOptions(apply_mti=False)
    )
    assert state_after is state


def test_process_frame_rejects_wrong_shape(config):
    bad = FrameCube(
        samples=np.zeros((3, 64, 128), dtype=np.complex64),
        view="left",
        frame_index=0,
        local_timestamp_ns=0,
    )
    with pytest.raises(ValueError, match="does not match config"):
        process_frame(bad, MtiState(), config)


def test_process_frame_carries_frame_identity(config):
    frame = _frame(np.zeros((3, 128, 128)), view="right", index=9, ts=1234)
    rd, _ = process_frame(frame, MtiState(), config)
    assert rd.view == "right"
    assert rd.frame_index == 9
    assert rd.calibrated_timestamp_ns == 1234


_WARM_FRAMES_PREAMBLE = """
import json, resource
import numpy as np
from mmvc import (MtiState, RadarConfig, default_pose_pair, energy_compensation,
                  extract_point_cloud, parse_scene, process_frame, synthesize_frame,
                  validate_config)
from mmvc.types import FrameCube

config = validate_config(RadarConfig())
pose = default_pose_pair()[0]
rng = np.random.default_rng(5)
faults = []


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""

_WARM_FRAMES_SCRIPTS = {
    "process": """
frames = []
for k in range(20):
    cube = rng.standard_normal((3, 128, 128)) + 1j * rng.standard_normal((3, 128, 128))
    frames.append(FrameCube(samples=cube.astype(np.complex64), view=pose.view,
                            frame_index=k, local_timestamp_ns=k))
state = MtiState()
for frame in frames:
    before = minflt()
    rd, state = process_frame(frame, state, config)
    extract_point_cloud(energy_compensation(rd), pose, config)
    faults.append(minflt() - before)
""",
    "synthesis": """
scene = parse_scene(
    "scatterer reflectivity=0.9\\n"
    "waypoint t=0.0 x=-0.1 y=-0.6 z=0.0\\nwaypoint t=2.0 x=-0.2 y=-0.8 z=0.1\\n"
    "scatterer reflectivity=0.4\\nwaypoint t=0.0 x=-0.2 y=-1.3 z=0.1\\n"
    "noise std=1.0\\n"
)
for k in range(20):
    before = minflt()
    synthesize_frame(scene, pose, config, 0.1 * k, rng=rng, frame_index=k)
    faults.append(minflt() - before)
""",
}


def test_warm_frames_reuse_freed_heap():
    """Once the heap has grown to a frame's needs, a frame through the
    per-frame chain, or a synthesised frame, maps (almost) no fresh
    pages: its buffers reuse what the previous frame freed. Without the
    heap limits a typical frame faulted in several hundred pages. Runs
    in a fresh interpreter, since the C heap's limits are process-wide
    and other tests move them."""
    pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    src = str(Path(mmvc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for chain, script in _WARM_FRAMES_SCRIPTS.items():
        out = subprocess.run(
            [sys.executable, "-c", _WARM_FRAMES_PREAMBLE + script + "print(json.dumps(faults))\n"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        faults = json.loads(out.stdout)
        assert np.median(faults[-10:]) < 32, (chain, faults)


def test_validate_options_rejects_bad_mode():
    with pytest.raises(ValueError, match="options: mti_mode must be one of"):
        ProcessingOptions(mti_mode="median")
    with pytest.raises(ValueError, match="mti_mode"):
        dataclasses.replace(ProcessingOptions(), mti_mode="x")

