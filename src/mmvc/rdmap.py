"""Per-frame range-Doppler processing.

Stage order is fixed: background subtraction (MTI) on raw samples,
range FFT over the sample axis, static clutter removal on the range
spectrum, Doppler FFT over the chirp axis. ``ProcessingOptions``
switches the optional stages on or off; it cannot reorder them.

The forward FFTs are unnormalised (the 1/N factor lives on the inverse
only) and both axes use a Hann window by default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import FrameCube, RadarConfig, RangeDopplerMap, _keep_frame_buffers_on_heap

MTI_MODES = ("ema", "mean")


class MtiStateError(ValueError):
    """Raised when a frame does not fit the accumulated filter state."""


@dataclass(frozen=True)
class ProcessingOptions:
    """Which optional stages run; order itself is not configurable."""

    apply_mti: bool = True
    mti_mode: str = "ema"
    apply_clutter_removal: bool = True
    apply_compensation: bool = True

    def __post_init__(self) -> None:
        if self.mti_mode not in MTI_MODES:
            raise ValueError(
                f"options: mti_mode must be one of {MTI_MODES}, got {self.mti_mode!r}"
            )


@dataclass(frozen=True)
class MtiState:
    """Ring of the most recent raw frames, oldest first.

    The ring holds the frames' own read-only complex64 samples, not
    copies: no frame leaves a long-lived buffer of its own on the heap,
    so the next frame's buffers fit the holes this one freed. The
    background widens them to complex128.

    The state is a value object: ``mti_filter`` returns an updated copy
    rather than mutating, so a stream must be filtered in frame order
    by a single writer but states may be kept or replayed freely.
    """

    ring: tuple = ()


def _window(n: int) -> np.ndarray:
    # Symmetric Hann without the zeroed end samples.
    return np.hanning(n + 2)[1:-1]


def _background(ring, alpha: float, mode: str) -> np.ndarray:
    """Background of a ring of two or more frames, in a fresh array."""
    if mode == "mean":
        return np.mean(np.asarray(ring, dtype=np.complex128), axis=0)
    # Exponential average folded across the retained history, seeded by
    # the oldest retained frame: b <- alpha * x + (1 - alpha) * b. The
    # weights sum to one, so a static scene cancels exactly. Folded in
    # place with the same products and sums, so the bits are those of
    # the expression over the complex128 frames; ``b`` holds
    # (1 - alpha) * b between steps.
    b = np.multiply(ring[0], 1.0 - alpha, dtype=np.complex128)
    tmp = np.empty_like(b)
    for cube in ring[1:-1]:
        b += np.multiply(cube, alpha, out=tmp, dtype=np.complex128)
        b *= 1.0 - alpha
    b += np.multiply(ring[-1], alpha, out=tmp, dtype=np.complex128)
    return b


def mti_filter(
    frame: FrameCube,
    state: MtiState,
    config: RadarConfig,
    mode: str = "ema",
) -> tuple[np.ndarray, MtiState]:
    """Subtract the moving-target-indication background from one frame.

    Returns the complex64 samples ``frame - background``, indexed like
    the frame's, where the background is either the exponential average
    (``mode="ema"``, default) or the plain mean (``mode="mean"``) of the
    last ``mti_history`` raw frames. The very first frame seeds the
    background and comes back all zero. The state is updated after
    subtraction, so the background never contains the current frame.
    """
    if mode not in MTI_MODES:
        raise ValueError(f"mti mode must be one of {MTI_MODES}, got {mode!r}")
    x = frame.samples.astype(np.complex128)
    if state.ring and state.ring[0].shape != x.shape:
        raise MtiStateError(
            f"frame shape {x.shape} does not match filter state "
            f"{state.ring[0].shape}"
        )
    if not state.ring:
        filtered = np.zeros_like(x)
    elif len(state.ring) == 1:
        filtered = x - state.ring[0]
    else:
        background = _background(state.ring, config.mti_alpha, mode)
        filtered = np.subtract(x, background, out=background)
    new_ring = (state.ring + (frame.samples,))[-config.mti_history :]
    return filtered.astype(np.complex64), MtiState(ring=new_ring)


def range_fft(samples: np.ndarray, window: bool = True) -> np.ndarray:
    """FFT over the sample axis of (rx, chirp, sample) samples; returns
    (rx, chirp, range bin).

    Only the positive-frequency half is kept: range is non-negative.
    """
    x = np.asarray(samples).astype(np.complex128)
    if window:
        x = x * _window(x.shape[2])[None, None, :]
    spec = np.fft.fft(x, axis=2)
    return spec[:, :, : x.shape[2] // 2]


def clutter_removal(spectrum: np.ndarray) -> np.ndarray:
    """Remove perfectly static returns from a range spectrum.

    Subtracts, per (rx, range bin), the complex mean over the chirp
    axis; anything with zero Doppler shift cancels exactly while moving
    energy is preserved up to its own chirp-mean.
    """
    spec = np.asarray(spectrum)
    return spec - spec.mean(axis=1, keepdims=True)


def doppler_fft(spectrum: np.ndarray, window: bool = True) -> np.ndarray:
    """FFT over the chirp axis, shifted so the centre bin is zero velocity.

    Input is a range spectrum indexed (rx, chirp, range bin); the
    returned cells are indexed (range bin, Doppler bin, rx) with
    receding targets above the centre bin.
    """
    spec = np.asarray(spectrum, dtype=np.complex128)
    if window:
        spec = spec * _window(spec.shape[1])[None, :, None]
    cells = np.fft.fftshift(np.fft.fft(spec, axis=1), axes=1)
    return np.transpose(cells, (2, 1, 0))


def process_frame(
    frame: FrameCube,
    state: MtiState,
    config: RadarConfig,
    options: ProcessingOptions = ProcessingOptions(),
) -> tuple[RangeDopplerMap, MtiState]:
    """Run one frame through the fixed stage order.

    Returns the range-Doppler map plus the updated MTI state (unchanged
    when MTI is disabled); ``options`` is the record of which stages
    ran. Deterministic: identical inputs give identical outputs. The
    first call sets the C heap limits (``_keep_frame_buffers_on_heap``).
    """
    _keep_frame_buffers_on_heap()
    if frame.samples.shape != config.frame_shape:
        raise ValueError(
            f"frame shape {frame.samples.shape} does not match config {config.frame_shape}"
        )
    samples = frame.samples
    if options.apply_mti:
        samples, state = mti_filter(frame, state, config, mode=options.mti_mode)
    spectrum = range_fft(samples)
    if options.apply_clutter_removal:
        spectrum = clutter_removal(spectrum)
    rd = RangeDopplerMap(
        cells=doppler_fft(spectrum),
        view=frame.view,
        frame_index=frame.frame_index,
        calibrated_timestamp_ns=frame.calibrated_timestamp_ns,
    )
    return rd, state

