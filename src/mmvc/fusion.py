"""Cross-stream alignment and fusion.

The two sensors free-run on their own clocks. Alignment works from one
clock-offset sample per stream (reference reading paired with a local
reading), applies the offset to every local timestamp, pairs frames
greedily by nearest calibrated timestamp, and gates fixed-length
windows on the average cross-stream gap. Fused frames concatenate the
two views' fixed-budget clouds and export as a dense feature tensor.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .types import FrameCube, PointCloud, RadarConfig, ns_to_seconds, seconds_to_ns

TENSOR_MAGIC = b"MMFT"
TENSOR_VERSION = 1

# Pairing and gating defaults: the largest skew at which two views' frames
# still pair, and the frames per alignment window.
MAX_SKEW_S = 0.010
WINDOW_LEN = 10


class TensorFormatError(ValueError):
    """Raised for malformed feature tensor files."""


@dataclass(frozen=True)
class ClockOffset:
    """Offset to add to a stream's local clock to get reference time."""

    offset_ns: int
    view: str | None = None


def offset_from_clock_sample(clock_sample, view: str | None = None) -> ClockOffset:
    """Offset from a stored (reference_ns, local_ns) reading pair."""
    ref_ns, local_ns = clock_sample
    return ClockOffset(offset_ns=int(ref_ns) - int(local_ns), view=view)


def calibrate_timestamps(stream, offset: ClockOffset) -> tuple[FrameCube, ...]:
    """Stamp every frame with ``local + offset``.

    Always computed from the local timestamp, so re-calibrating with a
    new offset replaces the old calibration instead of accumulating.
    """
    return tuple(
        replace(f, calibrated_timestamp_ns=f.local_timestamp_ns + offset.offset_ns)
        for f in stream
    )


@dataclass(frozen=True)
class PairingResult:
    pairs: tuple
    dropped_left: int
    dropped_right: int

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def pairing_rate(self) -> float:
        total = 2 * len(self.pairs) + self.dropped_left + self.dropped_right
        if total == 0:
            return 1.0
        return 2 * len(self.pairs) / total


def _calibrated_ns(frame, stream_name: str) -> int:
    ts = frame.calibrated_timestamp_ns
    if ts is None:
        raise ValueError(
            f"{stream_name} stream is not calibrated; run calibrate_timestamps first"
        )
    return ts


def pair_views(left, right, max_skew_s: float = MAX_SKEW_S) -> PairingResult:
    """Greedy nearest-timestamp pairing of two calibrated streams.

    Walks both streams in time order; a pair forms when the gap is at
    most ``max_skew_s``, and a frame is passed over when the other
    stream's next frame would sit strictly nearer. Every frame is used
    at most once; unmatched frames are dropped and counted. Symmetric:
    swapping the streams yields the same pairs with roles swapped.
    """
    left = sorted(left, key=lambda f: (_calibrated_ns(f, "left"), f.frame_index))
    right = sorted(right, key=lambda f: (_calibrated_ns(f, "right"), f.frame_index))
    tl = [f.calibrated_timestamp_ns for f in left]
    tr = [f.calibrated_timestamp_ns for f in right]
    skew_ns = seconds_to_ns(max_skew_s)

    pairs = []
    i = j = 0
    while i < len(tl) and j < len(tr):
        dt = tr[j] - tl[i]
        if dt < 0 and j + 1 < len(tr) and -dt > abs(tr[j + 1] - tl[i]):
            j += 1  # next right frame is strictly nearer to this left
            continue
        if dt > 0 and i + 1 < len(tl) and dt > abs(tl[i + 1] - tr[j]):
            i += 1  # next left frame is strictly nearer to this right
            continue
        if abs(dt) <= skew_ns:
            pairs.append((left[i], right[j]))
            i += 1
            j += 1
        elif tl[i] <= tr[j]:
            i += 1
        else:
            j += 1
    return PairingResult(
        pairs=tuple(pairs),
        dropped_left=len(tl) - len(pairs),
        dropped_right=len(tr) - len(pairs),
    )


@dataclass(frozen=True)
class PairedFrame:
    """Calibrated timestamps of one matched frame pair."""

    left_timestamp_ns: int
    right_timestamp_ns: int
    label_timestamp_ns: int | None = None

    @property
    def mid_timestamp_ns(self) -> int:
        return (self.left_timestamp_ns + self.right_timestamp_ns) // 2

    def cross_gap_ns(self) -> int:
        """Cross-modality gap: against the label stream when one is
        attached, otherwise the cross-view gap."""
        if self.label_timestamp_ns is not None:
            return abs(self.mid_timestamp_ns - self.label_timestamp_ns)
        return abs(self.left_timestamp_ns - self.right_timestamp_ns)


@dataclass(frozen=True)
class AlignedWindow:
    """A block of consecutive paired frames with its gating verdict."""

    frames: tuple
    mean_gap_s: float
    accepted: bool
    start_index: int


def gate_windows(
    paired,
    window_len: int = WINDOW_LEN,
    tau_s: float = RadarConfig.tau_s,
    label_timestamps_s=None,
) -> tuple[AlignedWindow, ...]:
    """Split paired frames into consecutive windows and gate each one.

    A window of ``window_len`` frames is rejected exactly when its
    average cross-stream gap exceeds ``tau_s`` (default
    ``RadarConfig.tau_s``, 20 ms). When ``label_timestamps_s`` is given,
    each frame is first matched to its nearest label timestamp and the
    gap is measured against that stream; otherwise the left/right gap
    is used. The decision is a pure function of timestamps; point data
    never affects it. Trailing frames that do not fill a window are not
    gated.
    """
    if window_len < 1:
        raise ValueError("window_len must be at least 1")
    paired = list(paired)

    if label_timestamps_s is not None:
        labels_ns = sorted(seconds_to_ns(t) for t in label_timestamps_s)
        if not labels_ns:
            raise ValueError("label timestamp list is empty")
        arr = np.asarray(labels_ns)
        assigned = []
        for pf in paired:
            pos = int(np.argmin(np.abs(arr - pf.mid_timestamp_ns)))
            assigned.append(replace(pf, label_timestamp_ns=labels_ns[pos]))
        paired = assigned

    windows = []
    tau_ns = seconds_to_ns(tau_s)
    for start in range(0, len(paired) - window_len + 1, window_len):
        frames = tuple(paired[start : start + window_len])
        gaps = [f.cross_gap_ns() for f in frames]
        mean_gap_ns = sum(gaps) / len(gaps)
        accepted = mean_gap_ns <= tau_ns
        windows.append(
            AlignedWindow(
                frames=frames,
                mean_gap_s=ns_to_seconds(mean_gap_ns),
                accepted=accepted,
                start_index=start,
            )
        )
    return tuple(windows)


def merge_views(
    left: PointCloud, right: PointCloud, poses=None
) -> PointCloud:
    """Concatenate the two views' clouds into one fused frame cloud.

    Both clouds must already be in the head frame (their extraction
    applied the poses); no deduplication happens. The fused cloud keeps
    left points first, preserving each view's gate ordering, and is
    flagged degraded when either view consists purely of padding.
    """
    if len(left) != len(right):
        deficient = "left" if len(left) < len(right) else "right"
        raise ValueError(
            f"point count mismatch between views: left has {len(left)}, "
            f"right has {len(right)}; {deficient} view is deficient"
        )
    if poses is not None:
        pose_views = {p.view for p in poses}
        for cloud in (left, right):
            if cloud.view is not None and cloud.view not in pose_views:
                raise ValueError(
                    f"cloud view {cloud.view!r} has no matching pose"
                )
    if left.timestamp_ns is not None and right.timestamp_ns is not None:
        ts = (left.timestamp_ns + right.timestamp_ns) // 2
    else:
        ts = left.timestamp_ns if left.timestamp_ns is not None else right.timestamp_ns
    degraded = (len(left) > 0 and left.pad_count >= len(left)) or (
        len(right) > 0 and right.pad_count >= len(right)
    )
    return PointCloud.concat(
        (left, right),
        view=None,
        frame_index=left.frame_index,
        timestamp_ns=ts,
        degraded=degraded,
    )


def cloud_feature_rows(cloud: PointCloud) -> np.ndarray:
    """(N, 8) float32 rows: x, y, z, velocity, energy, range, view, gate."""
    return np.column_stack((
        cloud.positions_m, cloud.velocities_mps, cloud.energies, cloud.ranges_m,
        cloud.view_codes, cloud.gate_codes,
    )).astype(np.float32)


def assemble_feature_tensor(blocks) -> np.ndarray:
    """Stack fused clouds into a (window, frame, point, feature) tensor.

    ``blocks`` holds one sequence of ``merge_views`` clouds per accepted
    window; frame k of window i is ``cloud_feature_rows`` of cloud k of
    block i. All clouds share one point count; no blocks is an error.
    """
    rows = [[cloud_feature_rows(cloud) for cloud in block] for block in blocks]
    if not rows:
        raise ValueError("no windows to assemble")
    sizes = sorted({len(frame) for block in rows for frame in block})
    if len(sizes) > 1:
        raise ValueError(f"fused cloud sizes differ: {sizes}")
    return np.stack([np.stack(block) for block in rows])


# ---------------------------------------------------------------------------
# feature tensor file: magic, version, shape, little-endian float32 rows
# ---------------------------------------------------------------------------

_TENSOR_HEADER = struct.Struct("<4sI4I")  # magic, version, four dims


def write_feature_tensor(path, tensor: np.ndarray) -> None:
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    if arr.ndim != 4:
        raise ValueError(f"feature tensor must be 4-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION, *arr.shape))
        fh.write(arr.tobytes())


def read_feature_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TENSOR_MAGIC:
        raise TensorFormatError(f"bad magic {blob[:4]!r}, expected {TENSOR_MAGIC!r}")
    if len(blob) < _TENSOR_HEADER.size:
        raise TensorFormatError(
            f"truncated tensor header: {len(blob)} bytes, need {_TENSOR_HEADER.size}"
        )
    _, version, *shape = _TENSOR_HEADER.unpack_from(blob)
    if version != TENSOR_VERSION:
        raise TensorFormatError(f"unsupported tensor version {version}")
    shape = tuple(shape)
    # math.prod: numpy's int64 product wraps to 0 for four 2**16 dims
    expected = math.prod(shape)
    payload = memoryview(blob)[_TENSOR_HEADER.size :]
    if len(payload) != 4 * expected:
        raise TensorFormatError(
            f"payload holds {len(payload)} bytes, shape {shape} needs {4 * expected}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
