"""File formats: binary captures, config files, CSV and PLY exports,
the simulated truth CSV and debug tensor dumps.

Every multi-byte value in the binary formats is little-endian. The
capture layout is:

    magic "MMVC" | uint32 version | uint8 view (0 left, 1 right)
    uint32 metadata length | metadata JSON (config + clock sample)
    uint32 frame count
    per frame: uint32 frame index | int64 local timestamp (ns)
               | complex64 samples, interleaved re/im float32,
                 C order over (rx, chirp, sample)

The clock sample is one (reference_ns, local_ns) reading pair taken at
capture start; offset calibration works from it downstream.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import yaml

from .fusion import TensorFormatError
from .types import (
    ConfigError,
    FrameCube,
    PointCloud,
    RadarConfig,
    VIEWS,
    gate_tag,
)

CAPTURE_MAGIC = b"MMVC"
CAPTURE_VERSION = 1

CSV_COLUMNS = (
    "frame",
    "t",
    "view",
    "gate",
    "x",
    "y",
    "z",
    "v",
    "energy",
    "range",
    "az",
    "el",
)

TRUTH_COLUMNS = (
    "frame",
    "t",
    "view",
    "scatterer",
    "range",
    "radial_velocity",
    "azimuth",
    "elevation",
    "amplitude",
    "in_fov",
)


class CaptureFormatError(ValueError):
    """Raised for malformed capture files."""


@dataclass(frozen=True)
class Capture:
    view: str
    config: RadarConfig
    frames: tuple
    clock_sample: tuple[int, int] | None = None


def write_capture(
    path,
    frames,
    config: RadarConfig,
    clock_sample: tuple[int, int] | None = None,
) -> None:
    """Write one stream of frames with its config embedded.

    Frames must all belong to one view, match the config's frame shape,
    carry nondecreasing local timestamps and fit the file's fields: a
    uint32 frame index and an int64 timestamp. All of this is checked
    before the file is opened.
    """
    frames = tuple(frames)
    views = {f.view for f in frames}
    if len(views) > 1:
        raise ValueError(f"capture mixes views {sorted(views)}")
    view = frames[0].view if frames else VIEWS[0]
    if view not in VIEWS:
        raise ValueError(f"capture view must be one of {VIEWS}, got {view!r}")
    prev_ts = None
    for f in frames:
        if f.samples.shape != config.frame_shape:
            raise ValueError(
                f"frame {f.frame_index} shape {f.samples.shape} does not "
                "match the capture config"
            )
        if not 0 <= f.frame_index < 2**32:
            raise ValueError(f"frame {f.frame_index} index does not fit in uint32")
        if not -(2**63) <= f.local_timestamp_ns < 2**63:
            raise ValueError(
                f"frame {f.frame_index} timestamp {f.local_timestamp_ns} does not fit in int64"
            )
        if prev_ts is not None and f.local_timestamp_ns < prev_ts:
            raise ValueError(
                f"frame {f.frame_index} timestamp decreases within the stream"
            )
        prev_ts = f.local_timestamp_ns

    meta = {"config": config.to_dict(), "clock_sample": None}
    if clock_sample is not None:
        ref_ns, local_ns = clock_sample
        meta["clock_sample"] = {"reference_ns": int(ref_ns), "local_ns": int(local_ns)}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(CAPTURE_MAGIC)
        fh.write(struct.pack("<I", CAPTURE_VERSION))
        fh.write(struct.pack("<B", VIEWS.index(view)))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(frames)))
        for f in frames:
            fh.write(struct.pack("<I", f.frame_index))
            fh.write(struct.pack("<q", f.local_timestamp_ns))
            fh.write(np.ascontiguousarray(f.samples, dtype="<c8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CaptureFormatError(f"truncated capture: short read in {what}")
    return buf


def _clock_sample(stored) -> tuple[int, int] | None:
    """The metadata's ``{"reference_ns", "local_ns"}`` integer pair as a
    tuple, or None when none is stored."""
    if stored is None:
        return None
    keys = ("reference_ns", "local_ns")
    if not isinstance(stored, dict) or not all(type(stored.get(k)) is int for k in keys):
        raise CaptureFormatError(
            f"bad clock sample {stored!r}: expected integer reference_ns and local_ns"
        )
    return stored["reference_ns"], stored["local_ns"]


def read_capture(path) -> Capture:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CAPTURE_MAGIC:
            raise CaptureFormatError(
                f"bad magic {magic!r}, expected {CAPTURE_MAGIC!r}"
            )
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CAPTURE_VERSION:
            raise CaptureFormatError(f"unsupported capture version {version}")
        (view_code,) = struct.unpack("<B", _read_exact(fh, 1, "view tag"))
        if view_code >= len(VIEWS):
            raise CaptureFormatError(f"unknown view code {view_code}")
        view = VIEWS[view_code]
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CaptureFormatError(f"bad capture metadata: {exc}") from None
        try:
            config = RadarConfig.from_dict(meta["config"])
        except (KeyError, TypeError, ConfigError) as exc:
            raise CaptureFormatError(f"bad embedded config: {exc}") from None
        clock_sample = _clock_sample(meta.get("clock_sample"))

        (n_frames,) = struct.unpack("<I", _read_exact(fh, 4, "frame count"))
        shape = config.frame_shape
        n_bytes = math.prod(shape) * 8  # complex64
        frames = []
        prev_ts = None
        for k in range(n_frames):
            (frame_index,) = struct.unpack("<I", _read_exact(fh, 4, f"frame {k} index"))
            (ts,) = struct.unpack("<q", _read_exact(fh, 8, f"frame {k} timestamp"))
            if prev_ts is not None and ts < prev_ts:
                raise CaptureFormatError(
                    f"frame {frame_index} timestamp decreases within the stream"
                )
            prev_ts = ts
            raw = _read_exact(fh, n_bytes, f"frame {k} samples")
            samples = np.frombuffer(raw, dtype="<c8").reshape(shape)
            # One NaN would persist through the motion filter's history
            # and spoil every frame after it.
            if not np.isfinite(samples).all():
                raise CaptureFormatError(
                    f"frame {frame_index} holds non-finite samples"
                )
            frames.append(
                FrameCube(
                    samples=samples,
                    view=view,
                    frame_index=frame_index,
                    local_timestamp_ns=ts,
                )
            )
        trailing = fh.read(1)
        if trailing:
            raise CaptureFormatError("trailing bytes after the last frame")
    return Capture(
        view=view, config=config, frames=tuple(frames), clock_sample=clock_sample
    )


# ---------------------------------------------------------------------------
# config files: YAML mapping mirroring RadarConfig field names
# ---------------------------------------------------------------------------


def load_config(path) -> RadarConfig:
    """Load and validate a config file.

    Keys mirror RadarConfig field names one-to-one; unspecified fields
    keep their defaults and unknown keys are errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:  # its message spans several lines
            lines = (line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"{path}: {'; '.join(filter(None, lines))}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a key: value mapping")
    try:
        return RadarConfig.from_dict(data)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_config(path, config: RadarConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# point cloud exports
# ---------------------------------------------------------------------------


def write_clouds_csv(path, clouds) -> None:
    """Write clouds as CSV, one row per point, fixed column order.

    Floats are written as ``repr`` (shortest round-trip). Each distinct
    value is formatted once per cloud, keyed on its bit pattern so that
    ``-0.0`` stays apart from ``0.0``; rows are then joined by column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for cloud in clouds:
            t = cloud.timestamp_s
            lead = f"{cloud.frame_index},{repr(t) if t is not None else ''}"
            gate_tags = [gate_tag(g) for g in range(cloud.gate_codes.max(initial=-1) + 1)]
            codes = zip(cloud.view_codes.tolist(), cloud.gate_codes.tolist())
            heads = [f"{lead},{VIEWS[v]},{gate_tags[g]}" for v, g in codes]
            values = np.vstack((cloud.positions_m.T, cloud.velocities_mps, cloud.energies,
                                cloud.ranges_m, cloud.azimuths_rad, cloud.elevations_rad))
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            columns = texts[inverse.reshape(values.shape)].tolist()
            fh.writelines(f"{row}\n" for row in map(",".join, zip(heads, *columns)))


PLY_PROPERTIES = ("x", "y", "z", "velocity", "energy")


def write_cloud_ply(path, cloud: PointCloud) -> None:
    """Write one cloud as binary little-endian PLY with velocity and
    energy as extra per-vertex properties."""
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {name}" for name in PLY_PROPERTIES]
    header.append("end_header")
    vertices = np.column_stack((cloud.positions_m, cloud.velocities_mps, cloud.energies))
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(vertices.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# simulated truth: one CSV row per (frame, view, scatterer)
# ---------------------------------------------------------------------------


def write_truth_csv(path, session) -> None:
    """Write a simulated session's per-frame scatterer truth as CSV,
    views in name order; floats as ``repr``, ``in_fov`` as 1 or 0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRUTH_COLUMNS) + "\n")
        for view in sorted(session.truth):
            for idx, (t, entries) in enumerate(zip(session.truth_times_s, session.truth[view])):
                for e in entries:
                    floats = (e.range_m, e.radial_velocity_mps, e.azimuth_rad,
                              e.elevation_rad, e.amplitude)
                    fh.write(f"{idx},{t!r},{view},{e.scatterer_index},"
                             f"{','.join(map(repr, floats))},{int(e.in_fov)}\n")


# ---------------------------------------------------------------------------
# debug tensor dump: shape header + little-endian complex values
# ---------------------------------------------------------------------------


def dump_tensor(path, array) -> None:
    """Write any intermediate array as ndim, dims (uint32 LE), then
    complex128 little-endian values in C order."""
    arr = np.asarray(array)
    with open(path, "wb") as fh:
        header = np.array([arr.ndim, *arr.shape], dtype="<u4")
        fh.write(header.tobytes())
        fh.write(arr.astype("<c16").tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a ``dump_tensor`` file; a cut or overlong one is a TensorFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 4 + 4 * int.from_bytes(blob[:4], "little")
    if len(blob) < header:
        raise TensorFormatError(f"cut tensor header: {len(blob)} of {header} bytes")
    shape = tuple(np.frombuffer(blob[4:header], dtype="<u4").tolist())
    if len(blob) != header + 16 * math.prod(shape):
        raise TensorFormatError(f"{len(blob)}-byte tensor file cannot hold shape {shape}")
    return np.frombuffer(blob, dtype="<c16", offset=header).reshape(shape).astype(complex)
