"""Correctness gates on the outputs of each workload.

Each check reads outputs the way a user of mmvc would (files on disk,
or the rows the public functions return) and returns what is wrong
with them; an empty result means the output passed. The self-test
feeds every check a deliberately bad output.
"""
from __future__ import annotations

import csv
import math
import struct

import numpy as np


class GateError(ValueError):
    """An output file cannot be read at all."""


# --------------------------------------------------------------------------
# process: features.mmft, clouds.csv, report.json, recovery against truth


def read_mmft(path) -> np.ndarray:
    """Parse a feature tensor file without mmvc's reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != b"MMFT":
        raise GateError(f"{path}: not a feature tensor (bad magic or header)")
    (version,) = struct.unpack("<I", blob[4:8])
    shape = struct.unpack("<4I", blob[8:24])
    payload = blob[24:]
    need = 4 * math.prod(shape)
    if version != 1 or len(payload) != need:
        raise GateError(
            f"{path}: version {version}, payload {len(payload)} bytes, "
            f"shape {shape} needs {need}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


def check_tensor(tensor: np.ndarray, shape: tuple) -> list:
    want = tuple(shape)
    problems = []
    if tensor.shape != want:
        problems.append(f"tensor shape {tensor.shape}, expected {want}")
    if not np.all(np.isfinite(tensor)):
        problems.append("tensor holds non-finite values")
    return problems


def check_report(report: dict, pairs: int, window: int) -> list:
    problems = []
    if report.get("pairs") != pairs:
        problems.append(f"report pairs {report.get('pairs')}, expected {pairs}")
    if report.get("pairing_rate") != 1.0:
        problems.append(f"pairing rate {report.get('pairing_rate')}, expected 1.0")
    accepted, total = report.get("windows_accepted"), report.get("windows_total")
    if accepted != pairs // window or total != pairs // window:
        problems.append(f"windows accepted {accepted}/{total}, expected all {pairs // window}")
    return problems


def read_clouds_csv(path) -> dict:
    """Rows of clouds.csv grouped by frame, numeric columns as floats."""
    frames: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["frame", "t", "view", "gate", "x", "y", "z", "v",
                      "energy", "range", "az", "el"]:
            raise GateError(f"{path}: unexpected header {header}")
        for row in reader:
            frame = int(row[0])
            values = tuple(float(v) for v in row[4:])
            frames.setdefault(frame, []).append((row[2], row[3]) + values)
    return frames


def check_clouds(frames: dict, expected_frames: int, points: int, warmup: int) -> set:
    """Frame indices whose fused cloud is wrong.

    A frame is wrong when it is missing, does not hold ``points`` rows,
    holds a non-finite value or, after MTI warm-up, is degraded: one
    view carries only all-zero sentinel points.
    """
    bad = {f for f in range(expected_frames) if f not in frames}
    bad |= {f for f in frames if not 0 <= f < expected_frames}
    for f, rows in frames.items():
        if len(rows) != points or not all(math.isfinite(v) for r in rows for v in r[2:]):
            bad.add(f)
            continue
        if f >= warmup:
            for view in ("left", "right"):
                if not any(r[0] == view and r[6] > 0.0 for r in rows):
                    bad.add(f)
    return bad


def read_truth_csv(path) -> dict:
    """(frame, view) -> [(range, radial velocity, azimuth, elevation, in fov)]."""
    truth: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (int(row["frame"]), row["view"])
            truth.setdefault(key, []).append((
                float(row["range"]),
                float(row["radial_velocity"]),
                float(row["azimuth"]),
                float(row["elevation"]),
                row["in_fov"] == "1",
            ))
    return truth


def recovery(frames: dict, truth: dict, config, warmup: int) -> tuple:
    """The `mmvc verify` rule on exported clouds: (recovered, evaluated).

    Per post-warm-up frame, the strongest real point must lie within one
    range bin, one Doppler bin (plus the range-rate coupling of the
    sweep) and one beam step of the nearest-range in-gate truth of its
    view. A frame with no real point counts against the rate when any
    view had in-gate truth.
    """
    from mmvc import C_LIGHT

    range_tol = config.range_resolution_m + 1e-9
    vel_tol = config.velocity_resolution_mps + 1e-9
    coupling = config.bandwidth_hz * config.center_wavelength_m / (2.0 * C_LIGHT)
    angles = config.beam_angles_rad
    beam_tol = (angles[1] - angles[0]) + 1e-9 if len(angles) > 1 else 1e-9

    def usable(frame, view):
        return [
            t for t in truth.get((frame, view), [])
            if t[4] and any(lo <= t[0] < hi for lo, hi in config.gate_bounds_m)
        ]

    recovered = evaluated = 0
    for frame in sorted(frames):
        if frame < warmup:
            continue
        best = None
        for row in frames[frame]:
            if row[6] > 0.0 and (best is None or row[6] > best[6]):
                best = row
        if best is None:
            if usable(frame, "left") or usable(frame, "right"):
                evaluated += 1
            continue
        candidates = usable(frame, best[0])
        if not candidates:
            continue
        evaluated += 1
        rng, v, az, el = best[7], best[5], best[8], best[9]
        t = min(candidates, key=lambda c: abs(c[0] - rng))
        if (
            abs(rng - t[0]) <= range_tol
            and abs(v - t[1]) <= vel_tol + coupling * abs(t[1])
            and abs(az - t[2]) <= beam_tol
            and abs(el - t[3]) <= beam_tol
        ):
            recovered += 1
    return recovered, evaluated


# --------------------------------------------------------------------------
# stream: per-pair rows, and the replay against run_pipeline


def check_pair_rows(rows: np.ndarray, degraded: bool, points: int, features: int) -> list:
    problems = []
    if rows.shape != (points, features):
        problems.append(f"rows shape {rows.shape}, expected {(points, features)}")
    if not np.all(np.isfinite(rows)):
        problems.append("rows hold non-finite values")
    if degraded:
        problems.append("fused frame degraded after warm-up")
    return problems


def replay_mismatches(replay: list, reference: list) -> list:
    """Indices where replayed rows are not bit-identical to the reference."""
    bad = [
        k for k, (a, b) in enumerate(zip(replay, reference))
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes()
    ]
    shorter = min(len(replay), len(reference))
    bad.extend(range(shorter, max(len(replay), len(reference))))
    return bad


# --------------------------------------------------------------------------
# simulate: captures read back against the generator's manifest


def check_capture(capture, view: str, manifest: dict) -> set:
    """Frame positions of a read-back capture that disagree with the manifest."""
    want = manifest["timestamps_ns"][view]
    got = [f.local_timestamp_ns for f in capture.frames]
    if capture.view != view or len(got) != len(want):
        return set(range(len(want)))
    return {k for k, (a, b) in enumerate(zip(got, want)) if a != b}
