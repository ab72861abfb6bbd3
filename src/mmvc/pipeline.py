"""Pipeline orchestration: calibrated frame streams to fused clouds and
feature tensors, and the closed-loop score against simulated truth.

Processing steps are called through their modules (``rdmap.process_frame``,
``spatial.extract_point_cloud``, ...), so a wrapper set on a module
attribute sees every call made here.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import fusion, rdmap, spatial
from .rdmap import ProcessingOptions
from .types import C_LIGHT, VIEWS, RadarConfig, default_pose_pair


class PipelineError(RuntimeError):
    """Raised when a capture pair cannot be processed end to end."""


@dataclasses.dataclass(frozen=True)
class PipelineResult:
    pairing: object
    fused_clouds: tuple
    windows: tuple
    tensor: np.ndarray | None
    report: dict


def calibrated_stream(frames, view: str, clock_sample=None) -> tuple:
    """Frames stamped with reference time from the view's clock sample,
    or with their local time (zero offset) when there is none."""
    if clock_sample is None:
        offset = fusion.ClockOffset(offset_ns=0, view=view)
    else:
        offset = fusion.offset_from_clock_sample(clock_sample, view)
    return fusion.calibrate_timestamps(frames, offset)


def frame_chain(frames, config, options, pose=None, weights=None, wanted=None):
    """Run one view's frames through the per-frame chain, in stream order.

    Every frame is motion filtered, so the background stays warm; frames
    in ``wanted`` (all when None) then get energy compensation if the
    options ask for it and, given a pose, point extraction. Yields
    (frame, range-Doppler map, cloud or None, seconds) for those frames.
    """
    state = rdmap.MtiState()
    for frame in frames:
        t0 = time.perf_counter()
        rd, state = rdmap.process_frame(frame, state, config, options)
        if wanted is not None and frame.frame_index not in wanted:
            continue
        if options.apply_compensation:
            rd = spatial.energy_compensation(rd)
        cloud = None
        if pose is not None:
            cloud = spatial.extract_point_cloud(rd, pose, config, weights=weights)
        yield frame, rd, cloud, time.perf_counter() - t0


def check_stream(frames, view: str) -> None:
    """Raise PipelineError when one view's stream repeats a frame index or
    steps back in calibrated time: clouds are keyed by frame index and
    motion filtering walks the stream in order."""
    seen = set()
    prev_ns = None
    for frame in frames:
        if frame.frame_index in seen:
            raise PipelineError(f"{view} stream repeats frame index {frame.frame_index}")
        seen.add(frame.frame_index)
        ts = frame.calibrated_timestamp_ns
        if ts is not None and prev_ns is not None and ts < prev_ns:
            raise PipelineError(
                f"{view} frame {frame.frame_index} timestamp decreases "
                "within the stream"
            )
        prev_ns = ts


def run_pipeline(
    left_frames,
    right_frames,
    config: RadarConfig,
    poses=None,
    options: ProcessingOptions = ProcessingOptions(),
    *,
    max_skew_s: float = fusion.MAX_SKEW_S,
    window_len: int = fusion.WINDOW_LEN,
    weights: np.ndarray | None = None,
) -> PipelineResult:
    """Run calibration-aware fusion over two calibrated frame streams.

    Both streams must already carry calibrated timestamps, hold each
    frame index once and run forward in time. Motion filtering consumes
    every frame in stream order so the background estimate stays warm
    across dropped frames; the beamforming chain runs only for frames
    that survived pairing. Each pair is fused once, and the tensor
    stacks the fused clouds of the accepted windows.
    """
    check_stream(left_frames, "left")
    check_stream(right_frames, "right")
    if poses is None:
        poses = default_pose_pair()

    pairing = fusion.pair_views(left_frames, right_frames, max_skew_s=max_skew_s)
    paired_left = {lf.frame_index for lf, _ in pairing.pairs}
    paired_right = {rf.frame_index for _, rf in pairing.pairs}

    pose_by_view = {p.view: p for p in poses}

    def sweep(stream, wanted, view):
        # frame index -> (cloud, seconds spent on the frame)
        pose = pose_by_view[view]
        chain = frame_chain(stream, config, options, pose, weights, wanted)
        return {frame.frame_index: (cloud, s) for frame, _, cloud, s in chain}

    left_clouds = sweep(left_frames, paired_left, "left")
    right_clouds = sweep(right_frames, paired_right, "right")

    paired = []
    fused = []
    pair_ms = []
    for lf, rf in pairing.pairs:
        lc, left_s = left_clouds[lf.frame_index]
        rc, right_s = right_clouds[rf.frame_index]
        pair_ms.append((left_s + right_s) * 1e3)
        paired.append(fusion.PairedFrame(lf.calibrated_timestamp_ns, rf.calibrated_timestamp_ns))
        fused.append(fusion.merge_views(lc, rc, poses))

    windows = fusion.gate_windows(paired, window_len=window_len, tau_s=config.tau_s)
    accepted = tuple(w for w in windows if w.accepted)
    blocks = [fused[w.start_index : w.start_index + window_len] for w in accepted]
    tensor = fusion.assemble_feature_tensor(blocks) if blocks else None

    report = {
        "frames": {"left": len(left_frames), "right": len(right_frames)},
        "pairs": len(pairing.pairs),
        "pairing_rate": pairing.pairing_rate,
        "dropped_left": pairing.dropped_left,
        "dropped_right": pairing.dropped_right,
        "windows_total": len(windows),
        "windows_accepted": len(accepted),
        "points_per_fused_frame": len(fused[0]) if fused else 0,
        "pad_points_total": sum(c.pad_count for c in fused),
        "degraded_frames": sum(1 for c in fused if c.degraded),
        "stages": {
            "mti": options.apply_mti,
            "mti_mode": options.mti_mode,
            "clutter_removal": options.apply_clutter_removal,
            "compensation": options.apply_compensation,
            "window": True,
        },
        "max_skew_s": max_skew_s,
        "window_len": window_len,
        "tau_s": config.tau_s,
        "timing_ms": {
            "mean_per_frame_pair": float(np.mean(pair_ms)) if pair_ms else 0.0,
            "max_per_frame_pair": float(np.max(pair_ms)) if pair_ms else 0.0,
        },
    }
    return PipelineResult(
        pairing=pairing,
        fused_clouds=tuple(fused),
        windows=windows,
        tensor=tensor,
        report=report,
    )


# --------------------------------------------------------------------------
# closed-loop score against simulated truth


def _truth_for_frame(session, view: str, idx: int, config: RadarConfig):
    gates = config.gate_bounds_m
    usable = []
    for truth in session.truth[view][idx]:
        if not truth.in_fov:
            continue
        if any(lo <= truth.range_m < hi for lo, hi in gates):
            usable.append(truth)
    return usable


# The share of evaluated frames ``score_recovery`` must find recovered
# for ``mmvc verify`` to pass.
RECOVERY_PASS_RATE = 0.98


def mti_warmup_frames(config: RadarConfig, options: ProcessingOptions) -> int:
    """Leading frames ``score_recovery`` skips: the motion filter's
    ``mti_history``-frame warm-up when it runs, none when it does not."""
    return config.mti_history if options.apply_mti else 0


def score_recovery(
    result: PipelineResult,
    session,
    config: RadarConfig,
    options: ProcessingOptions = ProcessingOptions(),
) -> tuple[int, int, dict]:
    """Match each fused frame's strongest real point against the truth.

    Returns (evaluated, recovered, errors): frames with in-gate truth in
    reach after the motion filter's warm-up, the frames whose point lies
    within one bin of the nearest truth target on every axis, and the
    absolute errors per axis (range, velocity, azimuth, elevation).
    """
    warmup = mti_warmup_frames(config, options)
    range_tol = config.range_resolution_m + 1e-9
    vel_tol = config.velocity_resolution_mps + 1e-9
    # The sweep couples range rate into the beat frequency, shifting the
    # apparent velocity by about B*lambda/(2c) per m/s of true speed;
    # allow for it so fast targets are judged fairly.
    coupling = (
        config.bandwidth_hz * config.center_wavelength_m / (2.0 * C_LIGHT)
    )
    angles = config.beam_angles_rad
    beam_tol = (angles[1] - angles[0]) + 1e-9 if len(angles) > 1 else 1e-9

    evaluated = 0
    recovered = 0
    errs = {"range": [], "velocity": [], "azimuth": [], "elevation": []}
    for (left_frame, _), cloud in zip(result.pairing.pairs, result.fused_clouds):
        idx = left_frame.frame_index
        if idx < warmup:
            continue
        # strongest real (non-pad) point; argmax keeps the first of equals
        real = np.flatnonzero(~cloud.is_pad)
        if real.size == 0:
            # nothing detected; only counts against us if truth was in reach
            if any(_truth_for_frame(session, v, idx, config) for v in VIEWS):
                evaluated += 1
            continue
        k = real[np.argmax(cloud.energies[real])]
        range_m = float(cloud.ranges_m[k])
        candidates = _truth_for_frame(session, VIEWS[cloud.view_codes[k]], idx, config)
        if not candidates:
            continue
        evaluated += 1
        truth = min(candidates, key=lambda t: abs(t.range_m - range_m))
        dr = abs(range_m - truth.range_m)
        dv = abs(float(cloud.velocities_mps[k]) - truth.radial_velocity_mps)
        daz = abs(float(cloud.azimuths_rad[k]) - truth.azimuth_rad)
        del_ = abs(float(cloud.elevations_rad[k]) - truth.elevation_rad)
        for axis, err in zip(errs, (dr, dv, daz, del_)):
            errs[axis].append(err)
        v_tol = vel_tol + coupling * abs(truth.radial_velocity_mps)
        if dr <= range_tol and dv <= v_tol and daz <= beam_tol and del_ <= beam_tol:
            recovered += 1
    return evaluated, recovered, errs
