"""Command line entry points.

Four subcommands cover the capture lifecycle:

  simulate   synthesize a two-view capture pair from a scene file
  process    run the full pipeline on a capture pair and export results
  verify     closed-loop check: simulate, process, compare against truth
  export     dump point clouds or raw spectra from a single capture

Every command exits 0 on success and nonzero on failure, printing a
one-line ``error: ...`` diagnostic to stderr so shell scripts can gate
on the return code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .fusion import MAX_SKEW_S, WINDOW_LEN, write_feature_tensor
from .io_files import (
    CaptureFormatError,
    dump_tensor,
    load_config,
    read_capture,
    write_capture,
    write_cloud_ply,
    write_clouds_csv,
    write_truth_csv,
)
from .pipeline import (
    RECOVERY_PASS_RATE,
    PipelineError,
    calibrated_stream,
    check_stream,
    frame_chain,
    mti_warmup_frames,
    run_pipeline,
    score_recovery,
)
from .rdmap import MTI_MODES, ProcessingOptions
from .simulate import SceneFormatError, frame_count, load_scene, simulate_session
from .spatial import dbf_weights
from .types import ConfigError, RadarConfig, default_pose_pair


# --------------------------------------------------------------------------
# shared argument plumbing


def _parse_gates(text: str):
    gates = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ConfigError(f"bad gate spec {part!r}, expected low:high")
        try:
            gates.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"bad gate spec {part!r}, expected low:high") from None
    return tuple(gates)


def _load_or_default_config(path: str | None) -> RadarConfig:
    if path is None:
        return RadarConfig()
    return load_config(path)


def _apply_config_overrides(config: RadarConfig, args) -> RadarConfig:
    # one replace, so bad --gates and --tau-ms are reported on one line
    changes = {}
    if args.gates:
        changes["gate_bounds_m"] = _parse_gates(args.gates)
    if args.tau_ms is not None:
        changes["tau_s"] = args.tau_ms * 1e-3
    return dataclasses.replace(config, **changes)


def _check_numeric_flags(args) -> None:
    # each numeric flag's least value; every value must also be finite
    for name, floor in (("window", 1), ("max_skew_ms", 0.0), ("duration", 0.0)):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= floor):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be finite and at least {floor}, got {value}")


def _options_from_args(args) -> ProcessingOptions:
    return ProcessingOptions(
        apply_mti=not args.no_mti,
        mti_mode=args.mti_mode,
        apply_clutter_removal=not args.no_clutter,
        apply_compensation=not args.no_compensation,
    )


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return p


def _add_stage_flags(sub):
    sub.add_argument("--no-mti", action="store_true", help="skip motion filtering")
    sub.add_argument(
        "--mti-mode", choices=MTI_MODES, default="ema",
        help="background estimator for motion filtering",
    )
    sub.add_argument(
        "--no-clutter", action="store_true", help="skip static clutter removal"
    )
    sub.add_argument(
        "--no-compensation", action="store_true",
        help="skip range-dependent energy compensation",
    )


def _add_fusion_flags(sub):
    sub.add_argument(
        "--gates", default=None,
        help='range gates as "low:high,low:high" in meters',
    )
    sub.add_argument(
        "--tau-ms", type=float, default=None,
        help="window rejection threshold on mean cross-stream gap",
    )
    sub.add_argument(
        "--max-skew-ms", type=float, default=MAX_SKEW_S * 1e3,
        help="maximum pairing skew between views",
    )
    sub.add_argument(
        "--window", type=int, default=WINDOW_LEN, help="frames per alignment window"
    )


# --------------------------------------------------------------------------
# simulate


def _frames_in(duration: float, config: RadarConfig) -> int:
    """Frames ``simulate_session`` makes for ``duration``; raises when none."""
    frames = frame_count(duration, config)
    if not frames:
        raise ConfigError(
            f"--duration {duration} s holds no {config.frame_period_s} s frame"
        )
    return frames


def _cmd_simulate(args) -> int:
    scene_path = _require_file(args.scene, "scene file")
    scene = load_scene(scene_path)
    config = _load_or_default_config(args.config)
    _frames_in(args.duration, config)
    poses = default_pose_pair()
    session = simulate_session(scene, poses, config, args.duration, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for view in ("left", "right"):
        write_capture(
            out / f"{view}.mmvc",
            session.frames[view],
            config,
            clock_sample=session.clock_samples[view],
        )
    write_truth_csv(out / "truth.csv", session)
    n = len(session.frames["left"])
    print(f"wrote {n} frames per view to {out} (seed {args.seed})")
    return 0


# --------------------------------------------------------------------------
# process


def _load_capture_pair(args):
    left = read_capture(_require_file(args.left, "capture file"))
    right = read_capture(_require_file(args.right, "capture file"))
    if left.view != "left" or right.view != "right":
        raise PipelineError(
            f"expected a left/right capture pair, got {left.view}/{right.view}"
        )
    mismatch = [f.name for f in dataclasses.fields(RadarConfig)
                if getattr(left.config, f.name) != getattr(right.config, f.name)]
    if mismatch:
        raise PipelineError(
            "capture configs disagree on: " + ", ".join(mismatch)
        )
    return left, right


def _write_clouds(clouds, fmt: str, out: Path, ply_dir: Path) -> None:
    """out/clouds.csv, or one ply_dir/frame_NNNNNN.ply per cloud, or nothing."""
    if fmt == "csv":
        write_clouds_csv(out / "clouds.csv", clouds)
    elif fmt == "ply":
        ply_dir.mkdir(exist_ok=True)
        for cloud in clouds:
            write_cloud_ply(ply_dir / f"frame_{cloud.frame_index:06d}.ply", cloud)


def _cmd_process(args) -> int:
    left_cap, right_cap = _load_capture_pair(args)
    config = _apply_config_overrides(left_cap.config, args)
    options = _options_from_args(args)

    left = calibrated_stream(left_cap.frames, left_cap.view, left_cap.clock_sample)
    right = calibrated_stream(right_cap.frames, right_cap.view, right_cap.clock_sample)
    result = run_pipeline(
        left,
        right,
        config,
        options=options,
        max_skew_s=args.max_skew_ms * 1e-3,
        window_len=args.window,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_clouds(result.fused_clouds, args.format, out, out / "ply")
    if result.tensor is not None:
        write_feature_tensor(out / "features.mmft", result.tensor)
    (out / "report.json").write_text(
        json.dumps(result.report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    r = result.report
    print(
        f"paired {r['pairs']} frames "
        f"({r['windows_accepted']}/{r['windows_total']} windows accepted), "
        f"report in {out / 'report.json'}"
    )
    return 0


# --------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    scene_path = _require_file(args.scene, "scene file")
    scene = load_scene(scene_path)
    config = _apply_config_overrides(_load_or_default_config(args.config), args)
    options = _options_from_args(args)
    if _frames_in(args.duration, config) <= mti_warmup_frames(config, options):
        raise ConfigError(
            f"--duration {args.duration} s ends inside the "
            f"{config.mti_history}-frame motion-filter warm-up"
        )
    poses = default_pose_pair()
    session = simulate_session(scene, poses, config, args.duration, seed=args.seed)

    left, right = (
        calibrated_stream(session.frames[view], view, session.clock_samples[view])
        for view in ("left", "right")
    )
    result = run_pipeline(
        left,
        right,
        config,
        poses=poses,
        options=options,
        max_skew_s=args.max_skew_ms * 1e-3,
        window_len=args.window,
        # --corrupt-dbf-deg steers against angles shifted off the true grid
        weights=dbf_weights(config, offset_deg=args.corrupt_dbf_deg),
    )
    evaluated, recovered, errors = score_recovery(result, session, config, options)

    if evaluated == 0:
        print("verify: no in-gate truth to evaluate (neutral)")
        return 0

    rate = recovered / evaluated
    for axis, values in errors.items():
        if values:
            print(
                f"{axis:>10}: mean {np.mean(values):.4g}  max {np.max(values):.4g}"
            )
    passed = rate >= RECOVERY_PASS_RATE
    print(
        f"verify: {'PASS' if passed else 'FAIL'} recovered {recovered}/{evaluated} frames "
        f"({100.0 * rate:.1f}%)"
    )
    return 0 if passed else 1


# --------------------------------------------------------------------------
# export


def _cmd_export(args) -> int:
    capture = read_capture(_require_file(args.capture, "capture file"))
    options = _options_from_args(args)
    frames = calibrated_stream(capture.frames, capture.view, capture.clock_sample)
    check_stream(frames, capture.view)
    pose = None
    if args.format != "tensor":
        pose = next(p for p in default_pose_pair() if p.view == capture.view)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clouds = []
    for frame, rd, cloud, _ in frame_chain(frames, capture.config, options, pose):
        if cloud is None:
            dump_tensor(out / f"rd_{frame.frame_index:06d}.tensor", rd.cells)
        else:
            clouds.append(cloud)
    _write_clouds(clouds, args.format, out, out)
    print(f"exported {len(frames)} frames from {capture.view} capture to {out}")
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmvc", description="two-view radar capture toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a capture pair from a scene")
    sim.add_argument("--scene", required=True, help="scene description file")
    sim.add_argument("--config", default=None, help="radar config YAML")
    sim.add_argument("--duration", type=float, default=2.0, help="seconds of capture")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    proc = sub.add_parser("process", help="run the pipeline on a capture pair")
    proc.add_argument("--left", required=True, help="left view capture")
    proc.add_argument("--right", required=True, help="right view capture")
    proc.add_argument("--out", required=True, help="output directory")
    proc.add_argument(
        "--format", choices=("csv", "ply", "tensor"), default="csv",
        help="point cloud export format (tensor skips per-point export)",
    )
    _add_stage_flags(proc)
    _add_fusion_flags(proc)
    proc.set_defaults(func=_cmd_process)

    ver = sub.add_parser("verify", help="simulate, process, compare against truth")
    ver.add_argument("--scene", required=True, help="scene description file")
    ver.add_argument("--config", default=None, help="radar config YAML")
    ver.add_argument("--duration", type=float, default=2.0)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--corrupt-dbf-deg", type=float, default=0.0,
                     help=argparse.SUPPRESS)
    _add_stage_flags(ver)
    _add_fusion_flags(ver)
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("export", help="dump clouds or spectra from one capture")
    exp.add_argument("--capture", required=True, help="capture file")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument(
        "--format", choices=("csv", "ply", "tensor"), default="csv",
        help="csv/ply point clouds or raw range-Doppler tensors",
    )
    _add_stage_flags(exp)
    exp.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_numeric_flags(args)
        return args.func(args)
    except (
        ConfigError,
        CaptureFormatError,
        SceneFormatError,
        PipelineError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
