"""Constants shared by the benchmark's processes: paths, sizes, metric names."""
from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENE = HERE / "scene.txt"
WORK = HERE / ".work"

WORKLOADS = ("process", "stream", "simulate")

# Seconds of scene each workload's generated inputs cover, at 10 frames
# per second per view: 40 pairs (4 windows) for one `mmvc process` run,
# 100 pairs held in memory for the stream replay (the scene repeats every
# 10 s, so the replay wraps without a jump), 20 pairs per `mmvc simulate`.
DURATION_S = {"process": 4.0, "stream": 10.0, "simulate": 2.0}

WINDOW = 10  # frames per alignment window, the `mmvc process` default
POINTS_PER_PAIR = 256
FEATURES = 8
RECOVERY_FLOOR = 0.98  # the `mmvc verify` pass mark

STREAM_MIN_SAMPLES = 200  # post-warm-up pairs, so 10 samples lie beyond p95
STREAM_CHECK_PAIRS = 20  # pairs replayed against run_pipeline once per run
STREAM_TRACE_BLOCK = 20  # pairs per unit in a traced stream run
SETUP_PROBES = 4  # extra fresh interpreters timed for setup_s

# Reported by untraced runs (--trace 0), on every workload.
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "pair_latency_p50_ms": "ms",
    "pair_latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# Public functions timed by the traced run, by layer (mmvc module).
TRACED = {
    "spatial": (
        "extract_point_cloud",
        "beamform",
        "detect_points",
        "range_gate",
        "select_by_velocity",
        "energy_compensation",
        "project_to_cartesian",
    ),
    "rdmap": (
        "process_frame",
        "mti_filter",
        "range_fft",
        "clutter_removal",
        "doppler_fft",
    ),
    "fusion": (
        "calibrate_timestamps",
        "pair_views",
        "merge_views",
        "gate_windows",
        "assemble_feature_tensor",
        "cloud_feature_rows",
        "write_feature_tensor",
    ),
    "io_files": ("read_capture", "write_clouds_csv", "write_capture"),
    "simulate": ("simulate_session", "synthesize_frame", "scatterer_truth"),
    "cli": ("main", "run_pipeline"),
}

# Spans whose self time (duration minus time covered by child spans) is
# reported: point building in extraction, and orchestration in the CLI.
SELF_TIMED = (
    "spatial.extract_point_cloud",
    "cli.run_pipeline",
    "cli.main",
)

CANDIDATE_KEYS = tuple(
    f"spatial.candidates.{view}.{gate}"
    for view in ("left", "right")
    for gate in ("upper", "lower")
)

COUNTS = {
    "spatial.beam_cells": "count",
    "spatial.beam_grid_bytes": "bytes",
    **{key: "count" for key in CANDIDATE_KEYS},
    "spatial.keep_ratio": "ratio",
    "spatial.pad_points": "count",
    "rdmap.frames": "count",
    "fusion.pairs": "count",
    "fusion.dropped_left": "count",
    "fusion.dropped_right": "count",
    "fusion.windows_accepted": "count",
    "fusion.windows_total": "count",
    "io_files.read_capture.mb_per_s": "MB/s",
    "io_files.write_clouds_csv.rows": "count",
    "io_files.write_capture.mb_per_s": "MB/s",
    "simulate.scatterer_frames": "count",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.p50_ms"] = "ms"
            units[f"{layer}.{name}.total_ms"] = "ms"
            units[f"{layer}.{name}.calls"] = "count"
    for name in SELF_TIMED:
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTS)
    return units
