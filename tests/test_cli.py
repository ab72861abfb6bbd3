"""Command line flows: simulate, process, verify, export."""
import dataclasses
import json
import struct

import numpy as np
import pytest

from conftest import CLOUD_COLUMNS
from mmvc import (
    PointCloud,
    RadarConfig,
    fusion,
    load_tensor,
    rdmap,
    read_capture,
    read_feature_tensor,
    save_config,
    spatial,
    write_capture,
    write_clouds_csv,
)
from mmvc.cli import PipelineError, main, run_pipeline
from mmvc.pipeline import calibrated_stream
from mmvc.types import VIEWS

MOVER_SCENE = """\
scatterer reflectivity=0.92
waypoint t=0.0 x=0.0 y=-0.9 z=0.0
waypoint t=2.0 x=0.0 y=-1.5 z=0.0
noise std=1.0
decay off
"""

QUIET_SCENE = """\
scatterer reflectivity=1.0
waypoint t=0.0 x=0.0 y=-0.9 z=0.0
waypoint t=2.0 x=0.0 y=-1.5 z=0.0
decay off
"""


def _simulate(tmp_path, scene_text=QUIET_SCENE, duration="0.3", seed="0", name="cap"):
    scene = tmp_path / "scene.txt"
    scene.write_text(scene_text)
    out = tmp_path / name
    code = main(
        [
            "simulate",
            "--scene",
            str(scene),
            "--duration",
            duration,
            "--seed",
            seed,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_capture_pair_and_truth(tmp_path, capsys):
    out = _simulate(tmp_path)
    assert (out / "left.mmvc").is_file()
    assert (out / "right.mmvc").is_file()
    assert (out / "truth.csv").is_file()
    assert "wrote 3 frames per view" in capsys.readouterr().out

    left = read_capture(out / "left.mmvc")
    right = read_capture(out / "right.mmvc")
    assert left.view == "left"
    assert right.view == "right"
    assert len(left.frames) == 3
    assert left.config == right.config
    assert left.clock_sample == (0, 0)

    lines = (out / "truth.csv").read_text().splitlines()
    assert lines[0] == (
        "frame,t,view,scatterer,range,radial_velocity,azimuth,elevation,"
        "amplitude,in_fov"
    )
    assert len(lines) == 1 + 3 * 2  # one scatterer, three frames, two views
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.04445)  # truth sits mid-frame
    assert first[9] in ("0", "1")


def test_simulate_is_deterministic_per_seed(tmp_path):
    a = _simulate(tmp_path, scene_text=MOVER_SCENE, name="a", seed="5")
    b = _simulate(tmp_path, scene_text=MOVER_SCENE, name="b", seed="5")
    c = _simulate(tmp_path, scene_text=MOVER_SCENE, name="c", seed="6")
    assert (a / "left.mmvc").read_bytes() == (b / "left.mmvc").read_bytes()
    assert (a / "truth.csv").read_text() == (b / "truth.csv").read_text()
    assert (a / "left.mmvc").read_bytes() != (c / "left.mmvc").read_bytes()


def test_simulate_records_clock_offsets(tmp_path):
    scene = QUIET_SCENE + "clock left offset_s=0.004\nclock right offset_s=-0.0035\n"
    out = _simulate(tmp_path, scene_text=scene)
    assert read_capture(out / "left.mmvc").clock_sample == (0, 4_000_000)
    assert read_capture(out / "right.mmvc").clock_sample == (0, -3_500_000)


def test_simulate_requires_scene_file(tmp_path, capsys):
    code = main(
        ["simulate", "--scene", str(tmp_path / "none.txt"), "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scene file not found:")


def test_simulate_reports_scene_syntax_position(tmp_path, capsys):
    scene = tmp_path / "bad.txt"
    scene.write_text("scatterer\norbit r=1\n")
    code = main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bad.txt:2: unknown directive 'orbit'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("scatterer reflectivity=inf\nwaypoint t=0 x=0 y=-1 z=0\n", "1: scatterer"),
        ("clock left offset_s=nan\n", "1: clock offset"),
        ("noise std=nan\n", "1: noise std"),
    ],
)
def test_simulate_reports_bad_scene_value_position(tmp_path, capsys, text, message):
    scene = tmp_path / "bad.txt"
    scene.write_text(text)
    assert main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {scene}:{message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


# the waypoint sits on the right sensor's origin; the left sensor sees it
# 0.32 m off to the side
AT_RIGHT_ORIGIN_SCENE = """\
scatterer
waypoint t=0.0 x=0.16 y=0 z=0
"""


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_scatterer_at_a_sensor_origin_is_a_one_line_error(tmp_path, capsys, command):
    scene = tmp_path / "scene.txt"
    scene.write_text(AT_RIGHT_ORIGIN_SCENE)
    argv = [command, "--scene", str(scene), "--duration", "1.0"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "cap")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: scatterer 0 passes through the sensor origin of the right view"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.txt"]


@pytest.mark.parametrize(
    "clock, message",
    [
        ("left offset_s=1e12", "the left clock puts frame 0 at 1e+12 s"),
        # the jitter draw of the right view's first frame
        ("right jitter_s=1e12", "the right clock puts frame 0 at -1.09519e+12 s"),
    ],
)
def test_clock_past_an_int64_timestamp_is_a_one_line_error(tmp_path, capsys, clock, message):
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE + f"clock {clock}\n")
    argv = ["simulate", "--scene", str(scene), "--duration", "0.3", "--out", str(tmp_path / "cap")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}, past an int64 nanosecond timestamp"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.txt"]


# --- process -----------------------------------------------------------------


def test_process_writes_report_clouds_and_tensor(tmp_path):
    cap = _simulate(tmp_path, scene_text=MOVER_SCENE, duration="0.3")
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(out),
            "--window",
            "3",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frames"] == {"left": 3, "right": 3}
    assert report["pairs"] == 3
    assert report["pairing_rate"] == 1.0
    assert report["windows_total"] == 1
    assert report["windows_accepted"] == 1
    assert report["points_per_fused_frame"] == 256
    assert report["stages"] == {
        "mti": True,
        "mti_mode": "ema",
        "clutter_removal": True,
        "compensation": True,
        "window": True,
    }
    assert report["tau_s"] == 0.02
    assert report["timing_ms"]["mean_per_frame_pair"] > 0

    csv_lines = (out / "clouds.csv").read_text().splitlines()
    assert csv_lines[0].startswith("frame,t,view,gate,")
    assert len(csv_lines) == 1 + 3 * 256

    tensor = read_feature_tensor(out / "features.mmft")
    assert tensor.shape == (1, 3, 256, 8)


def test_process_pairs_offset_clocks(tmp_path):
    scene = MOVER_SCENE + "clock left offset_s=0.5\nclock right offset_s=-0.25\n"
    cap = _simulate(tmp_path, scene_text=scene, duration="0.3")
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # raw local clocks disagree by 750 ms; the stored clock samples
    # bring the streams back into perfect step
    assert report["pairs"] == 3
    assert report["dropped_left"] == 0


def test_process_stage_flags_reach_report(tmp_path):
    cap = _simulate(tmp_path, duration="0.2")
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(out),
            "--no-mti",
            "--no-clutter",
            "--no-compensation",
            "--tau-ms",
            "15",
            "--window",
            "2",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["mti"] is False
    assert report["stages"]["clutter_removal"] is False
    assert report["stages"]["compensation"] is False
    assert report["tau_s"] == pytest.approx(0.015)
    assert report["window_len"] == 2


def test_process_ply_export(tmp_path):
    cap = _simulate(tmp_path, duration="0.2")
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(out),
            "--format",
            "ply",
        ]
    )
    assert code == 0
    plys = sorted((out / "ply").glob("frame_*.ply"))
    assert len(plys) == 2
    assert plys[0].read_bytes().startswith(b"ply\n")
    assert not (out / "clouds.csv").exists()


def test_process_rejects_swapped_views(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    code = main(
        [
            "process",
            "--left",
            str(cap / "right.mmvc"),
            "--right",
            str(cap / "left.mmvc"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert (
        "expected a left/right capture pair, got right/left"
        in capsys.readouterr().err
    )


def test_process_rejects_config_mismatch(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    right = read_capture(cap / "right.mmvc")
    altered = dataclasses.replace(right.config, mti_alpha=0.9, mti_history=2)
    write_capture(
        cap / "right.mmvc", right.frames, altered, clock_sample=right.clock_sample
    )
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "capture configs disagree on: mti_alpha, mti_history" in err


def _process_argv(cap, out):
    return [
        "process",
        "--left",
        str(cap / "left.mmvc"),
        "--right",
        str(cap / "right.mmvc"),
        "--out",
        str(out),
    ]


def test_process_rejects_repeated_frame_indices(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.3")
    left = read_capture(cap / "left.mmvc")
    frames = tuple(dataclasses.replace(f, frame_index=0) for f in left.frames)
    write_capture(
        cap / "left.mmvc", frames, left.config, clock_sample=left.clock_sample
    )
    code = main(_process_argv(cap, tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: left stream repeats frame index 0")


def test_process_rejects_non_finite_samples(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.3")
    right = read_capture(cap / "right.mmvc")
    samples = right.frames[2].samples.copy()
    samples[0, 0, 0] = np.nan
    frames = right.frames[:2] + (dataclasses.replace(right.frames[2], samples=samples),)
    write_capture(
        cap / "right.mmvc", frames, right.config, clock_sample=right.clock_sample
    )
    code = main(_process_argv(cap, tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frame 2 holds non-finite samples")


def _embed(path, field, value):
    """Rewrite one field of a capture's embedded config."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 9)
    meta = json.loads(data[13 : 13 + meta_len])
    meta["config"][field] = value
    blob = json.dumps(meta).encode("utf-8")
    rest = data[13 + meta_len :]
    path.write_bytes(data[:9] + struct.pack("<I", len(blob)) + blob + rest)


@pytest.mark.parametrize("gates", [[[0.3]], [["x", 1.0]], [[0.3, 0.9], 5], [[0.31, 0.34]]])
def test_commands_reject_malformed_embedded_gates(tmp_path, capsys, gates):
    cap = _simulate(tmp_path, duration="0.2")
    for view in ("left", "right"):
        _embed(cap / f"{view}.mmvc", "gate_bounds_m", gates)
    export = ["export", "--capture", str(cap / "left.mmvc"), "--out", str(tmp_path / "e")]
    for argv in (_process_argv(cap, tmp_path / "o"), export):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: bad embedded config: gate_bounds_m:")


def test_commands_reject_non_finite_embedded_config(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    for view in ("left", "right"):
        _embed(cap / f"{view}.mmvc", "frame_period_s", float("nan"))
    export = ["export", "--capture", str(cap / "left.mmvc"), "--out", str(tmp_path / "e")]
    for argv in (_process_argv(cap, tmp_path / "o"), export):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad embedded config: frame_period_s: must be positive and finite"]


def test_process_calls_layers_through_their_modules(tmp_path, monkeypatch):
    # wrappers set on the layer modules must see the pipeline's calls
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(rdmap, "process_frame")
    counting(spatial, "energy_compensation")
    counting(spatial, "extract_point_cloud")
    counting(fusion, "pair_views")
    counting(fusion, "merge_views")
    counting(fusion, "gate_windows")
    cap = _simulate(tmp_path, duration="0.3")
    assert main(_process_argv(cap, tmp_path / "o")) == 0
    assert calls == {
        "process_frame": 6,
        "energy_compensation": 6,
        "extract_point_cloud": 6,
        "pair_views": 1,
        "merge_views": 3,
        "gate_windows": 1,
    }


def test_process_rejects_missing_capture(tmp_path, capsys):
    code = main(
        [
            "process",
            "--left",
            str(tmp_path / "no.mmvc"),
            "--right",
            str(tmp_path / "no.mmvc"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "capture file not found" in capsys.readouterr().err


def test_process_rejects_bad_gate_spec(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    code = main(
        [
            "process",
            "--left",
            str(cap / "left.mmvc"),
            "--right",
            str(cap / "right.mmvc"),
            "--out",
            str(tmp_path / "o"),
            "--gates",
            "0.5",
        ]
    )
    assert code == 1
    assert "bad gate spec" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------


def test_verify_passes_on_clean_scene(tmp_path, capsys):
    scene = tmp_path / "mover.txt"
    scene.write_text(MOVER_SCENE)
    code = main(
        ["verify", "--scene", str(scene), "--duration", "0.8", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verify: PASS recovered 3/3 frames (100.0%)" in out


def test_verify_fails_with_corrupted_beam_weights(tmp_path, capsys):
    scene = tmp_path / "mover.txt"
    scene.write_text(MOVER_SCENE)
    code = main(
        [
            "verify",
            "--scene",
            str(scene),
            "--duration",
            "0.8",
            "--seed",
            "1",
            "--corrupt-dbf-deg",
            "9",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "verify: FAIL" in out


def test_verify_is_neutral_without_reachable_truth(tmp_path, capsys):
    # 10 frames, 5 of them past the motion filter's warm-up
    scene = tmp_path / "empty.txt"
    scene.write_text("decay off\n")
    code = main(
        ["verify", "--scene", str(scene), "--duration", "1.0", "--seed", "0"]
    )
    assert code == 0
    assert "no in-gate truth to evaluate (neutral)" in capsys.readouterr().out


@pytest.mark.parametrize("duration", ["0", "0.3", "0.5"])
def test_verify_rejects_a_duration_with_nothing_to_score(tmp_path, capsys, duration):
    # no frame at all, or every frame inside the 5-frame motion-filter
    # warm-up that scoring skips: a neutral verdict would pass a run that
    # scored nothing
    scene = tmp_path / "mover.txt"
    scene.write_text(MOVER_SCENE)
    argv = ["verify", "--scene", str(scene), "--duration", duration, "--seed", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --duration ")
    if duration != "0":
        # without the motion filter there is no warm-up to fall inside
        assert main(argv + ["--no-mti"]) == 0


# --- export ------------------------------------------------------------------


def test_export_csv(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    out = tmp_path / "exp"
    code = main(
        ["export", "--capture", str(cap / "right.mmvc"), "--out", str(out)]
    )
    assert code == 0
    assert "exported 2 frames from right capture" in capsys.readouterr().out
    lines = (out / "clouds.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 128  # 128 points per single-view frame


def test_export_clouds_match_pipeline_clouds(tmp_path, config, poses):
    cap = _simulate(tmp_path, scene_text=MOVER_SCENE, duration="0.5")
    captures = [read_capture(cap / f"{view}.mmvc") for view in ("left", "right")]
    left, right = (calibrated_stream(c.frames, c.view, c.clock_sample) for c in captures)
    result = run_pipeline(left, right, config, poses)
    assert result.report["pairs"] == 5
    for view in ("left", "right"):
        out = tmp_path / f"exp_{view}"
        code = main(
            ["export", "--capture", str(cap / f"{view}.mmvc"), "--out", str(out)]
        )
        assert code == 0
        # the view's half of each fused cloud, stamped like its own frame
        clouds = []
        for pair, fused in zip(result.pairing.pairs, result.fused_clouds):
            frame = pair[VIEWS.index(view)]
            rows = fused.view_codes == VIEWS.index(view)
            clouds.append(
                PointCloud(
                    **{name: getattr(fused, name)[rows] for name in CLOUD_COLUMNS},
                    view=view,
                    frame_index=frame.frame_index,
                    timestamp_ns=frame.calibrated_timestamp_ns,
                )
            )
        write_clouds_csv(tmp_path / f"{view}.csv", clouds)
        expected = (tmp_path / f"{view}.csv").read_text()
        assert (out / "clouds.csv").read_text() == expected


def test_export_tensor(tmp_path):
    cap = _simulate(tmp_path, duration="0.2")
    out = tmp_path / "exp"
    code = main(
        [
            "export",
            "--capture",
            str(cap / "left.mmvc"),
            "--out",
            str(out),
            "--format",
            "tensor",
        ]
    )
    assert code == 0
    dumped = sorted(out.glob("rd_*.tensor"))
    assert len(dumped) == 2
    cells = load_tensor(dumped[0])
    assert cells.shape == (64, 128, 3)


def test_export_ply(tmp_path):
    cap = _simulate(tmp_path, duration="0.2")
    out = tmp_path / "exp"
    code = main(
        [
            "export",
            "--capture",
            str(cap / "left.mmvc"),
            "--out",
            str(out),
            "--format",
            "ply",
        ]
    )
    assert code == 0
    assert len(sorted(out.glob("frame_*.ply"))) == 2



@pytest.mark.parametrize("fmt", ["csv", "ply", "tensor"])
def test_export_rejects_a_repeated_frame_index(tmp_path, capsys, fmt):
    # timestamps still increase, so the capture itself reads back fine
    cap = _simulate(tmp_path, duration="0.8", seed="1")
    left = read_capture(cap / "left.mmvc")
    frames = left.frames[:7] + (dataclasses.replace(left.frames[7], frame_index=6),)
    write_capture(cap / "left.mmvc", frames, left.config, clock_sample=left.clock_sample)
    out = tmp_path / "exp"
    out.mkdir()
    argv = ["export", "--capture", str(cap / "left.mmvc"), "--out", str(out), "--format", fmt]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: left stream repeats frame index 6")
    assert list(out.iterdir()) == []

# --- argument handling ---------------------------------------------------------


def test_main_requires_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_main_rejects_missing_required_argument(capsys):
    assert main(["simulate"]) == 2
    capsys.readouterr()


def test_config_file_flows_through_simulate(tmp_path):
    cfg_path = tmp_path / "radar.yaml"
    save_config(cfg_path, RadarConfig(mti_history=3))
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    out = tmp_path / "cap"
    code = main(
        [
            "simulate",
            "--scene",
            str(scene),
            "--config",
            str(cfg_path),
            "--duration",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert read_capture(out / "left.mmvc").config.mti_history == 3


def test_config_file_with_non_numeric_value_is_an_error(tmp_path, capsys):
    cfg_path = tmp_path / "radar.yaml"
    # YAML 1.1 reads an exponent without a dot and a sign as text
    cfg_path.write_text("beam_count: x\nbandwidth_hz: 3e9\n")
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    argv = ["simulate", "--scene", str(scene), "--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "cap")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: {cfg_path}: bandwidth_hz: must be a number, got '3e9'; "
        "beam_count: must be an integer, got 'x'"
    ]


def test_config_file_with_a_zero_sweep_is_one_error_line(tmp_path, capsys):
    # the default spacing derives from the sweep centre: no division by zero
    cfg_path = tmp_path / "radar.yaml"
    cfg_path.write_text("start_freq_hz: 0\nend_freq_hz: 0\n")
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    argv = ["simulate", "--scene", str(scene), "--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "cap")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg_path}: start_freq_hz: must be positive and finite"]


def test_commands_reject_a_zero_embedded_sweep(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    # no spacing: the default derives from the sweep centre
    zero_sweep = {"start_freq_hz": 0.0, "end_freq_hz": 0.0, "antenna_spacing_m": None}
    for view in ("left", "right"):
        for field, value in zero_sweep.items():
            _embed(cap / f"{view}.mmvc", field, value)
    export = ["export", "--capture", str(cap / "left.mmvc"), "--out", str(tmp_path / "e")]
    for argv in (_process_argv(cap, tmp_path / "o"), export):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad embedded config: start_freq_hz: must be positive and finite"]


def test_two_bad_overrides_are_one_error_line(tmp_path, capsys):
    cap = _simulate(tmp_path, duration="0.2")
    capsys.readouterr()
    argv = _process_argv(cap, tmp_path / "o") + ["--gates", "0.9:0.3", "--tau-ms", "nan"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: tau_s: must be positive and finite; "
        "gate_bounds_m: gate bounds not increasing: (0.9, 0.3)"
    ]


NO_BIN_GATE = "gate_bounds_m: gate (0.31, 0.34) holds no range-bin centre"


@pytest.mark.parametrize("command", ["process", "verify", "simulate"])
def test_gate_holding_no_range_bin_is_a_one_line_error(tmp_path, capsys, command):
    # 0.31-0.34 m lies between the centres of range bins 6 and 7 (0.05 m apart)
    work = tmp_path / "work"
    work.mkdir()
    scene = work / "scene.txt"
    scene.write_text(QUIET_SCENE)
    if command == "process":
        cap = _simulate(work, duration="0.2")
        argv = _process_argv(cap, tmp_path / "o") + ["--gates", "0.31:0.34,0.9:1.5"]
        message = NO_BIN_GATE
    elif command == "verify":
        argv = ["verify", "--scene", str(scene), "--gates", "0.31:0.34"]
        message = NO_BIN_GATE
    else:
        cfg_path = work / "radar.yaml"
        cfg_path.write_text("gate_bounds_m: [[0.31, 0.34]]\n")
        argv = ["simulate", "--scene", str(scene), "--config", str(cfg_path)]
        argv += ["--out", str(tmp_path / "o")]
        message = f"{cfg_path}: {NO_BIN_GATE}"
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]


def test_config_file_with_two_bad_fields_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "radar.yaml"
    cfg_path.write_text("frame_period_s: .nan\nmti_history: 0\n")
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    argv = ["simulate", "--scene", str(scene), "--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "cap")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {cfg_path}: ")
    assert "frame_period_s: must be positive and finite" in err[0]
    assert "mti_history: must be at least 1" in err[0]


def test_config_file_yaml_parse_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the parser's message spans several lines; the error is one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.yaml").write_text("beam_count: [1,\n")
    (tmp_path / "scene.txt").write_text(QUIET_SCENE)
    argv = ["simulate", "--scene", "scene.txt", "--config", "bad.yaml", "--out", "cap"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: bad.yaml: ")


@pytest.mark.parametrize("duration", ["0", "0.04"])
def test_simulate_rejects_a_duration_without_frames(tmp_path, capsys, duration):
    # 0.04 s rounds to no 0.1 s frame; an empty right capture would read
    # back tagged left
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    out = tmp_path / "cap"
    argv = ["simulate", "--scene", str(scene), "--duration", duration, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert not list(tmp_path.rglob("*.mmvc"))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("start_freq_hz", ".nan", "start_freq_hz: must be positive and finite"),
        ("end_freq_hz", ".nan", "end_freq_hz: sweep must run upward from start_freq_hz"),
        ("end_freq_hz", ".inf", "end_freq_hz: sweep must run upward from start_freq_hz"),
        ("bandwidth_hz", ".nan", "bandwidth_hz: must be positive and finite"),
        ("bandwidth_hz", ".inf", "bandwidth_hz: must be positive and finite"),
        ("chirp_duration_s", ".nan", "chirp_duration_s: must be positive and finite"),
        ("frame_period_s", ".nan", "frame_period_s: must be positive and finite"),
        ("antenna_spacing_m", ".nan", "antenna_spacing_m: must be positive and finite"),
    ],
)
def test_config_file_with_non_finite_value_is_an_error(tmp_path, capsys, field, value, message):
    cfg_path = tmp_path / "radar.yaml"
    cfg_path.write_text(f"{field}: {value}\n")
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    out = tmp_path / "cap"
    argv = ["simulate", "--scene", str(scene), "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {cfg_path}: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("process", "--window", "0", "--window must be finite and at least 1, got 0"),
        ("process", "--max-skew-ms", "-5", "--max-skew-ms must be finite and at least 0.0"),
        ("process", "--max-skew-ms", "nan", "--max-skew-ms must be finite"),
        ("process", "--tau-ms", "nan", "tau_s: must be positive and finite"),
        ("simulate", "--duration", "-1", "--duration must be finite and at least 0.0"),
        ("simulate", "--duration", "nan", "--duration must be finite"),
        ("verify", "--duration", "-1", "--duration must be finite and at least 0.0"),
        ("verify", "--duration", "nan", "--duration must be finite"),
    ],
)
def test_commands_reject_bad_numeric_flags(tmp_path, capsys, command, flag, value, message):
    scene = tmp_path / "scene.txt"
    scene.write_text(QUIET_SCENE)
    out = tmp_path / "o"
    if command == "process":
        argv = _process_argv(_simulate(tmp_path, duration="0.2"), out)
    elif command == "simulate":
        argv = ["simulate", "--scene", str(scene), "--out", str(out)]
    else:
        argv = ["verify", "--scene", str(scene)]
    capsys.readouterr()
    assert main(argv + [flag, value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {message}")
    assert not out.exists()


# --- pipeline surface ----------------------------------------------------------


def _stream(config, times, view, indices=None):
    from mmvc import ClockOffset, calibrate_timestamps
    from mmvc.types import FrameCube

    indices = range(len(times)) if indices is None else indices
    frames = tuple(
        FrameCube(
            samples=np.zeros(config.frame_shape, dtype=np.complex64),
            view=view,
            frame_index=i,
            local_timestamp_ns=int(t * 1e9),
        )
        for i, t in zip(indices, times)
    )
    return calibrate_timestamps(frames, ClockOffset(offset_ns=0))


def test_run_pipeline_counts_dropped_frames(config, poses):
    left = _stream(config, [0.0, 0.1, 0.2], "left")
    right = _stream(config, [0.0, 0.1, 0.75], "right")
    result = run_pipeline(left, right, config, poses=poses, window_len=2)
    assert result.report["pairs"] == 2
    assert result.report["dropped_left"] == 1
    assert result.report["dropped_right"] == 1
    assert result.report["degraded_frames"] == 2  # all-zero frames pad out
    assert result.tensor is not None
    assert result.tensor.shape == (1, 2, 256, 8)
    assert len(result.fused_clouds) == 2


def test_tensor_stacks_the_fused_clouds_of_accepted_windows(tmp_path, config, poses):
    cap = _simulate(tmp_path, scene_text=MOVER_SCENE, duration="0.7")
    captures = [read_capture(cap / f"{view}.mmvc") for view in ("left", "right")]
    left, right = (calibrated_stream(c.frames, c.view, c.clock_sample) for c in captures)
    result = run_pipeline(left, right, config, poses, window_len=3)
    accepted = [w for w in result.windows if w.accepted]
    assert len(accepted) == 2
    assert result.tensor.shape == (2, 3, 256, 8)
    for i, w in enumerate(accepted):
        for k in range(3):
            rows = fusion.cloud_feature_rows(result.fused_clouds[w.start_index + k])
            assert np.array_equal(result.tensor[i, k], rows)


def test_run_pipeline_rejects_repeated_frame_index(config, poses):
    left = _stream(config, [0.0, 0.1, 0.2], "left")
    right = _stream(config, [0.0, 0.1, 0.2], "right", indices=[0, 1, 1])
    with pytest.raises(PipelineError, match="right stream repeats frame index 1"):
        run_pipeline(left, right, config, poses=poses, window_len=2)


def test_run_pipeline_rejects_out_of_order_stream(config, poses):
    left = _stream(config, [0.0, 0.1, 0.2], "left")[::-1]
    right = _stream(config, [0.0, 0.1, 0.2], "right")
    with pytest.raises(PipelineError, match="left frame 1 timestamp decreases"):
        run_pipeline(left, right, config, poses=poses, window_len=2)
