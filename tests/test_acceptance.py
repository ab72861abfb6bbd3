"""End-to-end acceptance checks for the processing chain.

Eight criteria cover the frozen resolution constants, randomized target
recovery through the full two-view pipeline, static-clutter rejection,
energy compensation invariants, the fixed point budget, temporal
gating, per-pair latency and on-disk round-trips. Each test appends a
single PASS/FAIL verdict that conftest echoes in the terminal summary,
and each enforces its own wall-clock budget.
"""
import math
import time
from collections import Counter

import numpy as np

from conftest import ACCEPTANCE_LINES
from mmvc import (
    ClockOffset,
    MtiState,
    PairedFrame,
    PointCloud,
    ProcessingOptions,
    RangeDopplerMap,
    ScatterScene,
    Scatterer,
    Trajectory,
    calibrate_timestamps,
    dbf_weights,
    energy_compensation,
    extract_point_cloud,
    gate_windows,
    merge_views,
    mti_filter,
    pair_views,
    process_frame,
    read_capture,
    read_feature_tensor,
    simulate_session,
    write_capture,
    write_cloud_ply,
    write_clouds_csv,
    write_feature_tensor,
)
from mmvc.cli import run_pipeline
from mmvc.types import VIEWS, FrameCube, gate_tag, seconds_to_ns


def _verdict(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def _calibrated_streams(session):
    """Session frame streams with zero-offset calibration applied."""
    return tuple(
        calibrate_timestamps(
            session.frames[view], ClockOffset(offset_ns=0, view=view)
        )
        for view in ("left", "right")
    )


def test_criterion_1_resolution_constants(config):
    """First-order quantities every later check leans on, frozen exactly."""
    t0 = time.perf_counter()
    angles = config.beam_angles_rad
    grid = np.radians(np.arange(-45.0, 46.0, 3.0))
    checks = [
        config.range_resolution_m == 0.05,
        config.max_range_m == 3.2,
        config.range_bin_count == 64,
        config.center_wavelength_m == 0.004878048780487805,
        config.velocity_resolution_mps == 0.0272212543554007,
        config.max_speed_mps == 1.7421602787456447,
        config.beam_count == 31 and len(angles) == 31,
        angles[0] == -math.pi / 4 and angles[-1] == math.pi / 4,
        # linspace beams sit on the 3 degree lattice only to float precision
        bool(np.all(np.abs(angles - grid) < 1e-12)),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(checks)
    assert _verdict(
        1,
        "resolution constants",
        ok,
        "0.05 m bins to 3.2 m, 0.0272 m/s bins to +/-1.742 m/s, "
        f"31 beams on the 3 deg lattice, {elapsed:.2f}s",
    )
    assert elapsed < 1.0


def test_criterion_2_randomized_recovery(config, poses):
    """200 randomized single-target scenes through the full chain.

    The strongest fused point must land within one range bin (0.05 m),
    one Doppler bin (0.028 m/s) and one beam step (3 deg) of the
    mid-frame ground truth in at least 98% of evaluated frames.
    """
    t0 = time.perf_counter()
    weights = dbf_weights(config)
    w = np.hanning(config.samples_per_chirp + 2)[1:-1]
    gain = w.sum()  # coherent window gain of the range FFT
    noise_gain = (w**2).sum()  # incoherent gain, sets SNR-true amplitudes
    comb = config.center_wavelength_m / (2.0 * config.frame_period_s)
    eval_frames = (5, 6, 7)  # background history is full from frame 5 on
    duration = 0.8
    opts = ProcessingOptions()
    tol_r = 0.05 + 1e-9
    tol_v = 0.028 + 1e-9
    tol_b = math.radians(3.0) + 1e-9

    evaluated = recovered = 0
    for s in range(200):
        rng = np.random.default_rng([1234, s])
        snr_db = rng.uniform(33.0, 43.0)
        amp = 10 ** (snr_db / 20.0) * noise_gain / gain**2
        speed = rng.uniform(0.20, 0.45)
        frac = speed / comb - math.floor(speed / comb)
        if frac < 0.15 or frac > 0.85:
            # keep clear of the filter's blind speeds (comb multiples)
            speed = (math.floor(speed / comb) + 0.5) * comb
        sign = 1.0 if rng.random() < 0.5 else -1.0
        travel = duration * speed
        if sign > 0:
            y0 = rng.uniform(0.40, 1.30 - travel)
        else:
            y0 = rng.uniform(0.40 + travel, 1.30)
        trajectory = Trajectory.from_waypoints(
            [(0.0, 0.0, -y0, 0.02), (1.0, 0.0, -(y0 + sign * speed), 0.02)]
        )
        scene = ScatterScene(
            scatterers=(
                Scatterer(trajectory=trajectory, reflectivity=float(amp)),
            ),
            noise_std=1.0,
            range_decay=False,
        )
        session = simulate_session(scene, poses, config, duration, seed=1000 + s)

        clouds = {f: {} for f in eval_frames}
        for pose in poses:
            view = pose.view
            state = MtiState()
            for f, frame in enumerate(session.frames[view]):
                if f in eval_frames:
                    rd, state = process_frame(frame, state, config, opts)
                    rd = energy_compensation(rd)
                    clouds[f][view] = extract_point_cloud(
                        rd, pose, config, weights=weights
                    )
                else:
                    # warm the background estimate without the FFT cost
                    _, state = mti_filter(frame, state, config)

        for f in eval_frames:
            fused = merge_views(clouds[f]["left"], clouds[f]["right"])
            evaluated += 1
            best = None
            energies = fused.energies.tolist()
            for k, pad in enumerate(fused.is_pad.tolist()):
                if not pad and (best is None or energies[k] > energies[best]):
                    best = k
            if best is None:
                continue
            range_m = fused.ranges_m[best]
            truths = [
                t
                for t in session.truth[VIEWS[fused.view_codes[best]]][f]
                if t.in_fov
                and any(lo <= t.range_m < hi for lo, hi in config.gate_bounds_m)
            ]
            if not truths:
                continue
            near = min(truths, key=lambda t: abs(t.range_m - range_m))
            if (
                abs(range_m - near.range_m) <= tol_r
                and abs(fused.velocities_mps[best] - near.radial_velocity_mps)
                <= tol_v
                and abs(fused.azimuths_rad[best] - near.azimuth_rad) <= tol_b
                and abs(fused.elevations_rad[best] - near.elevation_rad) <= tol_b
            ):
                recovered += 1

    elapsed = time.perf_counter() - t0
    rate = recovered / evaluated if evaluated else 0.0
    ok = evaluated == 600 and rate >= 0.98
    assert _verdict(
        2,
        "randomized recovery",
        ok,
        f"{recovered}/{evaluated} frames within one bin in range, velocity "
        f"and angle ({rate:.1%}, floor 98%), {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_3_moving_target_indication(config, poses):
    """The motion filter must cut a static wall by 20 dB at its range bin
    while moving a co-present target's peak by less than 1 dB."""
    t0 = time.perf_counter()
    speed = 0.80  # 32.8 Doppler comb multiples, safely off the blind comb
    wall = Scatterer(
        trajectory=Trajectory.from_waypoints([(0.0, 0.16, -1.2, 0.0)]),
        reflectivity=1.0,
    )
    mover = Scatterer(
        trajectory=Trajectory.from_waypoints(
            [(0.0, 0.16, -0.45, 0.0), (1.0, 0.16, -(0.45 + speed), 0.0)]
        ),
        reflectivity=1.0,
    )
    # near-zero noise keeps the ratios finite without masking anything
    scene = ScatterScene(
        scatterers=(wall, mover), noise_std=1e-6, range_decay=False
    )
    session = simulate_session(scene, poses, config, 0.6, seed=7)

    eval_frame = 5  # first frame with a full background history
    maps = {}
    for apply_mti in (True, False):
        state = MtiState()
        options = ProcessingOptions(
            apply_mti=apply_mti, apply_clutter_removal=False
        )
        for f, frame in enumerate(session.frames["right"]):
            if f == eval_frame:
                rd, state = process_frame(frame, state, config, options)
                maps[apply_mti] = rd
            else:
                _, state = mti_filter(frame, state, config)

    wall_bin = round(1.2 / config.range_resolution_m)
    mid_frame = 0.5 * (config.chirps_per_frame - 1) * config.chirp_duration_s
    mover_range = 0.45 + speed * (eval_frame * config.frame_period_s + mid_frame)
    center = int(round(mover_range / config.range_resolution_m))
    rows = slice(center - 2, center + 3)

    wall_on = float((np.abs(maps[True].cells[wall_bin]) ** 2).sum())
    wall_off = float((np.abs(maps[False].cells[wall_bin]) ** 2).sum())
    suppression_db = 10.0 * math.log10(wall_off / wall_on)
    peak_on = float(np.abs(maps[True].cells[rows]).max())
    peak_off = float(np.abs(maps[False].cells[rows]).max())
    shift_db = 20.0 * math.log10(peak_on / peak_off)

    elapsed = time.perf_counter() - t0
    ok = suppression_db >= 20.0 and abs(shift_db) < 1.0
    assert _verdict(
        3,
        "moving-target indication",
        ok,
        f"wall bin down {suppression_db:.1f} dB (floor 20), mover peak "
        f"moved {shift_db:+.2f} dB (cap 1), {elapsed:.1f}s",
    )
    assert elapsed < 10.0


def test_criterion_4_energy_compensation(config):
    """1000 random maps: per channel every populated range bin ends at one
    common mean magnitude, all-zero bins pass through untouched, and a
    second application changes nothing."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_spread = 0.0
    worst_repeat = 0.0
    checked = 0
    for _ in range(1000):
        n_range = int(rng.integers(6, 25))
        n_doppler = int(rng.integers(4, 13))
        n_rx = int(rng.integers(1, 4))
        shape = (n_range, n_doppler, n_rx)
        cells = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zero_rows = rng.choice(n_range, size=int(rng.integers(0, 3)), replace=False)
        cells[zero_rows] = 0.0
        rd = RangeDopplerMap(cells=cells, view="left", frame_index=0)
        out = energy_compensation(rd)

        means = np.abs(out.cells).mean(axis=1)  # (range bin, channel)
        for ch in range(n_rx):
            col = means[:, ch]
            populated = col[col > 0.0]
            spread = float(populated.max() - populated.min())
            worst_spread = max(worst_spread, spread / float(populated.mean()))
        assert np.array_equal(out.cells[zero_rows], cells[zero_rows])

        again = energy_compensation(out)
        worst_repeat = max(
            worst_repeat, float(np.abs(again.cells - out.cells).max())
        )
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and worst_spread < 1e-9 and worst_repeat < 1e-9
    assert _verdict(
        4,
        "energy compensation",
        ok,
        f"1000 maps: relative mean spread {worst_spread:.1e}, repeat delta "
        f"{worst_repeat:.1e} (both under 1e-9), zero bins preserved, "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 10.0


def test_criterion_5_point_budget(config, poses):
    """Every fused frame carries exactly 256 points, 64 per view and gate,
    and a repeated run reproduces clouds and tensor bit for bit."""
    t0 = time.perf_counter()
    trajectory = Trajectory.from_waypoints(
        [(0.0, 0.0, -0.9, 0.0), (2.0, 0.0, -1.5, 0.0)]
    )
    scene = ScatterScene(
        scatterers=(Scatterer(trajectory=trajectory, reflectivity=0.92),),
        noise_std=1.0,
        range_decay=False,
    )
    session = simulate_session(scene, poses, config, 0.8, seed=11)
    left, right = _calibrated_streams(session)
    runs = [
        run_pipeline(left, right, config, poses, window_len=4)
        for _ in range(2)
    ]

    # each (view, gate) keeps 2 * point_budget rows (velocity extremes)
    per_group = 2 * config.point_budget
    budget = len(poses) * len(config.gate_bounds_m) * per_group
    expected_groups = {
        (view, gate): per_group
        for view in ("left", "right")
        for gate in ("upper", "lower")
    }
    sizes_ok = len(runs[0].fused_clouds) == 8 and all(
        len(cloud) == budget for cloud in runs[0].fused_clouds
    )
    groups_ok = all(
        Counter(
            (VIEWS[v], gate_tag(g))
            for v, g in zip(cloud.view_codes.tolist(), cloud.gate_codes.tolist())
        )
        == expected_groups
        for cloud in runs[0].fused_clouds
    )
    repeat_ok = runs[0].fused_clouds == runs[1].fused_clouds
    tensor_ok = runs[0].tensor is not None and np.array_equal(
        runs[0].tensor, runs[1].tensor
    )

    elapsed = time.perf_counter() - t0
    ok = sizes_ok and groups_ok and repeat_ok and tensor_ok
    assert _verdict(
        5,
        "point budget",
        ok,
        f"8 fused frames x {budget} points, {per_group} per view "
        f"and gate, repeat run identical, {elapsed:.1f}s",
    )
    assert elapsed < 10.0


def test_criterion_6_temporal_gating():
    """A 19 ms mean gap passes the 20 ms window gate and 21 ms does not;
    a constant 11 ms skew with zero jitter drops every candidate pair."""
    t0 = time.perf_counter()

    def paired(gap_s, n=5):
        return [
            PairedFrame(
                left_timestamp_ns=seconds_to_ns(k * 0.1),
                right_timestamp_ns=seconds_to_ns(k * 0.1 + gap_s),
            )
            for k in range(n)
        ]

    win19 = gate_windows(paired(0.019), window_len=5, tau_s=0.020)
    win21 = gate_windows(paired(0.021), window_len=5, tau_s=0.020)
    gating_ok = (
        len(win19) == 1
        and win19[0].accepted
        and len(win21) == 1
        and not win21[0].accepted
    )

    cube = np.zeros((3, 2, 2), dtype=np.complex64)

    def stream(view, offset_s):
        return tuple(
            FrameCube(
                samples=cube,
                view=view,
                frame_index=k,
                local_timestamp_ns=seconds_to_ns(k * 0.1 + offset_s),
                calibrated_timestamp_ns=seconds_to_ns(k * 0.1 + offset_s),
            )
            for k in range(8)
        )

    skewed = pair_views(stream("left", 0.0), stream("right", 0.011))
    aligned = pair_views(stream("left", 0.0), stream("right", 0.009))
    pairing_ok = (
        len(skewed) == 0
        and skewed.dropped_left == 8
        and skewed.dropped_right == 8
        and len(aligned) == 8
    )

    elapsed = time.perf_counter() - t0
    ok = gating_ok and pairing_ok
    assert _verdict(
        6,
        "temporal gating",
        ok,
        "19 ms window accepted, 21 ms rejected at tau 20 ms; 11 ms skew "
        f"drops 8/8 pairs, 9 ms keeps 8/8, {elapsed:.2f}s",
    )
    assert elapsed < 5.0


def test_criterion_7_latency(config, poses):
    """Per-pair processing time through the full chain: 100 ms is the
    design target, 500 ms the hard cap."""
    t0 = time.perf_counter()
    trajectory = Trajectory.from_waypoints(
        [(0.0, 0.0, -0.9, 0.0), (2.0, 0.0, -1.5, 0.0)]
    )
    scene = ScatterScene(
        scatterers=(Scatterer(trajectory=trajectory, reflectivity=0.92),),
        noise_std=1.0,
        range_decay=False,
    )
    session = simulate_session(scene, poses, config, 0.3, seed=3)
    left, right = _calibrated_streams(session)
    result = run_pipeline(left, right, config, poses, window_len=3)
    mean_ms = result.report["timing_ms"]["mean_per_frame_pair"]
    max_ms = result.report["timing_ms"]["max_per_frame_pair"]

    elapsed = time.perf_counter() - t0
    ok = result.report["pairs"] == 3 and 0.0 < mean_ms and max_ms < 500.0
    assert _verdict(
        7,
        "latency",
        ok,
        f"mean {mean_ms:.1f} ms, max {max_ms:.1f} ms per fused pair "
        f"(target 100 ms, hard cap 500 ms), {elapsed:.1f}s",
    )
    assert elapsed < 20.0


def test_criterion_8_persistence(config, tmp_path):
    """Captures and feature tensors survive the disk round-trip bit for
    bit; CSV and PLY exports carry the frozen headers."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    shape = config.frame_shape
    frames = tuple(
        FrameCube(
            samples=(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ).astype(np.complex64),
            view="right",
            frame_index=k,
            local_timestamp_ns=k * 100_000_000 + 17,
        )
        for k in range(2)
    )
    capture_path = tmp_path / "round.mmvc"
    write_capture(capture_path, frames, config, clock_sample=(3, -2_500_000))
    capture = read_capture(capture_path)
    capture_ok = (
        capture.view == "right"
        and capture.config == config
        and capture.clock_sample == (3, -2_500_000)
        and len(capture.frames) == 2
        and all(
            back.samples.tobytes() == src.samples.tobytes()
            and back.local_timestamp_ns == src.local_timestamp_ns
            and back.frame_index == src.frame_index
            for back, src in zip(capture.frames, frames)
        )
    )

    tensor = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    tensor_path = tmp_path / "round.mmft"
    write_feature_tensor(tensor_path, tensor)
    back = read_feature_tensor(tensor_path)
    tensor_ok = back.dtype == np.float32 and back.tobytes() == tensor.tobytes()

    # a real right/upper point and an all-zero right/lower pad row
    cloud = PointCloud(
        positions_m=[(0.1, -0.8, 0.05), (0.0, 0.0, 0.0)],
        velocities_mps=[0.4, 0.0],
        energies=[2.0, 0.0],
        ranges_m=[0.9, 0.0],
        azimuths_rad=[0.1, 0.0],
        elevations_rad=[-0.05, 0.0],
        view_codes=[1, 1],
        gate_codes=[0, 1],
        is_pad=[False, True],
        view="right",
        frame_index=0,
        timestamp_ns=40_000_000,
    )
    csv_path = tmp_path / "out.csv"
    write_clouds_csv(csv_path, [cloud])
    header = csv_path.read_text().splitlines()[0]
    csv_ok = header == "frame,t,view,gate,x,y,z,v,energy,range,az,el"

    ply_path = tmp_path / "out.ply"
    write_cloud_ply(ply_path, cloud)
    head = ply_path.read_bytes().partition(b"end_header\n")[0]
    ply_ok = head.decode("ascii").splitlines() == [
        "ply",
        "format binary_little_endian 1.0",
        "element vertex 2",
        "property float x",
        "property float y",
        "property float z",
        "property float velocity",
        "property float energy",
    ]

    elapsed = time.perf_counter() - t0
    ok = capture_ok and tensor_ok and csv_ok and ply_ok
    assert _verdict(
        8,
        "persistence",
        ok,
        "capture and tensor round-trips bit-exact, CSV and PLY headers "
        f"match frozen layouts, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
