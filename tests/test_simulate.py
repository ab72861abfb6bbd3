"""Signal synthesis, ground truth, session assembly, scene files."""
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmvc import (
    ClockModel,
    ScatterScene,
    Scatterer,
    SceneFormatError,
    Trajectory,
    doppler_fft,
    parse_scene,
    range_fft,
    scatterer_truth,
    simulate_session,
    synthesize_frame,
)
from mmvc import simulate
from mmvc.types import C_LIGHT, VIEWS, seconds_to_ns


def _static_scene(position, reflectivity=1.0, **kwargs):
    traj = Trajectory(times_s=(0.0,), points_m=(tuple(position),))
    return ScatterScene(
        scatterers=(Scatterer(trajectory=traj, reflectivity=reflectivity),),
        **kwargs,
    )


def _moving_scene(p0, p1, t1=2.0, **kwargs):
    traj = Trajectory.from_waypoints([(0.0, *p0), (t1, *p1)])
    return ScatterScene(scatterers=(Scatterer(trajectory=traj),), **kwargs)


# --- tone physics ------------------------------------------------------------


def test_one_metre_target_beats_at_bin_20(config, poses):
    # straight down the right sensor's boresight at exactly 1 m: the
    # beat frequency is 2 * B * d / (c * Tc) = 28.57 kHz, bin 20
    scene = _static_scene((0.16, -1.0, 0.0), range_decay=False)
    frame = synthesize_frame(scene, poses[1], config, 0.0)
    spec = range_fft(frame.samples, window=False)
    mags = np.abs(spec[0, 0])
    assert mags.argmax() == 20


def test_range_bin_tracks_distance(config, poses):
    for d, expected_bin in [(0.5, 10), (1.5, 30), (2.5, 50)]:
        scene = _static_scene((0.16, -d, 0.0), range_decay=False)
        frame = synthesize_frame(scene, poses[1], config, 0.0)
        mags = np.abs(range_fft(frame.samples, window=False)[0, 0])
        assert mags.argmax() == expected_bin


def test_receding_target_lands_on_doppler_bin_11(config, poses):
    # v = 11 velocity bins; the sweep's own range-rate coupling adds
    # only ~0.27 bin here, so the peak still rounds to bin 75
    v = 11 * config.velocity_resolution_mps
    scene = _moving_scene((0.16, -1.0, 0.0), (0.16, -1.0 - 2 * v, 0.0),
                          range_decay=False)
    frame = synthesize_frame(scene, poses[1], config, 0.0)
    cells = doppler_fft(range_fft(frame.samples))
    r, d = np.unravel_index(np.argmax(np.abs(cells[:, :, 0])), cells.shape[:2])
    assert r == 20
    assert d == 64 + 11


def test_approaching_target_mirrors_doppler_sign(config, poses):
    v = 11 * config.velocity_resolution_mps
    scene = _moving_scene((0.16, -1.2, 0.0), (0.16, -1.2 + 2 * v, 0.0),
                          range_decay=False)
    frame = synthesize_frame(scene, poses[1], config, 0.0)
    cells = doppler_fft(range_fft(frame.samples))
    d = np.abs(cells[:, :, 0]).max(axis=0).argmax()
    assert d == 64 - 11


def test_offboresight_source_sets_antenna_phase(config, poses):
    # a source 30 degrees off in azimuth shows up as a quarter-turn
    # phase lead on channel 1 and none on channel 2
    d = 1.0
    az = math.radians(30.0)
    pos = (0.16 + d * 0.0, -d * math.cos(az), d * math.sin(az))
    scene = _static_scene(pos, range_decay=False)
    frame = synthesize_frame(scene, poses[1], config, 0.0)
    ratio_az = frame.samples[1, 0, 0] / frame.samples[0, 0, 0]
    ratio_el = frame.samples[2, 0, 0] / frame.samples[0, 0, 0]
    expected = np.exp(1j * np.pi * math.sin(az))
    assert abs(ratio_az - expected) < 1e-6
    assert abs(ratio_el - 1.0) < 1e-6


def test_range_decay_scales_tone_amplitude(config, poses):
    pos = (0.16, -2.0, 0.0)
    plain = synthesize_frame(
        _static_scene(pos, range_decay=False), poses[1], config, 0.0
    )
    decayed = synthesize_frame(
        _static_scene(pos, range_decay=True), poses[1], config, 0.0
    )
    ratio = np.abs(decayed.samples[0, 0, 0]) / np.abs(plain.samples[0, 0, 0])
    assert ratio == pytest.approx(1.0 / 4.0, rel=1e-5)


def test_noise_std_is_total_complex_std(config, poses):
    scene = ScatterScene(noise_std=0.5)
    frame = synthesize_frame(
        scene, poses[1], config, 0.0, rng=np.random.default_rng(20)
    )
    measured = np.sqrt(np.mean(np.abs(frame.samples.astype(np.complex128)) ** 2))
    assert measured == pytest.approx(0.5, rel=0.02)


def test_synthesis_is_linear_in_scatterers(config, poses):
    a = _static_scene((0.16, -0.8, 0.0), range_decay=False)
    b = _static_scene((0.16, -1.3, 0.1), range_decay=False)
    both = ScatterScene(
        scatterers=a.scatterers + b.scatterers, range_decay=False
    )
    fa = synthesize_frame(a, poses[1], config, 0.0)
    fb = synthesize_frame(b, poses[1], config, 0.0)
    fab = synthesize_frame(both, poses[1], config, 0.0)
    total = fa.samples.astype(np.complex128) + fb.samples
    assert np.max(np.abs(fab.samples - total.astype(np.complex64))) < 1e-5


def test_scatterer_at_sensor_origin_is_rejected(config, poses):
    scene = _static_scene((0.16, 0.0, 0.0))
    with pytest.raises(ValueError, match="sensor origin"):
        synthesize_frame(scene, poses[1], config, 0.0)


def _reference_frame(scene, pose, config, frame_time_s, rng=None):
    """``synthesize_frame``'s samples as they were computed before it kept
    per-scatterer buffers and drew the noise one channel at a time."""
    ns_ = config.samples_per_chirp
    nc = config.chirps_per_frame
    lam = config.center_wavelength_m
    tau = np.arange(ns_) / config.sample_rate_hz
    chirp_times = frame_time_s + np.arange(nc) * config.chirp_duration_s
    ant_gain = 2.0 * np.pi * config.antenna_spacing_m / lam

    cube = np.zeros((config.rx_count, nc, ns_), dtype=np.complex128)
    for sc in scene.scatterers:
        rng_m, az, el = simulate._sensor_geometry(sc, pose, chirp_times)
        amp = simulate._amplitude(scene, sc, rng_m)
        f_if = config.chirp_slope_hz_per_s * 2.0 * rng_m / C_LIGHT
        carrier = 4.0 * np.pi * rng_m / lam
        tone = amp[:, None] * np.exp(
            1j * (2.0 * np.pi * f_if[:, None] * tau[None, :] + carrier[:, None])
        )
        cube[0] += tone
        cube[1] += tone * np.exp(1j * ant_gain * np.sin(az))[:, None]
        cube[2] += tone * np.exp(1j * ant_gain * np.sin(el))[:, None]

    if scene.noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        scale = scene.noise_std / np.sqrt(2.0)
        cube += scale * (
            rng.standard_normal(cube.shape) + 1j * rng.standard_normal(cube.shape)
        )
    return cube.astype(np.complex64)


_coord = st.floats(-0.6, 0.6, allow_nan=False)
# in front of both sensors (head y = 0), never through either origin
_waypoint = st.tuples(st.floats(0.0, 1.0), _coord, st.floats(-2.0, -0.3), _coord)


@st.composite
def _scenes(draw):
    scatterers = []
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.lists(_waypoint, min_size=1, max_size=3, unique_by=lambda w: w[0]))
        scatterers.append(
            Scatterer(
                trajectory=Trajectory.from_waypoints(sorted(rows)),
                reflectivity=draw(st.floats(0.05, 3.0)),
            )
        )
    return ScatterScene(
        scatterers=tuple(scatterers),
        noise_std=draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0))),
        range_decay=draw(st.booleans()),
    )


@given(
    scene=_scenes(),
    view=st.sampled_from((0, 1)),
    frame_time_s=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    into_buffer=st.booleans(),
    with_scratch=st.booleans(),
)
def test_synthesized_frame_equals_the_reference(
    config, poses, scene, view, frame_time_s, seed, into_buffer, with_scratch
):
    want = _reference_frame(
        scene, poses[view], config, frame_time_s, rng=np.random.default_rng(seed)
    )
    out = np.empty_like(want) if into_buffer else None
    scratch = None
    if with_scratch:
        # left over from another frame: nothing of it may reach this one
        shape = (config.rx_count + 2, config.chirps_per_frame, config.samples_per_chirp)
        scratch = np.full(shape, np.nan, dtype=np.complex128)
    got = synthesize_frame(
        scene, poses[view], config, frame_time_s, rng=np.random.default_rng(seed),
        out=out, scratch=scratch,
    )
    assert got.samples.dtype == np.complex64
    assert got.samples.tobytes() == want.tobytes()
    assert not got.samples.flags.writeable
    if into_buffer:
        assert np.shares_memory(got.samples, out)


# --- ground truth ------------------------------------------------------------


def test_truth_of_linear_motion_is_exact(config, poses):
    # central difference of a linear range history has no error term
    scene = _moving_scene((0.16, -0.9, 0.0), (0.16, -1.7, 0.0), t1=2.0)
    truth = scatterer_truth(scene, poses[1], config, 1.0)
    assert len(truth) == 1
    assert truth[0].range_m == pytest.approx(0.9 + 0.4, rel=1e-12)
    assert truth[0].radial_velocity_mps == pytest.approx(0.4, rel=1e-9)
    assert truth[0].azimuth_rad == pytest.approx(0.0, abs=1e-12)
    assert truth[0].in_fov


def test_truth_of_static_scatterer_has_zero_velocity(config, poses):
    scene = _static_scene((0.16, -1.0, 0.2))
    truth = scatterer_truth(scene, poses[1], config, 0.5)
    assert truth[0].radial_velocity_mps == 0.0


def test_mirrored_scatterer_negates_azimuth_across_views(config, poses):
    left, right = poses
    scene_r = _static_scene((0.21, -0.9, 0.1))
    scene_l = _static_scene((-0.21, -0.9, 0.1))
    tr = scatterer_truth(scene_r, right, config, 0.0)[0]
    tl = scatterer_truth(scene_l, left, config, 0.0)[0]
    assert tl.azimuth_rad == pytest.approx(-tr.azimuth_rad, rel=1e-12)
    assert tl.elevation_rad == pytest.approx(tr.elevation_rad, rel=1e-12)
    assert tl.range_m == pytest.approx(tr.range_m, rel=1e-12)


def test_in_fov_boundary_at_45_degrees(config, poses):
    for deg, expected in [(44.0, True), (46.0, False)]:
        th = math.radians(deg)
        pos = (0.16, -math.cos(th), math.sin(th))
        truth = scatterer_truth(_static_scene(pos), poses[1], config, 0.0)
        assert truth[0].in_fov is expected


def test_truth_amplitude_follows_decay_setting(config, poses):
    pos = (0.16, -2.0, 0.0)
    with_decay = scatterer_truth(
        _static_scene(pos, reflectivity=3.0), poses[1], config, 0.0
    )
    without = scatterer_truth(
        _static_scene(pos, reflectivity=3.0, range_decay=False),
        poses[1],
        config,
        0.0,
    )
    assert with_decay[0].amplitude == pytest.approx(3.0 / 4.0)
    assert without[0].amplitude == pytest.approx(3.0)


# --- sessions ----------------------------------------------------------------


def test_session_truth_times_sit_mid_frame(config, poses):
    scene = _static_scene((0.16, -1.0, 0.0))
    session = simulate_session(scene, poses, config, 0.3, seed=1)
    assert len(session.truth_times_s) == 3
    half = 0.5 * 127 * config.chirp_duration_s
    for f, t in enumerate(session.truth_times_s):
        assert t == pytest.approx(f * 0.1 + half, abs=1e-15)
    assert half == pytest.approx(0.04445)


def test_session_is_deterministic_per_seed(config, poses):
    scene = _static_scene((0.16, -1.0, 0.0), noise_std=0.1)
    a = simulate_session(scene, poses, config, 0.2, seed=7)
    b = simulate_session(scene, poses, config, 0.2, seed=7)
    c = simulate_session(scene, poses, config, 0.2, seed=8)
    for view in ("left", "right"):
        for fa, fb in zip(a.frames[view], b.frames[view]):
            assert fa.samples.tobytes() == fb.samples.tobytes()
            assert fa.local_timestamp_ns == fb.local_timestamp_ns
        assert a.frames[view][0].samples.tobytes() != c.frames[view][0].samples.tobytes()


def test_sessions_share_frame_prefix_across_durations(config, poses):
    # per-frame generators make a longer run an extension, not a reshuffle
    scene = _static_scene((0.16, -1.0, 0.0), noise_std=0.05)
    short = simulate_session(scene, poses, config, 0.3, seed=3)
    long = simulate_session(scene, poses, config, 0.6, seed=3)
    for view in ("left", "right"):
        assert len(short.frames[view]) == 3
        assert len(long.frames[view]) == 6
        for fs, fl in zip(short.frames[view], long.frames[view]):
            assert fs.samples.tobytes() == fl.samples.tobytes()
            assert fs.local_timestamp_ns == fl.local_timestamp_ns


def test_views_draw_independent_noise(config, poses):
    scene = _static_scene((0.0, -1.0, 0.0), noise_std=0.1)
    session = simulate_session(scene, poses, config, 0.1, seed=4)
    assert (
        session.frames["left"][0].samples.tobytes()
        != session.frames["right"][0].samples.tobytes()
    )


def test_clock_offset_shifts_local_timestamps(config, poses):
    scene = _static_scene(
        (0.16, -1.0, 0.0),
        left_clock=ClockModel(offset_s=0.004),
        right_clock=ClockModel(offset_s=-0.0035),
    )
    session = simulate_session(scene, poses, config, 0.2, seed=5)
    assert session.frames["left"][0].local_timestamp_ns == 4_000_000
    assert session.frames["right"][0].local_timestamp_ns == -3_500_000
    assert session.frames["left"][1].local_timestamp_ns == 104_000_000
    # the session start reading pairs reference zero with the raw offset
    assert session.clock_samples["left"] == (0, 4_000_000)
    assert session.clock_samples["right"] == (0, seconds_to_ns(-0.0035))


def test_clock_jitter_perturbs_timestamps_but_not_samples(config, poses):
    base = _static_scene((0.16, -1.0, 0.0))
    jittery = _static_scene(
        (0.16, -1.0, 0.0), right_clock=ClockModel(jitter_s=0.002)
    )
    a = simulate_session(base, poses, config, 0.3, seed=6)
    b = simulate_session(jittery, poses, config, 0.3, seed=6)
    ts_a = [f.local_timestamp_ns for f in a.frames["right"]]
    ts_b = [f.local_timestamp_ns for f in b.frames["right"]]
    assert ts_a != ts_b
    for fa, fb in zip(a.frames["right"], b.frames["right"]):
        assert fa.samples.tobytes() == fb.samples.tobytes()


def test_session_truth_matches_direct_evaluation(config, poses):
    scene = _moving_scene((0.16, -0.8, 0.0), (0.16, -1.6, 0.0))
    session = simulate_session(scene, poses, config, 0.2, seed=0)
    direct = scatterer_truth(scene, poses[1], config, session.truth_times_s[1])
    assert session.truth["right"][1] == direct


SESSION_SCENE = """\
scatterer reflectivity=0.9
waypoint t=0.0 x=0.05 y=-0.6 z=0.1
waypoint t=0.4 x=-0.04 y=-0.7 z=0.0
scatterer reflectivity=0.5
waypoint t=0.0 x=0.2 y=-1.3 z=0.1
clock left offset_s=0.004 jitter_s=0.0005
clock right offset_s=-0.0035 jitter_s=0.0005
noise std=1.0
"""


def test_session_frames_equal_frames_synthesised_alone(config, poses):
    # each view's frames come from threads of their own; each must still
    # be the frame its per-frame generator gives on the calling thread
    scene = parse_scene(SESSION_SCENE)
    seed = 21
    session = simulate_session(scene, poses, config, 0.4, seed=seed)
    for pose in poses:
        code = VIEWS.index(pose.view)
        frames = session.frames[pose.view]
        assert [f.frame_index for f in frames] == [0, 1, 2, 3]
        for f, frame in enumerate(frames):
            alone = synthesize_frame(
                scene, pose, config, f * config.frame_period_s,
                rng=np.random.default_rng([seed, code, 0, f]),
            )
            assert frame.samples.tobytes() == alone.samples.tobytes()
            assert not frame.samples.flags.writeable
            assert frame.view == pose.view


def test_session_bytes_do_not_depend_on_thread_scheduling(config, poses, monkeypatch):
    # holding up the left view's even frames reorders how the two views'
    # frames interleave; no byte may move
    scene = parse_scene(SESSION_SCENE)
    reference = simulate_session(scene, poses, config, 0.4, seed=5)
    synthesize = simulate.synthesize_frame

    def late_on_left_even_frames(scene, pose, *args, frame_index=0, **kwargs):
        if pose.view == "left" and frame_index % 2 == 0:
            time.sleep(0.02)
        return synthesize(scene, pose, *args, frame_index=frame_index, **kwargs)

    monkeypatch.setattr(simulate, "synthesize_frame", late_on_left_even_frames)
    delayed = simulate_session(scene, poses, config, 0.4, seed=5)
    for view in VIEWS:
        for got, want in zip(delayed.frames[view], reference.frames[view], strict=True):
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.local_timestamp_ns == want.local_timestamp_ns
        assert delayed.truth[view] == reference.truth[view]
    assert delayed.clock_samples == reference.clock_samples


def test_session_names_the_scatterer_and_view_at_a_sensor_origin(config, poses):
    # scatterer 1 sits on the right sensor's origin only: the left view's
    # thread finishes, the right view's error reaches the caller
    scene = ScatterScene(
        scatterers=(
            _static_scene((0.0, -1.0, 0.0)).scatterers[0],
            _static_scene((0.16, 0.0, 0.0)).scatterers[0],
        )
    )
    with pytest.raises(SceneFormatError) as err:
        simulate_session(scene, poses, config, 0.3, seed=0)
    assert str(err.value) == "scatterer 1 passes through the sensor origin of the right view"


def _per_chirp_geometry(scatterer, pose, times_s):
    """``simulate._sensor_geometry`` as it was when it sampled the track
    with one ``position_at`` call per time."""
    pts = np.stack([scatterer.trajectory.position_at(t) for t in np.atleast_1d(times_s)])
    q = pose.head_to_sensor(pts)
    rng = np.linalg.norm(q, axis=-1)
    if np.any(rng < 1e-6):
        raise ValueError("scatterer passes through the sensor origin")
    az = np.arctan2(q[:, 0], q[:, 2])
    el = np.arcsin(np.clip(q[:, 1] / rng, -1.0, 1.0))
    return rng, az, el


def test_session_matches_per_chirp_sampling(config, poses, monkeypatch):
    # a waypoint falls inside frame 1's chirp sweep and the tracks end
    # before the session does, so chirps sample between, on and past
    # waypoints; the static scatterer has a single waypoint
    scene = parse_scene(
        """\
scatterer reflectivity=0.9
waypoint t=0.0 x=0.05 y=-0.6 z=0.1
waypoint t=0.13 x=0.02 y=-0.75 z=0.05
waypoint t=0.25 x=-0.04 y=-0.7 z=0.0
scatterer reflectivity=0.7
waypoint t=0.01 x=-0.1 y=-1.2 z=0.2
waypoint t=0.2 x=0.1 y=-1.3 z=-0.1
scatterer reflectivity=0.4
waypoint t=0.0 x=0.2 y=-1.3 z=0.1
clock right jitter_s=0.0005
noise std=1.0
"""
    )
    session = simulate_session(scene, poses, config, 0.4, seed=11)
    monkeypatch.setattr(simulate, "_sensor_geometry", _per_chirp_geometry)
    reference = simulate_session(scene, poses, config, 0.4, seed=11)
    for view in ("left", "right"):
        assert len(session.frames[view]) == 4
        for got, want in zip(session.frames[view], reference.frames[view]):
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.local_timestamp_ns == want.local_timestamp_ns
        assert session.truth[view] == reference.truth[view]


def test_pose_lookup_by_view(config, poses):
    scene = _static_scene((0.16, -1.0, 0.0))
    session = simulate_session(scene, poses, config, 0.1, seed=0)
    assert session.pose_for("right").view == "right"
    with pytest.raises(KeyError):
        session.pose_for("top")


# --- scene files -------------------------------------------------------------


SCENE_TEXT = """\
# two scatterers, asymmetric clocks
scatterer reflectivity=2.0
waypoint t=0.0 x=0.0 y=-0.8 z=0.1
waypoint t=2.0 x=0.4 y=-0.8 z=0.1

scatterer
waypoint t=0.0 x=-0.1 y=-1.2 z=0.0

clock left offset_s=0.05 jitter_s=0.003
clock right offset_s=-0.02
noise std=0.002
decay off
"""


def test_parse_scene_round_trip():
    scene = parse_scene(SCENE_TEXT, name="demo.txt")
    assert len(scene.scatterers) == 2
    assert scene.scatterers[0].reflectivity == 2.0
    assert scene.scatterers[1].reflectivity == 1.0
    assert scene.scatterers[0].trajectory.position_at(1.0).tolist() == [
        0.2,
        -0.8,
        0.1,
    ]
    assert scene.left_clock == ClockModel(offset_s=0.05, jitter_s=0.003)
    assert scene.right_clock == ClockModel(offset_s=-0.02, jitter_s=0.0)
    assert scene.noise_std == 0.002
    assert scene.range_decay is False


def test_parse_scene_defaults():
    scene = parse_scene("scatterer\nwaypoint t=0 x=0 y=-1 z=0\n")
    assert scene.noise_std == 0.0
    assert scene.range_decay is True
    assert scene.left_clock == ClockModel()


@pytest.mark.parametrize(
    "text, message",
    [
        ("scatterer colour=red\n", "s.txt:1: unknown key 'colour'"),
        ("scatterer\nwaypoint t=0 x=a y=0 z=0\n", "s.txt:2: bad number for 'x': 'a'"),
        ("waypoint t=0 x=0 y=0 z=0\n", "s.txt:1: waypoint before any scatterer"),
        ("orbit r=1\n", "s.txt:1: unknown directive 'orbit'"),
        ("clock top offset_s=1\n", "s.txt:1: clock needs a view tag"),
        ("decay maybe\n", "s.txt:1: decay must be 'on' or 'off'"),
        ("scatterer\nwaypoint t=0 x=0 y=0\n", "s.txt:2: waypoint missing z"),
        ("scatterer reflectivity=1\n", "s.txt:1: scatterer has no waypoints"),
        ("scatterer\nnoise std\n", "s.txt:2: expected key=value"),
    ],
)
def test_parse_scene_errors_carry_positions(text, message):
    with pytest.raises(SceneFormatError) as err:
        parse_scene(text, name="s.txt")
    assert message in str(err.value)


def test_parse_scene_rejects_duplicate_waypoint_times():
    text = "scatterer\nwaypoint t=1 x=0 y=-1 z=0\nwaypoint t=1 x=1 y=-1 z=0\n"
    with pytest.raises(SceneFormatError, match="s.txt:1: "):
        parse_scene(text, name="s.txt")


def test_trajectory_clamps_outside_span():
    traj = Trajectory.from_waypoints([(1.0, 0.0, -1.0, 0.0), (2.0, 1.0, -1.0, 0.0)])
    assert traj.position_at(0.0).tolist() == [0.0, -1.0, 0.0]
    assert traj.position_at(5.0).tolist() == [1.0, -1.0, 0.0]
    assert traj.position_at(1.5).tolist() == [0.5, -1.0, 0.0]


def _position_reference(traj, t):
    """``Trajectory.position_at`` for one time, as it was before it
    took arrays of times."""
    if len(traj.times_s) == 1:
        return np.asarray(traj.points_m[0], dtype=float)
    tp = np.asarray(traj.times_s)
    pts = np.asarray(traj.points_m)
    return np.array([np.interp(t, tp, pts[:, k]) for k in range(3)])


@st.composite
def _track_and_times(draw):
    n = draw(st.integers(1, 6))
    times = sorted(
        draw(st.sets(st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n))
    )
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
    traj = Trajectory(times_s=tuple(times), points_m=tuple(points))
    query = st.one_of(
        st.sampled_from(times),  # exactly on a waypoint
        st.floats(times[0], times[-1]),  # inside the span
        st.floats(-1e3, times[0]),  # before it
        st.floats(times[-1], 1e3),  # after it
    )
    return traj, draw(st.lists(query, min_size=1, max_size=24))


@given(_track_and_times())
def test_position_at_many_times_equals_each_time_alone(case):
    traj, times = case
    stacked = traj.position_at(np.array(times))
    assert stacked.shape == (len(times), 3)
    one_by_one = np.stack([traj.position_at(t) for t in times])
    reference = np.stack([_position_reference(traj, t) for t in times])
    assert traj.position_at(times[0]).shape == (3,)
    assert stacked.tobytes() == one_by_one.tobytes() == reference.tobytes()
