"""Configuration, pose, and value-type behaviour."""
import dataclasses
import math

import numpy as np
import pytest

import mmvc
from mmvc import ConfigError, RadarConfig, mirror_pose, validate_config
from mmvc.types import FrameCube, Trajectory


def test_derived_constants_exact(config):
    assert config.range_resolution_m == 0.05
    assert config.max_range_m == 3.2
    assert config.range_bin_count == 64
    assert config.center_freq_hz == 61.5e9
    assert config.center_wavelength_m == 0.004878048780487805
    assert config.velocity_resolution_mps == 0.0272212543554007
    assert config.max_speed_mps == 1.7421602787456447
    assert config.sample_rate_hz == pytest.approx(128 / 700e-6)


def test_beam_grid_spans_45_degrees_in_3_degree_steps(config):
    angles = np.degrees(config.beam_angles_rad)
    assert len(angles) == 31
    assert angles[0] == -45.0 and angles[-1] == 45.0
    assert np.allclose(angles, np.arange(-45.0, 46.0, 3.0), atol=1e-12)
    assert np.abs(np.diff(angles) - 3.0).max() < 1e-12


def test_default_antenna_spacing_is_half_wavelength(config):
    assert config.antenna_spacing_m == config.center_wavelength_m / 2.0


def test_validate_collects_all_violations():
    # a config is validated as it is built
    with pytest.raises(ConfigError) as err:
        RadarConfig(
            samples_per_chirp=100,
            beam_count=4,
            mti_alpha=0.0,
            gate_bounds_m=((0.9, 0.3),),
        )
    msg = str(err.value)
    for field in ("samples_per_chirp", "beam_count", "mti_alpha", "gate_bounds_m"):
        assert field in msg


def test_validate_checks_rx_count():
    with pytest.raises(ConfigError, match="rx_count"):
        validate_config(RadarConfig(rx_count=4))


def test_validate_checks_bandwidth_consistency():
    with pytest.raises(ConfigError, match="bandwidth"):
        validate_config(RadarConfig(end_freq_hz=64e9))


def test_validate_rejects_gate_past_max_range():
    with pytest.raises(ConfigError, match="gate"):
        validate_config(RadarConfig(gate_bounds_m=((0.3, 0.9), (0.9, 4.0))))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bandwidth_hz", "3e9", "bandwidth_hz: must be a number, got '3e9'"),
        ("tau_s", None, "tau_s: must be a number, got None"),
        ("mti_alpha", True, "mti_alpha: must be a number, got True"),
        ("point_budget", 32.5, "point_budget: must be an integer, got 32.5"),
        ("beam_count", "31", "beam_count: must be an integer, got '31'"),
    ],
)
def test_validate_names_a_field_that_is_not_a_number(field, value, message):
    with pytest.raises(ConfigError) as err:
        RadarConfig(**{field: value})
    assert str(err.value) == message


def test_validate_returns_config_unchanged(config):
    assert validate_config(config) is config


def test_config_dict_round_trip(config):
    again = RadarConfig.from_dict(config.to_dict())
    assert again == config


def test_config_rejects_unknown_keys():
    data = RadarConfig().to_dict()
    data["chirp_count"] = 3
    with pytest.raises(ConfigError, match="unknown config keys: chirp_count"):
        RadarConfig.from_dict(data)


def test_gate_bounds_normalized_to_float_tuples():
    cfg = RadarConfig(gate_bounds_m=[[1, 2]])
    assert cfg.gate_bounds_m == ((1.0, 2.0),)


# --- poses -----------------------------------------------------------------


def test_default_poses_look_down(poses):
    left, right = poses
    assert left.view == "left" and right.view == "right"
    assert right.position_m == (0.16, 0.0, 0.0)
    assert left.position_m == (-0.16, 0.0, 0.0)
    for pose in poses:
        boresight = pose.sensor_to_head([0.0, 0.0, 1.0]) - np.asarray(pose.position_m)
        assert np.allclose(boresight, [0.0, -1.0, 0.0], atol=1e-12)


def test_pose_rotation_is_orthonormal(poses):
    for pose in poses:
        r = pose.rotation()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_mirror_pose_negates_azimuth(poses):
    left, right = poses
    # a head-frame point and its x-mirror must look identical to the two
    # sensors except for the sign of the azimuth coordinate
    point = np.array([0.07, -0.9, 0.12])
    mirrored = point * np.array([-1.0, 1.0, 1.0])
    in_right = right.head_to_sensor(point)
    in_left = left.head_to_sensor(mirrored)
    assert np.allclose(in_left, in_right * np.array([-1.0, 1.0, 1.0]), atol=1e-12)


def test_mirror_pose_round_trip(poses):
    left, right = poses
    assert mirror_pose(right, "left") == left
    assert mirror_pose(left, "right") == right


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        mmvc.RadarPose(
            view="left",
            position_m=(0.0, 0.0, 0.0),
            orientation=((1.0, 0.1, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        )


def test_head_sensor_round_trip(poses):
    v = np.array([0.3, -0.7, 0.2])
    for pose in poses:
        assert np.allclose(pose.sensor_to_head(pose.head_to_sensor(v)), v, atol=1e-12)


# --- value types -----------------------------------------------------------


def test_frame_cube_matches(config):
    cube = np.zeros((3, 128, 128), dtype=np.complex64)
    frame = FrameCube(samples=cube, view="left", frame_index=0, local_timestamp_ns=0)
    assert config.frame_shape == frame.samples.shape == (3, 128, 128)
    assert dataclasses.replace(config, chirps_per_frame=64).frame_shape == (3, 64, 128)


def test_frame_cube_samples_read_only(config):
    cube = np.zeros((3, 128, 128), dtype=np.complex64)
    frame = FrameCube(samples=cube, view="left", frame_index=0, local_timestamp_ns=0)
    with pytest.raises(ValueError):
        frame.samples[0, 0, 0] = 1.0


# --- trajectories ----------------------------------------------------------


def test_trajectory_interpolates_and_clamps():
    traj = Trajectory.from_waypoints([(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0)])
    assert np.allclose(traj.position_at(0.5), [0.0, 0.0, 1.5])
    assert np.allclose(traj.position_at(-5.0), [0.0, 0.0, 1.0])
    assert np.allclose(traj.position_at(9.0), [0.0, 0.0, 2.0])


def test_trajectory_sorts_waypoints():
    traj = Trajectory.from_waypoints([(1.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 1.0)])
    assert traj.times_s[0] == 0.0
    assert np.allclose(traj.position_at(0.0), [0.0, 0.0, 1.0])


def test_trajectory_rejects_duplicate_times():
    with pytest.raises(ValueError):
        Trajectory(times_s=(0.0, 0.0), points_m=((0, 0, 1), (0, 0, 2)))


def test_constant_trajectory():
    traj = Trajectory.from_waypoints([(0.0, 0.1, -0.5, 0.2)])
    assert np.allclose(traj.position_at(3.7), [0.1, -0.5, 0.2])


def test_clock_model_rejects_negative_jitter():
    with pytest.raises(ValueError):
        mmvc.ClockModel(offset_s=0.0, jitter_s=-1e-3)


def test_scene_clock_lookup():
    scene = mmvc.ScatterScene(left_clock=mmvc.ClockModel(offset_s=0.25))
    assert scene.clock_for("left").offset_s == 0.25
    assert scene.clock_for("right").offset_s == 0.0


def test_timestamp_conversion_round_trip():
    from mmvc.types import ns_to_seconds, seconds_to_ns

    assert seconds_to_ns(0.004) == 4_000_000
    assert seconds_to_ns(-0.0035) == -3_500_000
    assert ns_to_seconds(seconds_to_ns(1.25)) == 1.25
