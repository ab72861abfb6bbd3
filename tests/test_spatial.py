"""Spatial chain: compensation, gating, beamforming, detection, selection."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CLOUD_COLUMNS
from mmvc import (
    Candidates,
    ConfigError,
    MtiState,
    RadarPose,
    Scatterer,
    ScatterScene,
    Trajectory,
    beamform,
    dbf_weights,
    detect_points,
    energy_compensation,
    extract_point_cloud,
    process_frame,
    project_to_cartesian,
    range_gate,
    select_by_velocity,
    simulate_session,
    spatial,
)
from mmvc.types import VIEWS, RangeDopplerMap, gate_tag


def _rd(cells, view="right", **kwargs):
    return RangeDopplerMap(
        cells=np.asarray(cells, dtype=complex),
        view=view,
        frame_index=0,
        **kwargs,
    )


def _picker(config):
    """Weights that read the pair factors straight off the channels.

    Beam 0 of both pairs takes the corner channel and beam 1 the pair's
    own, every other beam is zero: a cell (x, y, z) of non-negative reals
    has azimuth factor (x, y, 0, ...) and elevation factor (x, z, 0, ...),
    exactly, so its field holds x*x, x*z, y*x and y*z on beams (0, 0),
    (0, 1), (1, 0) and (1, 1).
    """
    w = np.zeros((2, config.beam_count), dtype=complex)
    w[0, 0] = w[1, 1] = 1.0
    return w


def _band(shape, cells, first_range_bin=0, view="right", gate="upper"):
    """A band of ``shape`` (rows, Doppler bins), zero but for the given
    {(row, Doppler): (corner, azimuth, elevation)} cells."""
    out = np.zeros(shape + (3,), dtype=complex)
    for cell, channels in cells.items():
        out[cell] = channels
    return _rd(out, view=view, gate=gate, first_range_bin=first_range_bin)


def _quads(cands):
    """Candidate (range, Doppler, azimuth, elevation) bins, in output order."""
    return list(
        zip(
            cands.range_bins.tolist(),
            cands.doppler_bins.tolist(),
            cands.azimuth_bins.tolist(),
            cands.elevation_bins.tolist(),
        )
    )


# --- energy compensation ----------------------------------------------------


def test_compensation_equalises_toy_rows(config):
    # rows with mean magnitudes 2 and 4 share reference mean 3, so the
    # scales are exactly 1.5 and 0.75
    cells = np.zeros((2, 2, 1), dtype=complex)
    cells[0, :, 0] = [2.0, 2.0]
    cells[1, :, 0] = [4.0, 4.0]
    out = energy_compensation(_rd(cells))
    assert np.allclose(np.abs(out.cells[0, :, 0]), 3.0)
    assert np.allclose(np.abs(out.cells[1, :, 0]), 3.0)


def test_compensation_skips_and_reports_zero_rows(config):
    cells = np.zeros((3, 2, 1), dtype=complex)
    cells[0, :, 0] = [2.0, 2.0]
    cells[2, :, 0] = [4.0, 4.0]
    out = energy_compensation(_rd(cells))
    assert np.all(out.cells[1] == 0)
    # reference mean is taken over populated rows only
    assert np.allclose(np.abs(out.cells[0, :, 0]), 3.0)
    assert np.allclose(np.abs(out.cells[2, :, 0]), 3.0)


@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 16), st.integers(1, 3)),
    zero_rows=st.sets(st.integers(0, 23), max_size=6),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_compensation_is_idempotent(config, shape, zero_rows, scale, seed):
    rng = np.random.default_rng(seed)
    cells = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # holes, a whole map of them included, must not break the fixed point
    cells[sorted(r for r in zero_rows if r < shape[0])] = 0.0
    once = energy_compensation(_rd(cells))
    twice = energy_compensation(once)
    assert np.all(np.abs(twice.cells - once.cells) <= 1e-12 * np.abs(once.cells))


def test_compensation_preserves_phase(config):
    rng = np.random.default_rng(11)
    cells = rng.standard_normal((8, 16, 3)) + 1j * rng.standard_normal((8, 16, 3))
    out = energy_compensation(_rd(cells))
    assert np.allclose(np.angle(out.cells), np.angle(cells))


def test_compensation_means_match_over_random_instances(config):
    # per channel, every populated row ends at the same mean magnitude
    rng = np.random.default_rng(12)
    for _ in range(25):
        cells = rng.standard_normal((16, 8, 3)) + 1j * rng.standard_normal(
            (16, 8, 3)
        )
        if rng.random() < 0.5:
            cells[rng.integers(16)] = 0.0
        out = energy_compensation(_rd(cells))
        for c in range(3):
            rows = np.abs(out.cells[:, :, c]).mean(axis=1)
            populated = rows > 0
            assert populated.any()
            spread = rows[populated].max() - rows[populated].min()
            assert spread < 1e-9


# --- range gates -------------------------------------------------------------


def test_gate_bins_partition_at_shared_bound(config):
    assert config.gate_bins == ((6, 17), (18, 29))
    # 0.9 m sits exactly on bin 18's centre and belongs to one gate only


def test_gate_bins_end_at_the_map_end(config):
    gate = dataclasses.replace(config, gate_bounds_m=((3.0, 3.2),))
    assert gate.gate_bins == ((60, 63),)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((0.9, 0.3), "gate bounds not increasing: (0.9, 0.3)"),
        ((-0.1, 0.3), "gate bound below zero: (-0.1, 0.3)"),
        ((math.nan, 0.3), "gate bounds not increasing: (nan, 0.3)"),
        ((3.3, 3.4), "gate upper bound 3.4 exceeds the maximum range 3.2"),
        ((0.301, 0.349), "gate (0.301, 0.349) holds no range-bin centre"),
    ],
    ids=["decreasing", "negative", "nan", "past-max-range", "no-bin-centre"],
)
def test_bad_gate_is_a_config_error(config, bounds, message):
    with pytest.raises(ConfigError, match=re.escape(f"gate_bounds_m: {message}")):
        dataclasses.replace(config, gate_bounds_m=(bounds,))


def test_range_gate_is_a_view_of_the_band(config):
    cells = np.arange(64 * 4 * 3).reshape(64, 4, 3).astype(complex)
    rd = _rd(cells)
    band = range_gate(rd, 0, config)
    assert band.gate == "upper"
    assert band.first_range_bin == 6
    assert np.array_equal(band.cells, cells[6:18])
    assert np.shares_memory(band.cells, rd.cells)


def test_adjacent_gates_cover_disjoint_rows(config):
    rd = _rd(np.ones((64, 4, 3), dtype=complex))
    upper = range_gate(rd, 0, config)
    lower = range_gate(rd, 1, config)
    assert (upper.gate, lower.gate) == ("upper", "lower")
    upper_rows = range(upper.first_range_bin, upper.first_range_bin + len(upper.cells))
    lower_rows = range(lower.first_range_bin, lower.first_range_bin + len(lower.cells))
    assert (upper_rows, lower_rows) == (range(6, 18), range(18, 30))


def test_range_gate_rejects_a_band(config):
    band = range_gate(_rd(np.ones((64, 4, 3))), 0, config)
    with pytest.raises(ValueError, match="map holds 12 range bins, the config 64"):
        range_gate(band, 0, config)


# --- beamforming -------------------------------------------------------------


def test_weights_reference_row_is_unity(config):
    w = dbf_weights(config)
    assert w.shape == (2, config.beam_count)
    assert np.allclose(w[0], 1.0)


def test_weight_at_30_degrees_is_quarter_turn(config):
    # half-wavelength spacing: phase = pi * sin(30 deg) = pi / 2
    w = dbf_weights(config)
    b30 = int(np.argmin(np.abs(np.degrees(config.beam_angles_rad) - 30.0)))
    assert abs(w[1, b30] - 1j) < 1e-12


def test_weights_without_offset_are_the_unshifted_grid(config):
    # the formula before the angle offset existed, evaluated the same way
    angles = np.linspace(-config.max_steer_rad, config.max_steer_rad, config.beam_count)
    ant = np.arange(2)[:, None]
    d_over_l = ant * config.antenna_spacing_m / config.center_wavelength_m
    expected = np.exp(1j * 2.0 * np.pi * d_over_l * np.sin(angles))
    for w in (dbf_weights(config), dbf_weights(config, offset_deg=0.0)):
        assert w.dtype == expected.dtype and w.shape == expected.shape
        assert w.tobytes() == expected.tobytes()
        assert not w.flags.writeable
    assert dbf_weights(config) is dbf_weights(config)


@pytest.mark.parametrize("delta_deg", [9.0, -2.5, 0.3])
def test_offset_weights_steer_off_the_grid(config, delta_deg):
    # reference: steering vectors built against angles shifted by delta
    angles = np.asarray(config.beam_angles_rad) + np.radians(delta_deg)
    phase = (
        2.0
        * np.pi
        * (config.antenna_spacing_m / config.center_wavelength_m)
        * np.sin(angles)
    )
    reference = np.exp(1j * np.outer(np.arange(2), phase))
    w = dbf_weights(config, offset_deg=delta_deg)
    assert w.shape == reference.shape
    assert np.max(np.abs(w - reference)) < 1e-12
    assert np.max(np.abs(w - dbf_weights(config))) > 1e-3


def _steered_cells(config, az_rad, el_rad, r=11, d=70, amp=1.0):
    cells = np.zeros((64, 128, 3), dtype=complex)
    phase = 2.0 * np.pi * config.antenna_spacing_m / config.center_wavelength_m
    cells[r, d, 0] = amp
    cells[r, d, 1] = amp * np.exp(1j * phase * np.sin(az_rad))
    cells[r, d, 2] = amp * np.exp(1j * phase * np.sin(el_rad))
    return cells


def _field(rd, weights, config):
    """The (row, Doppler, az beam, el beam) field of ``beamform``'s factors."""
    az, el = beamform(rd, weights, config)
    return az[..., :, None] * el[..., None, :]


def test_beamform_peaks_on_matching_beam(config):
    az = math.radians(30.0)
    field = _field(_rd(_steered_cells(config, az, 0.0)), dbf_weights(config), config)
    r, d, a, e = np.unravel_index(np.argmax(field), field.shape)
    assert (r, d) == (11, 70)
    assert a == 25  # +30 deg on the 3-degree grid
    assert e == 15  # broadside


def test_beamform_mirrored_source_lands_on_mirrored_beam(config):
    az = math.radians(-30.0)
    field = _field(_rd(_steered_cells(config, az, 0.0)), dbf_weights(config), config)
    a = np.argmax(field[11, 70].max(axis=1))
    assert a == 5


def test_beamform_recovers_every_grid_angle(config):
    # a source steered exactly onto any beam must argmax that beam, on
    # both axes independently
    w = dbf_weights(config)
    angles = np.asarray(config.beam_angles_rad)
    for b in range(0, config.beam_count, 5):
        cells = _steered_cells(config, angles[b], angles[-1 - b])
        field = _field(_rd(cells), w, config)
        a, e = np.unravel_index(np.argmax(field[11, 70]), (31, 31))
        assert a == b
        assert e == config.beam_count - 1 - b


def test_beamform_is_product_of_pair_magnitudes(config):
    rng = np.random.default_rng(13)
    cells = np.zeros((64, 128, 3), dtype=complex)
    cells[5, 9] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = dbf_weights(config)
    az_mags, el_mags = beamform(_rd(cells), w, config)
    assert az_mags.shape == el_mags.shape == (64, 128, config.beam_count)
    c0, c1, c2 = cells[5, 9]
    az = np.abs(c0 * np.conj(w[0]) + c1 * np.conj(w[1]))
    el = np.abs(c0 * np.conj(w[0]) + c2 * np.conj(w[1]))
    assert np.allclose(az_mags[5, 9], az) and np.allclose(el_mags[5, 9], el)
    assert np.allclose(_field(_rd(cells), w, config)[5, 9], np.outer(az, el))


def test_beamform_rejects_wrong_channel_count(config):
    cells = np.zeros((4, 4, 2), dtype=complex)
    with pytest.raises(ValueError, match="3 channels"):
        beamform(_rd(cells), dbf_weights(config), config)


def test_beamform_rejects_wrong_weight_shape(config):
    cells = np.zeros((4, 4, 3), dtype=complex)
    with pytest.raises(ValueError, match="weights shape"):
        beamform(_rd(cells), np.ones((2, 7)), config)


def test_beam_lattice_is_one_read_only_array(config):
    angles = config.beam_angles_rad
    assert angles is config.beam_angles_rad
    assert not angles.flags.writeable


# --- detection ---------------------------------------------------------------


def test_detection_keeps_within_3p5_db_of_peak(config):
    band = _band(
        (4, 4),
        {
            (0, 0): (0.0, 1.0, 1.0),  # reference peak
            (1, 1): (0.0, 0.7, 1.0),  # -3.1 dB: kept
            (2, 2): (0.0, 0.5, 1.0),  # -6.0 dB: dropped
        },
    )
    cands = detect_points(band, _picker(config), config)
    kept = set(zip(cands.range_bins.tolist(), cands.doppler_bins.tolist()))
    assert kept == {(0, 0), (1, 1)}
    assert cands.energies.tolist() == [1.0, 0.7]


def test_detection_is_strict_at_exact_threshold(config):
    at = 10.0 ** (config.detect_threshold_db / 20.0)  # the threshold for peak 1
    band = _band(
        (3, 3),
        {
            (0, 0): (0.0, 1.0, 1.0),
            # a cell whose own peak sits exactly on the threshold
            (2, 2): (0.0, at, 1.0),
            # a cell that clears it, holding one product on it (beams
            # (1, 1)) and one an ulp above (beams (0, 1))
            (1, 1): (np.nextafter(at, np.inf), at, 1.0),
        },
    )
    cands = detect_points(band, _picker(config), config)
    assert _quads(cands) == [(0, 0, 1, 1), (1, 1, 0, 1)]


def test_detection_order_is_row_major(config):
    band = _band(
        (3, 3),
        {
            (2, 1): (0.0, 1.0, 1.0),
            # one cell holding all four products of the two beams of
            # both axes
            (0, 2): (1.0, 1.0, 1.0),
            (1, 0): (1.0, 0.0, 0.0),
        },
    )
    cands = detect_points(band, _picker(config), config)
    assert _quads(cands) == [
        (0, 2, 0, 0),
        (0, 2, 0, 1),
        (0, 2, 1, 0),
        (0, 2, 1, 1),
        (1, 0, 0, 0),
        (2, 1, 1, 1),
    ]


def test_detection_scales_with_grid(config):
    # a power-of-two scale is exact, so only the energies move, by its square
    band = _band((2, 2), {(0, 0): (0.0, 1.0, 1.0), (1, 1): (0.0, 0.7, 1.0)})
    big = detect_points(
        dataclasses.replace(band, cells=band.cells * 2.0**40), _picker(config), config
    )
    small = detect_points(band, _picker(config), config)
    assert len(small) == 2
    assert _quads(big) == _quads(small)
    assert big.energies.tolist() == (small.energies * 2.0**80).tolist()


def test_detection_of_empty_grid_yields_nothing(config):
    for shape in [(2, 2), (0, 128)]:
        cands = detect_points(_band(shape, {}), dbf_weights(config), config)
        assert len(cands) == 0
        assert cands.view == "right"


def test_detection_converts_bins_to_physical_units(config, poses):
    # detection reports bins: 12 rows from range bin 18, as the lower
    # gate leaves them
    band = _band((12, 128), {(2, 101): (0.0, 1.0, 1.0)}, first_range_bin=18)
    cands = detect_points(band, _picker(config), config)
    assert _quads(cands) == [(20, 101, 1, 1)]
    # a full map's last range bin, and the bin a 2.0 m/s target wraps onto
    # past the +-1.742 m/s span
    band = _band((64, 128), {(63, 9): (0.0, 1.0, 1.0)})
    assert _quads(detect_points(band, _picker(config), config)) == [(63, 9, 1, 1)]

    # the cloud reads the same bins off the config's lattice: a source
    # steered onto azimuth beam 25 ...
    cells = np.zeros((64, 128, 3), dtype=complex)
    cells[20, 101] = [1.0, dbf_weights(config)[1, 25], 1.0]
    cloud = extract_point_cloud(_rd(cells), poses[1], config)
    best = int(np.argmax(cloud.energies))
    assert cloud.ranges_m[best] == pytest.approx(1.0)
    assert cloud.velocities_mps[best] == pytest.approx(
        37 * config.velocity_resolution_mps
    )
    assert cloud.azimuths_rad[best] == pytest.approx(math.radians(30.0))
    assert cloud.elevations_rad[best] == pytest.approx(0.0, abs=1e-12)
    # ... and the last range bin at the wrapped Doppler bin, in a gate
    # that reaches it
    cells = np.zeros((64, 128, 3), dtype=complex)
    cells[63, 9] = 1.0
    far = dataclasses.replace(config, gate_bounds_m=((3.0, 3.2),))
    cloud = extract_point_cloud(_rd(cells), poses[1], far)
    best = int(np.argmax(cloud.energies))
    assert cloud.ranges_m[best] == pytest.approx(3.15)
    assert cloud.velocities_mps[best] == -55 * config.velocity_resolution_mps
    assert cloud.velocities_mps[best] == pytest.approx(-1.4971689895470384)


# --- selection ---------------------------------------------------------------


def _make_candidates(velocities, energies, ranges=None, view="right", gate="upper"):
    n = len(velocities)
    v = np.asarray(velocities, dtype=float)
    dop = np.round(v / 0.0272212543554007).astype(int) + 64
    rng_bins = (
        np.asarray(ranges, dtype=int) if ranges is not None else np.arange(n)
    )
    return Candidates(
        range_bins=rng_bins,
        doppler_bins=dop,
        azimuth_bins=np.zeros(n, dtype=int),
        elevation_bins=np.zeros(n, dtype=int),
        energies=np.asarray(energies, dtype=float),
        view=view,
        gate=gate,
    )


def test_selection_keeps_velocity_extremes(config):
    rng = np.random.default_rng(14)
    v = rng.uniform(-1.5, 1.5, size=200)
    cands = _make_candidates(v, rng.uniform(0.5, 1.0, size=200))
    selected, pad = select_by_velocity(cands, config)
    assert pad == 0
    assert len(selected) == 64
    ordered = np.sort(cands.doppler_bins)
    assert set(selected.doppler_bins[:32]) <= set(ordered[:40])
    assert np.max(selected.doppler_bins[:32]) <= np.min(selected.doppler_bins[32:])


def test_selection_tie_break_prefers_energy_then_range(config):
    # same velocity everywhere: order is by energy descending, then range
    v = np.zeros(4)
    cands = _make_candidates(
        v, energies=[1.0, 3.0, 3.0, 2.0], ranges=[9, 7, 3, 1]
    )
    selected, pad = select_by_velocity(cands, config)
    real = selected.take(range(4))
    assert real.energies.tolist() == [3.0, 3.0, 2.0, 1.0]
    assert real.range_bins.tolist() == [3, 7, 1, 9]
    assert pad == 60


_CANDIDATE_COLUMNS = (
    "range_bins", "doppler_bins", "azimuth_bins", "elevation_bins", "energies",
)


@given(
    # few distinct values, so ties in every sort key are common; lists
    # run past the 64-row budget
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from((0.5, 1.0, 2.0)), st.integers(0, 5)),
        max_size=90,
    ),
    data=st.data(),
)
def test_selection_is_deterministic_under_permutation(config, rows, data):
    doppler_steps, energies, ranges = zip(*rows) if rows else ((), (), ())
    velocities = np.asarray(doppler_steps) * config.velocity_resolution_mps
    base = _make_candidates(velocities, energies, ranges=ranges)
    perm = data.draw(st.permutations(range(len(rows))))
    sel_a, pad_a = select_by_velocity(base, config)
    sel_b, pad_b = select_by_velocity(base.take(perm), config)
    assert pad_a == pad_b
    for name in _CANDIDATE_COLUMNS:
        assert np.array_equal(getattr(sel_a, name), getattr(sel_b, name)), name


def test_selection_pads_by_repeating_best_candidate(config):
    cands = _make_candidates([0.1, -0.2, 0.3], [1.0, 5.0, 2.0])
    selected, pad = select_by_velocity(cands, config)
    assert pad == 61
    assert len(selected) == 64
    # all pads repeat the highest-energy candidate
    assert np.all(selected.energies[3:] == 5.0)
    assert np.all(selected.doppler_bins[3:] == selected.doppler_bins[np.argmax(
        selected.energies[:3] == 5.0)])


def test_selection_pad_prefers_first_best_in_order(config):
    # two candidates tie on max energy; the pad repeats the one that
    # sorts first in the velocity order
    cands = _make_candidates([0.5, -0.5], [7.0, 7.0], ranges=[2, 4])
    selected, pad = select_by_velocity(cands, config)
    assert pad == 62
    assert selected.range_bins[0] == 4  # lower velocity first
    assert np.all(selected.range_bins[2:] == 4)


def test_selection_of_empty_returns_full_pad_count(config):
    empty = Candidates.empty("left", "upper")
    selected, pad = select_by_velocity(empty, config)
    assert len(selected) == 0
    assert pad == 64


# --- projection --------------------------------------------------------------


def test_boresight_projects_along_sensor_z(config, poses):
    pose = poses[1]
    p = project_to_cartesian(1.0, 0.0, 0.0, pose)
    expected = pose.sensor_to_head(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(p, expected)


def test_projection_rejects_out_of_fov_angles(config, poses):
    with pytest.raises(ValueError, match="field of view"):
        project_to_cartesian(1.0, math.radians(46.0), 0.0, poses[1])
    with pytest.raises(ValueError, match="field of view"):
        project_to_cartesian(1.0, 0.0, -math.radians(46.0), poses[1])


def test_projection_rejects_negative_range(config, poses):
    with pytest.raises(ValueError, match="negative range"):
        project_to_cartesian(-0.1, 0.0, 0.0, poses[1])


def test_projection_direction_convention(config):
    from mmvc.types import RadarPose

    identity = RadarPose(
        view="right",
        position_m=(0.0, 0.0, 0.0),
        orientation=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    )
    p = project_to_cartesian(2.0, math.radians(30.0), 0.0, identity)
    assert np.allclose(
        p, [2.0 * math.sin(math.radians(30.0)), 0.0, 2.0 * math.cos(math.radians(30.0))]
    )


# --- full extraction ---------------------------------------------------------


def test_extraction_budget_is_64_per_gate(config, poses):
    rng = np.random.default_rng(16)
    cells = 0.01 * (
        rng.standard_normal((64, 128, 3)) + 1j * rng.standard_normal((64, 128, 3))
    )
    cells[11, 70] *= 400.0
    cloud = extract_point_cloud(
        _rd(cells), poses[1], config
    )
    assert len(cloud) == 128
    assert np.count_nonzero(cloud.gate_codes == 0) == 64  # upper
    assert np.count_nonzero(cloud.gate_codes == 1) == 64  # lower


def test_extraction_of_silent_map_is_all_sentinels(config, poses):
    cloud = extract_point_cloud(
        _rd(np.zeros((64, 128, 3))), poses[1], config
    )
    assert len(cloud) == 128
    assert cloud.pad_count == 128
    assert cloud.is_pad.all()
    assert not cloud.energies.any()
    # an empty gate's rows are all zero, not projected from the pose
    assert not cloud.positions_m.any()
    assert not cloud.ranges_m.any()
    assert set(cloud.gate_codes.tolist()) == {0, 1}
    assert set(cloud.view_codes.tolist()) == {VIEWS.index("right")}


def test_extraction_marks_pad_rows(config, poses):
    cells = np.zeros((64, 128, 3), dtype=complex)
    cells[11, 70] = [1.0, 1.0, 1.0]  # a single broadside detection
    cloud = extract_point_cloud(_rd(cells), poses[1], config)
    upper = cloud.gate_codes == 0
    real = cloud.energies[upper & ~cloud.is_pad]
    pads = cloud.energies[upper & cloud.is_pad]
    assert len(real) >= 1
    assert len(real) + len(pads) == 64
    # pads duplicate a real detection, sentinel gate stays all-pad
    assert all(e == real[0] for e in pads) or len(real) > 1


def test_extraction_keeps_sensor_relative_measurements(config, poses):
    cells = np.zeros((64, 128, 3), dtype=complex)
    cells[20, 101] = [1.0, 1.0, 1.0]
    cloud = extract_point_cloud(_rd(cells), poses[1], config)
    best = int(np.argmax(cloud.energies))
    assert cloud.ranges_m[best] == pytest.approx(1.0)
    assert cloud.velocities_mps[best] == pytest.approx(
        37 * config.velocity_resolution_mps
    )
    assert cloud.azimuths_rad[best] == pytest.approx(0.0, abs=1e-12)
    # position is in the head frame, not sensor frame
    expected = poses[1].sensor_to_head(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(cloud.positions_m[best], expected, atol=1e-9)


def test_extraction_rejects_unknown_view(config, poses):
    rd = _rd(np.zeros((64, 128, 3)), view="top")
    with pytest.raises(ValueError, match="unknown view tag 'top'"):
        extract_point_cloud(rd, poses[1], config)


def test_extraction_passes_timestamp_and_view(config, poses):
    rd = _rd(
        np.zeros((64, 128, 3)),
        view="left",
        calibrated_timestamp_ns=987654321,
    )
    cloud = extract_point_cloud(rd, poses[0], config)
    assert cloud.view == "left"
    assert cloud.timestamp_ns == 987654321


# --- equivalence with the full sweep and the full 4-D field ------------------
#
# The references below sweep every beam of every cell of a band before
# thresholding (the chain before detection pruned its cells), and gate by
# zero-filling a full-size copy of the map, build the (range, Doppler,
# az beam, el beam) field in full and scan it for live rows, and project
# one point at a time (the chain before the field was kept as two
# factors and a gate became a band). The chain must reproduce them bit
# for bit.


def _zero_filled_gate(rd, gate, config):
    """``range_gate`` before bands: zero every cell outside the gate."""
    first, last = config.gate_bins[gate]
    out = np.zeros_like(rd.cells)
    out[first : last + 1] = rd.cells[first : last + 1]
    return dataclasses.replace(rd, cells=out, gate=gate_tag(gate))


def _dense_detect(band, weights, config):
    """``detect_points`` before pruning: ``beamform`` sweeps both pairs
    over every cell of the band, then the factors are thresholded (the
    input checks left out)."""
    cells = band.cells
    corner = cells[:, :, 0, None] * np.conj(weights[0])
    w1c = np.conj(weights[1])
    az = np.abs(corner + cells[:, :, 1, None] * w1c)
    el = np.abs(corner + cells[:, :, 2, None] * w1c)
    view, gate = band.view, band.gate or ""
    cell_peak = az.max(axis=2) * el.max(axis=2) if az.size else np.zeros((0, 0))
    peak = cell_peak.max() if cell_peak.size else 0.0
    if peak <= 0.0:
        return Candidates.empty(view, gate)
    threshold = peak * 10.0 ** (config.detect_threshold_db / 20.0)
    live_r, live_d = np.nonzero(cell_peak > threshold)
    sub = az[live_r, live_d, :, None] * el[live_r, live_d, None, :]
    sub_mask = sub > threshold
    cell, a, e = np.nonzero(sub_mask)
    return Candidates(
        range_bins=live_r[cell] + band.first_range_bin,
        doppler_bins=live_d[cell],
        azimuth_bins=a,
        elevation_bins=e,
        energies=sub[sub_mask],
        view=view,
        gate=gate,
    )


def _reference_candidates(rd, weights, config):
    cells = rd.cells
    n_r, n_d, _ = cells.shape
    n_b = config.beam_count
    mags = np.zeros((n_r, n_d, n_b, n_b))
    live = np.any(cells.reshape(n_r, -1) != 0, axis=1)
    if np.any(live):
        w1c = np.conj(weights[1])[None, None, :]
        sub = cells[live]
        az = sub[:, :, 0, None] * np.conj(weights[0])[None, None, :] + (
            sub[:, :, 1, None] * w1c
        )
        el = sub[:, :, 0, None] * np.conj(weights[0])[None, None, :] + (
            sub[:, :, 2, None] * w1c
        )
        mags[live] = np.abs(az)[:, :, :, None] * np.abs(el)[:, :, None, :]
    view, gate = rd.view, rd.gate or ""
    cell_peak = mags.max(axis=(2, 3)) if mags.size else np.zeros((0, 0))
    peak = cell_peak.max() if cell_peak.size else 0.0
    if peak <= 0.0:
        return mags, Candidates.empty(view, gate)
    threshold = peak * 10.0 ** (config.detect_threshold_db / 20.0)
    live_r, live_d = np.nonzero(cell_peak > threshold)
    sub = mags[live_r, live_d]
    sub_mask = sub > threshold
    cell, a, e = np.nonzero(sub_mask)
    return mags, Candidates(
        range_bins=live_r[cell],
        doppler_bins=live_d[cell],
        azimuth_bins=a,
        elevation_bins=e,
        energies=sub[sub_mask],
        view=view,
        gate=gate,
    )


def _reference_points(rd, poses, config, weights):
    """One list of point rows per pose in ``poses``: (position, velocity,
    energy, range, azimuth, elevation, view code, gate code, is_pad)."""
    clouds = [[] for _ in poses]
    view_code = VIEWS.index(rd.view)
    for i in range(len(config.gate_bins)):
        gated = _zero_filled_gate(rd, i, config)
        _, cands = _reference_candidates(gated, weights, config)
        selected, pad_count = select_by_velocity(cands, config)
        if len(selected) == 0:
            sentinel = ((0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0, 0.0, view_code, i, True)
            for points in clouds:
                points.extend([sentinel] * (2 * config.point_budget))
            continue
        n_real = len(selected) - pad_count
        # bins to units, read off the config's lattice
        ranges = selected.range_bins * config.range_resolution_m
        velocities = (
            selected.doppler_bins - config.chirps_per_frame // 2
        ) * config.velocity_resolution_mps
        angles = np.asarray(tuple(config.beam_angles_rad))
        azimuths = angles[selected.azimuth_bins]
        elevations = angles[selected.elevation_bins]
        for pose, points in zip(poses, clouds):
            for k in range(len(selected)):
                position = project_to_cartesian(
                    float(ranges[k]),
                    float(azimuths[k]),
                    float(elevations[k]),
                    pose,
                    max_angle_rad=config.max_steer_rad,
                )
                points.append(
                    (
                        tuple(float(v) for v in position),
                        float(velocities[k]),
                        float(selected.energies[k]),
                        float(ranges[k]),
                        float(azimuths[k]),
                        float(elevations[k]),
                        view_code,
                        i,
                        k >= n_real,
                    )
                )
    return clouds


def _reference_columns(points):
    """Point rows as the cloud's columns, name -> array."""
    columns = zip(CLOUD_COLUMNS, zip(*points))
    return {name: np.array(values) for name, values in columns}


@pytest.fixture(scope="module")
def equivalence_maps(config, poses):
    """Seeded maps: random, with zeroed rows inside a gate, and simulated."""
    rng = np.random.default_rng(2411)
    shape = (config.range_bin_count, config.chirps_per_frame, 3)

    def noise():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    maps = []
    for _ in range(24):
        cells = noise()
        for _ in range(3):
            cells[rng.integers(shape[0]), rng.integers(shape[1])] *= rng.uniform(5, 50)
        maps.append(_rd(cells))
    for k in range(12):
        cells = noise()
        first, last = config.gate_bins[k % 2]
        rows = np.arange(first, last + 1)
        # the first two silence a whole gate; the rest hole it, edges included
        count = len(rows) if k < 2 else int(rng.integers(1, len(rows)))
        cells[rng.choice(rows, size=count, replace=False)] = 0.0
        maps.append(_rd(cells, view="left" if k % 3 else "right"))
    scene = ScatterScene(
        scatterers=(
            Scatterer(
                trajectory=Trajectory.from_waypoints(
                    [(0.0, 0.05, -0.50, 0.03), (1.0, 0.08, -0.75, 0.03)]
                ),
                reflectivity=1.0,
            ),
            Scatterer(
                trajectory=Trajectory.from_waypoints(
                    [(0.0, -0.05, -1.25, 0.10), (1.0, -0.02, -1.00, 0.05)]
                ),
                reflectivity=1.0,
            ),
        ),
        noise_std=1.0,
    )
    session = simulate_session(scene, poses, config, 0.8, seed=77)
    for view in ("left", "right"):
        state = MtiState()
        for frame in session.frames[view]:
            rd, state = process_frame(frame, state, config)
            maps.append(energy_compensation(rd))
    assert len(maps) >= 50
    return maps


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_candidates(new, old):
    for f in dataclasses.fields(Candidates):
        a, b = getattr(new, f.name), getattr(old, f.name)
        if isinstance(b, np.ndarray):
            assert _same_bits(a, b), f.name
        else:
            assert a == b, f.name


# Cells of a drawn band: noise with a share of them zeroed, or every cell
# equal (a dense band, where no cell can be pruned).
_FILLS = {"noise": 0.0, "half zero": 0.5, "sparse": 0.95, "zero": 1.0, "equal": None}


@settings(max_examples=300)
@given(
    rows=st.integers(0, 12),
    dopplers=st.integers(1, 24),
    fill=st.sampled_from(sorted(_FILLS)),
    strong=st.integers(0, 3),
    first=st.integers(0, 40),
    scale=st.sampled_from((1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e150, 1e300)),
    offset_deg=st.floats(-10.0, 10.0),
    weights=st.sampled_from(("steered", "row gains", "random")),
    threshold_db=st.floats(-40.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # an all-zero band
    rows=12, dopplers=24, fill="zero", strong=0, first=18, scale=1.0,
    offset_deg=0.0, weights="steered", threshold_db=-3.5, seed=0,
)
@example(  # a one-cell band
    rows=1, dopplers=1, fill="noise", strong=0, first=5, scale=1.0,
    offset_deg=0.0, weights="steered", threshold_db=-3.5, seed=1,
)
@example(  # an all-equal dense band
    rows=12, dopplers=24, fill="equal", strong=0, first=18, scale=1.0,
    offset_deg=0.0, weights="steered", threshold_db=-3.5, seed=2,
)
def test_pruned_detection_matches_dense_sweep(
    config, rows, dopplers, fill, strong, first, scale, offset_deg, weights,
    threshold_db, seed,
):
    rng = np.random.default_rng(seed)
    shape = (rows, dopplers, 3)
    cells = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if _FILLS[fill] is None:
        cells[:] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    else:
        cells[rng.random((rows, dopplers)) < _FILLS[fill]] = 0.0
        for _ in range(strong if rows else 0):
            cells[rng.integers(rows), rng.integers(dopplers)] *= rng.uniform(5, 50)
    band = _rd(cells * scale, view="left", gate="lower", first_range_bin=first)
    w = np.array(dbf_weights(config, offset_deg=offset_deg))
    if weights == "row gains":  # non-unit magnitudes
        w *= rng.uniform(0.1, 3.0, w.shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, w.shape))
    elif weights == "random":
        w = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
    cfg = dataclasses.replace(config, detect_threshold_db=threshold_db)
    with np.errstate(over="ignore"):  # fields past 1e308 are inf on both paths
        _assert_same_candidates(detect_points(band, w, cfg), _dense_detect(band, w, cfg))


def test_detection_checks_its_inputs(config, poses):
    channels = "beamforming expects 3 channels (corner, azimuth, elevation), got 2"
    shape = "weights shape (2, 7) does not match (2, 31)"
    two_channels = _rd(np.zeros((64, 4, 2)))
    with pytest.raises(ValueError, match=re.escape(channels)):
        detect_points(two_channels, dbf_weights(config), config)
    with pytest.raises(ValueError, match=re.escape(channels)):
        extract_point_cloud(two_channels, poses[1], config)
    with pytest.raises(ValueError, match=re.escape(shape)):
        detect_points(_rd(np.zeros((4, 4, 3))), np.ones((2, 7)), config)
    with pytest.raises(ValueError, match=re.escape(shape)):
        extract_point_cloud(_rd(np.zeros((64, 4, 3))), poses[1], config, np.ones((2, 7)))


def test_factored_detection_matches_full_field(config, equivalence_maps):
    weights = dbf_weights(config)
    checked = 0
    for rd in equivalence_maps:
        for i in range(len(config.gate_bins)):
            filled = _zero_filled_gate(rd, i, config)
            ref_mags, ref = _reference_candidates(filled, weights, config)
            band = range_gate(rd, i, config)
            field = _field(band, weights, config)
            first, last = band.first_range_bin, band.first_range_bin + len(field)
            assert _same_bits(field, ref_mags[first:last])
            assert not ref_mags[:first].any() and not ref_mags[last:].any()
            _assert_same_candidates(detect_points(band, weights, config), ref)
            checked += len(ref)
    assert checked > 0


def test_factored_extraction_matches_per_point_reference(
    config, poses, equivalence_maps
):
    weights = dbf_weights(config)
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    rot = np.eye(3) + math.sin(0.7) * k + (1.0 - math.cos(0.7)) * (k @ k)
    for rd in equivalence_maps:
        pose = poses[0] if rd.view == "left" else poses[1]
        tilted = RadarPose(
            view=rd.view,
            position_m=(0.05, -0.02, 0.1),
            orientation=tuple(tuple(float(v) for v in row) for row in rot),
        )
        ref, ref_tilted = _reference_points(rd, (pose, tilted), config, weights)
        cloud = extract_point_cloud(rd, pose, config, weights=weights)
        for name, column in _reference_columns(ref).items():
            assert _same_bits(getattr(cloud, name), column), name
        assert cloud.pad_count == sum(p[-1] for p in ref)

        # a general rotation sums the matrix product of one point and of
        # a stack in different orders, so positions agree to rounding
        cloud = extract_point_cloud(rd, tilted, config, weights=weights)
        ref = _reference_columns(ref_tilted)
        for name, column in ref.items():
            if name != "positions_m":
                assert _same_bits(getattr(cloud, name), column), name
        gap = np.abs(cloud.positions_m - ref["positions_m"])
        assert gap.max() <= 1e-12


# Band edges of the drawn maps: how many rows to zero at each end of the gate.
_EDGES = {"none": (0, 0), "first": (1, 0), "last": (0, 1), "both": (1, 1), "all": None}


@given(
    first=st.integers(0, 15),
    extent=st.integers(0, 17),
    edges=st.sampled_from(sorted(_EDGES)),
    seed=st.integers(0, 2**32 - 1),
)
@example(first=7, extent=0, edges="none", seed=1)  # a one-bin gate
@example(first=9, extent=6, edges="last", seed=2)  # ends at the last bin
def test_band_extraction_matches_zero_filled_scan(config, poses, first, extent, edges, seed):
    # a 16-row map (32 samples per chirp); a gate drawn past the last row
    # ends at it, as one past the map is a ConfigError
    rows = 16
    end = min(first + extent, rows - 1)
    width = config.range_resolution_m
    bounds = (first * width, (end + 1) * width)
    cfg = dataclasses.replace(config, samples_per_chirp=32, gate_bounds_m=(bounds,))
    assert cfg.gate_bins == ((first, end),)

    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((rows, 8, 3)) + 1j * rng.standard_normal((rows, 8, 3))
    cells[rng.integers(rows), rng.integers(8)] *= 20.0
    if _EDGES[edges] is None:
        cells[first : end + 1] = 0.0
    else:
        head, tail = _EDGES[edges]
        cells[first : first + head] = 0.0
        cells[end + 1 - tail : end + 1] = 0.0
    rd = _rd(cells, view="left")
    weights = dbf_weights(config)

    cloud = extract_point_cloud(rd, poses[0], cfg, weights=weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial, "range_gate", _zero_filled_gate)
        mp.setattr(spatial, "detect_points", _dense_detect)
        ref = extract_point_cloud(rd, poses[0], cfg, weights=weights)
    for name in CLOUD_COLUMNS:
        assert _same_bits(getattr(cloud, name), getattr(ref, name)), name
