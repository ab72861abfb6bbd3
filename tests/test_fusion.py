"""Clock calibration, pairing, window gating, fusion, feature tensors."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mmvc import (
    ClockOffset,
    PairedFrame,
    PointCloud,
    TensorFormatError,
    assemble_feature_tensor,
    calibrate_timestamps,
    cloud_feature_rows,
    gate_windows,
    merge_views,
    offset_from_clock_sample,
    pair_views,
    read_feature_tensor,
    write_feature_tensor,
)
from mmvc.types import VIEWS, FrameCube, seconds_to_ns

EMPTY = np.zeros((3, 2, 2), dtype=np.complex64)


def _frame(t_s, view="left", index=0, calibrated=None):
    return FrameCube(
        samples=EMPTY,
        view=view,
        frame_index=index,
        local_timestamp_ns=seconds_to_ns(t_s),
        calibrated_timestamp_ns=(
            seconds_to_ns(calibrated) if calibrated is not None else None
        ),
    )


def _stream(times_s, view="left", offset_s=0.0):
    frames = tuple(
        _frame(t, view=view, index=i) for i, t in enumerate(times_s)
    )
    return calibrate_timestamps(frames, ClockOffset(offset_ns=seconds_to_ns(offset_s)))


def _cloud(view="left", n=4, ts=0, pad_count=0):
    """n rows alternating upper/lower gate with energies 1, 2, ...; the
    last ``pad_count`` rows are all-zero lower-gate pads."""
    pad = np.arange(n) >= n - pad_count

    def real(value):
        return np.where(pad, 0.0, value)

    return PointCloud(
        positions_m=np.where(pad[:, None], 0.0, [0.1, -0.8, 0.05]),
        velocities_mps=np.zeros(n),
        energies=real(1.0 + np.arange(n)),
        ranges_m=real(0.9),
        azimuths_rad=real(0.1),
        elevations_rad=real(-0.05),
        view_codes=np.full(n, VIEWS.index(view)),
        gate_codes=np.where(pad, 1, np.arange(n) % 2),
        is_pad=pad,
        view=view,
        frame_index=0,
        timestamp_ns=ts,
    )


# --- clock offsets -----------------------------------------------------------


def test_offset_from_stored_sample():
    off = offset_from_clock_sample((0, 4_000_000), view="right")
    assert off.offset_ns == -4_000_000
    assert off.view == "right"
    assert offset_from_clock_sample((7, 7)).offset_ns == 0


_NS = st.integers(-(10**12), 10**12)


@given(local_ns=st.lists(_NS, max_size=8), first_ns=_NS, second_ns=_NS)
@example(local_ns=[10**9, 11 * 10**8], first_ns=-(10**7), second_ns=-4 * 10**6)
def test_calibration_replaces_rather_than_accumulates(local_ns, first_ns, second_ns):
    frames = tuple(
        FrameCube(samples=EMPTY, view="left", frame_index=i, local_timestamp_ns=t)
        for i, t in enumerate(local_ns)
    )
    first, second = ClockOffset(first_ns), ClockOffset(second_ns)
    twice = calibrate_timestamps(calibrate_timestamps(frames, first), second)
    once = calibrate_timestamps(frames, second)
    assert [f.calibrated_timestamp_ns for f in twice] == [
        f.calibrated_timestamp_ns for f in once
    ]
    # locals are untouched either way
    assert [f.local_timestamp_ns for f in twice] == local_ns


# --- pairing -----------------------------------------------------------------


def test_pairing_matches_aligned_streams():
    left = _stream([0.0, 0.1, 0.2, 0.3], view="left")
    right = _stream([0.001, 0.101, 0.201, 0.301], view="right")
    result = pair_views(left, right)
    assert len(result) == 4
    assert result.dropped_left == 0
    assert result.dropped_right == 0
    assert result.pairing_rate == 1.0
    for lf, rf in result.pairs:
        assert abs(lf.calibrated_timestamp_ns - rf.calibrated_timestamp_ns) == 1_000_000


def test_pairing_drops_everything_beyond_skew():
    left = _stream([0.0, 0.1, 0.2], view="left")
    right = _stream([0.050, 0.150, 0.250], view="right")
    result = pair_views(left, right, max_skew_s=0.010)
    assert len(result) == 0
    assert result.dropped_left == 3
    assert result.dropped_right == 3
    assert result.pairing_rate == 0.0


def test_pairing_boundary_is_inclusive():
    left = _stream([0.0], view="left")
    right = _stream([0.010], view="right")
    assert len(pair_views(left, right, max_skew_s=0.010)) == 1
    right = _stream([0.0100001], view="right")
    assert len(pair_views(left, right, max_skew_s=0.010)) == 0


def test_pairing_requires_calibration():
    raw = (_frame(0.0),)
    ok = _stream([0.0], view="right")
    with pytest.raises(ValueError, match="left stream is not calibrated"):
        pair_views(raw, ok)


def test_pairing_skips_to_strictly_nearer_frame():
    # right frame at 0.009 is within skew of left 0.0, but right 0.010
    # would leave left 0.008 unmatched; greedy walk still pairs both
    left = _stream([0.0, 0.1], view="left")
    right = _stream([0.009, 0.098, 0.5], view="right")
    result = pair_views(left, right, max_skew_s=0.010)
    assert len(result) == 2
    gaps = [
        abs(l.calibrated_timestamp_ns - r.calibrated_timestamp_ns)
        for l, r in result.pairs
    ]
    assert gaps == [9_000_000, 2_000_000]
    assert result.dropped_right == 1


def test_pairing_prefers_nearer_of_two_candidates():
    # one left frame between two rights: the nearer right wins
    left = _stream([0.100], view="left")
    right = _stream([0.094, 0.104], view="right")
    result = pair_views(left, right, max_skew_s=0.010)
    assert len(result) == 1
    _, rf = result.pairs[0]
    assert rf.calibrated_timestamp_ns == seconds_to_ns(0.104)


# Gaps between a stream's frames: from repeated timestamps up to past
# the frame period, so a frame can have several partners within the
# 10 ms skew bound, one, or none.
_GAPS_S = st.lists(st.floats(0.0, 0.12), max_size=25)


@given(left_gaps=_GAPS_S, right_gaps=_GAPS_S, offset_s=st.floats(-0.05, 0.05))
def test_pairing_is_symmetric(left_gaps, right_gaps, offset_s):
    left = _stream(np.cumsum(left_gaps), view="left")
    right = _stream(np.cumsum(right_gaps), view="right", offset_s=offset_s)
    ab = pair_views(left, right)
    ba = pair_views(right, left)
    assert list(ab.pairs) == [(lf, rf) for rf, lf in ba.pairs]
    assert (ab.dropped_left, ab.dropped_right) == (ba.dropped_right, ba.dropped_left)


def test_pairing_recovers_jittered_streams():
    # both streams tick at 100 ms with 1.5 ms jitter each, so the
    # cross-stream gap sits 4.7 sigma inside the 10 ms skew bound
    rng = np.random.default_rng(31)
    for _ in range(20):
        base = np.arange(30) * 0.1
        left = _stream(base + rng.normal(0, 0.0015, 30), view="left")
        right = _stream(base + rng.normal(0, 0.0015, 30), view="right")
        result = pair_views(left, right)
        assert result.pairing_rate >= 0.99


def test_empty_pairing_rate_is_one():
    assert pair_views((), ()).pairing_rate == 1.0


# --- window gating -----------------------------------------------------------


def _paired(gaps_s, period_s=0.1):
    out = []
    for k, g in enumerate(gaps_s):
        t = seconds_to_ns(k * period_s)
        out.append(
            PairedFrame(
                left_timestamp_ns=t,
                right_timestamp_ns=t + seconds_to_ns(g),
            )
        )
    return out


def test_window_accepts_19ms_and_rejects_21ms_mean_gap():
    accepted = gate_windows(_paired([0.019] * 10), window_len=10, tau_s=0.020)
    rejected = gate_windows(_paired([0.021] * 10), window_len=10, tau_s=0.020)
    assert len(accepted) == len(rejected) == 1
    assert accepted[0].accepted
    assert accepted[0].mean_gap_s == pytest.approx(0.019)
    assert not rejected[0].accepted
    assert rejected[0].mean_gap_s == pytest.approx(0.021)


def test_window_boundary_gap_is_accepted():
    windows = gate_windows(_paired([0.020] * 10), window_len=10, tau_s=0.020)
    assert windows[0].accepted


def test_windows_tile_without_overlap():
    windows = gate_windows(_paired([0.0] * 25), window_len=10)
    assert len(windows) == 2
    assert windows[0].start_index == 0
    assert windows[1].start_index == 10
    assert all(len(w.frames) == 10 for w in windows)
    # the 5 trailing frames do not form a gated window


def test_window_mixes_gaps_through_the_mean():
    gaps = [0.009] * 5 + [0.029] * 5  # mean 19 ms: accepted
    assert gate_windows(_paired(gaps), window_len=10, tau_s=0.020)[0].accepted
    gaps = [0.009] * 4 + [0.029] * 6  # mean 21 ms: rejected
    assert not gate_windows(_paired(gaps), window_len=10, tau_s=0.020)[0].accepted


def test_window_len_one_gates_each_frame():
    windows = gate_windows(_paired([0.001, 0.5, 0.003]), window_len=1)
    assert [w.accepted for w in windows] == [True, False, True]


def test_window_rejects_bad_length():
    with pytest.raises(ValueError, match="window_len"):
        gate_windows(_paired([0.0]), window_len=0)


def test_window_against_label_stream():
    # frames at 0 and 100 ms; labels 3 ms off each mid timestamp
    paired = _paired([0.0, 0.0])
    windows = gate_windows(
        paired, window_len=2, tau_s=0.004, label_timestamps_s=[0.003, 0.103]
    )
    assert windows[0].accepted
    assert windows[0].frames[0].label_timestamp_ns == seconds_to_ns(0.003)
    windows = gate_windows(
        paired, window_len=2, tau_s=0.002, label_timestamps_s=[0.003, 0.103]
    )
    assert not windows[0].accepted


def test_window_assigns_nearest_label():
    paired = _paired([0.0] * 3)  # mids at 0, 100, 200 ms
    windows = gate_windows(
        paired, window_len=3, tau_s=1.0, label_timestamps_s=[0.198, 0.001, 0.09]
    )
    labels = [f.label_timestamp_ns for f in windows[0].frames]
    assert labels == [1_000_000, 90_000_000, 198_000_000]


def test_window_rejects_empty_label_list():
    with pytest.raises(ValueError, match="label timestamp list is empty"):
        gate_windows(_paired([0.0]), window_len=1, label_timestamps_s=[])


# --- merging -----------------------------------------------------------------


def test_merge_concatenates_left_first():
    fused = merge_views(_cloud("left", ts=100), _cloud("right", ts=200))
    assert len(fused) == 8
    assert fused.view_codes.tolist() == [0] * 4 + [1] * 4
    assert fused.view is None
    assert fused.timestamp_ns == 150


def test_merge_rejects_count_mismatch():
    with pytest.raises(ValueError, match="left has 3, right has 5; left view"):
        merge_views(_cloud("left", n=3), _cloud("right", n=5))


def test_merge_flags_degraded_when_one_view_is_all_padding():
    all_pad = _cloud("left", n=4, pad_count=4)
    ok = _cloud("right", n=4)
    fused = merge_views(all_pad, ok)
    assert fused.degraded
    assert fused.pad_count == 4
    assert not merge_views(_cloud("left"), ok).degraded


def test_merge_checks_views_against_poses(poses):
    top = _cloud("left")
    bad = dataclasses.replace(_cloud("right"), view="top")
    with pytest.raises(ValueError, match="cloud view 'top' has no matching pose"):
        merge_views(top, bad, poses=poses)
    merge_views(_cloud("left"), _cloud("right"), poses=poses)


# --- feature rows and tensors ------------------------------------------------


def test_feature_rows_encode_views_and_gates():
    cloud = PointCloud(
        positions_m=[[0.1, -0.8, 0.05]] * 2,
        velocities_mps=[-0.3, 0.4],
        energies=[2.5, 1.5],
        ranges_m=[0.9, 0.9],
        azimuths_rad=[0.1, 0.1],
        elevations_rad=[-0.05, -0.05],
        view_codes=[0, 1],
        gate_codes=[0, 1],
        is_pad=[False, False],
        view=None,
        frame_index=0,
        timestamp_ns=0,
    )
    rows = cloud_feature_rows(cloud)
    assert rows.shape == (2, 8)
    assert rows.dtype == np.float32
    assert rows[0].tolist() == pytest.approx(
        [0.1, -0.8, 0.05, -0.3, 2.5, 0.9, 0.0, 0.0], rel=1e-6
    )
    assert rows[1, 6] == 1.0  # right view
    assert rows[1, 7] == 1.0  # lower gate


def test_point_cloud_rejects_ragged_columns():
    cloud = _cloud("left", n=4)
    with pytest.raises(ValueError, match="energies holds 3 rows, positions_m 4"):
        dataclasses.replace(cloud, energies=cloud.energies[:3])
    with pytest.raises(ValueError, match="must be \\(N, 3\\)"):
        dataclasses.replace(cloud, positions_m=cloud.positions_m[:, :2])


def test_point_cloud_rejects_codes_out_of_range():
    cloud = _cloud("left", n=2)
    bad = ({"view_codes": [0, 2]}, {"view_codes": [-1, 0]}, {"gate_codes": [0, -1]})
    for codes in bad:
        with pytest.raises(ValueError, match="view codes must index VIEWS"):
            dataclasses.replace(cloud, **codes)


def test_point_cloud_columns_are_read_only():
    cloud = _cloud("left", n=4, pad_count=1)
    assert cloud.pad_count == 1
    with pytest.raises(ValueError):
        cloud.energies[0] = 9.0


def _window_of(n_frames, n=4, start=0):
    """Fused clouds of one window; frame k's left velocities read start + k."""
    clouds = []
    for k in range(start, start + n_frames):
        left = _cloud("left", n=n)
        left = dataclasses.replace(left, velocities_mps=left.velocities_mps + k)
        clouds.append(merge_views(left, _cloud("right", n=n)))
    return clouds


def test_tensor_assembly_stacks_windows():
    blocks = [_window_of(3), _window_of(3, start=3)]
    tensor = assemble_feature_tensor(blocks)
    assert tensor.shape == (2, 3, 8, 8)
    assert tensor.dtype == np.float32
    # frame k of window i holds cloud k of block i's feature rows
    for i, block in enumerate(blocks):
        for k, cloud in enumerate(block):
            assert np.array_equal(tensor[i, k], cloud_feature_rows(cloud))
    assert tensor[1, 2, 0, 3] == 5.0  # left velocity of the window's last frame


def test_tensor_assembly_rejects_empty_list():
    with pytest.raises(ValueError, match="no windows"):
        assemble_feature_tensor([])


def test_tensor_assembly_rejects_inconsistent_point_counts():
    with pytest.raises(ValueError, match=r"fused cloud sizes differ: \[8, 12\]"):
        assemble_feature_tensor([_window_of(1, n=4), _window_of(1, n=6)])


def test_tensor_file_round_trip(tmp_path):
    tensor = assemble_feature_tensor([_window_of(2)])
    path = tmp_path / "features.mmft"
    write_feature_tensor(path, tensor)
    back = read_feature_tensor(path)
    assert back.shape == tensor.shape
    assert np.array_equal(back, tensor)


def test_tensor_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mmft"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(TensorFormatError, match="bad magic"):
        read_feature_tensor(path)


def test_tensor_file_rejects_bad_version(tmp_path):
    import struct

    path = tmp_path / "bad.mmft"
    path.write_bytes(b"MMFT" + struct.pack("<I", 9) + struct.pack("<4I", 1, 1, 1, 8))
    with pytest.raises(TensorFormatError, match="unsupported tensor version"):
        read_feature_tensor(path)


def test_tensor_file_rejects_truncated_payload(tmp_path):
    tensor = assemble_feature_tensor([_window_of(1)])
    path = tmp_path / "cut.mmft"
    write_feature_tensor(path, tensor)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TensorFormatError, match="payload holds"):
        read_feature_tensor(path)


def test_tensor_file_rejects_every_cut(tmp_path):
    path = tmp_path / "small.mmft"
    write_feature_tensor(path, np.arange(12, dtype=np.float32).reshape(1, 2, 3, 2))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(TensorFormatError):
            read_feature_tensor(path)


def test_tensor_file_rejects_shape_whose_size_overflows_int64(tmp_path):
    import struct

    # 2**64 floats: an int64 product of the dims wraps to 0, matching
    # the empty payload
    path = tmp_path / "huge.mmft"
    path.write_bytes(b"MMFT" + struct.pack("<I", 1) + struct.pack("<4I", *[65536] * 4))
    with pytest.raises(TensorFormatError, match="payload holds 0 bytes"):
        read_feature_tensor(path)


def test_tensor_writer_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError, match="must be 4-D"):
        write_feature_tensor(tmp_path / "x.mmft", np.zeros((2, 3, 4)))
