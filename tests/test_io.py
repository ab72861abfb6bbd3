"""Capture, config, CSV, PLY and debug tensor file formats."""
import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmvc import (
    Capture,
    CaptureFormatError,
    ConfigError,
    PointCloud,
    RadarConfig,
    TensorFormatError,
    dump_tensor,
    load_config,
    load_tensor,
    read_capture,
    save_config,
    write_capture,
    write_cloud_ply,
    write_clouds_csv,
)
from mmvc.types import VIEWS, FrameCube

# A (3, 1, 2) frame: small enough that a property test writes many files.
TINY = RadarConfig(samples_per_chirp=2, chirps_per_frame=1, gate_bounds_m=((0.0, 0.05),))
_U32 = st.integers(0, 2**32 - 1)
_I64 = st.integers(-(2**63), 2**63 - 1)


def _frames(config, n=3, view="right", seed=40):
    rng = np.random.default_rng(seed)
    shape = config.frame_shape
    return tuple(
        FrameCube(
            samples=(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            .astype(np.complex64),
            view=view,
            frame_index=k,
            local_timestamp_ns=k * 100_000_000 + 17,
        )
        for k in range(n)
    )


# --- captures ----------------------------------------------------------------


def test_capture_round_trip_is_bit_exact(tmp_path, config):
    frames = _frames(config)
    path = tmp_path / "right.mmvc"
    write_capture(path, frames, config, clock_sample=(0, -3_500_000))
    cap = read_capture(path)
    assert isinstance(cap, Capture)
    assert cap.view == "right"
    assert cap.config == config
    assert cap.clock_sample == (0, -3_500_000)
    assert len(cap.frames) == 3
    for orig, back in zip(frames, cap.frames):
        assert back.samples.tobytes() == orig.samples.tobytes()
        assert back.frame_index == orig.frame_index
        assert back.local_timestamp_ns == orig.local_timestamp_ns
        assert back.view == "right"


def test_capture_without_clock_sample(tmp_path, config):
    path = tmp_path / "left.mmvc"
    write_capture(path, _frames(config, n=1, view="left"), config)
    assert read_capture(path).clock_sample is None


def test_capture_of_empty_stream(tmp_path, config):
    path = tmp_path / "empty.mmvc"
    write_capture(path, (), config)
    cap = read_capture(path)
    assert cap.frames == ()
    assert cap.view == "left"  # view tag defaults when no frame names one


def test_capture_rejects_mixed_views(tmp_path, config):
    frames = _frames(config, n=1, view="left") + _frames(config, n=1, view="right")
    with pytest.raises(ValueError, match="mixes views"):
        write_capture(tmp_path / "x.mmvc", frames, config)


def test_capture_rejects_wrong_shape(tmp_path, config):
    bad = FrameCube(
        samples=np.zeros((3, 4, 4), dtype=np.complex64),
        view="left",
        frame_index=0,
        local_timestamp_ns=0,
    )
    with pytest.raises(ValueError, match="does not match the capture config"):
        write_capture(tmp_path / "x.mmvc", (bad,), config)


def test_capture_rejects_decreasing_timestamps(tmp_path, config):
    f0, f1 = _frames(config, n=2)
    f1 = dataclasses.replace(f1, local_timestamp_ns=f0.local_timestamp_ns - 1)
    with pytest.raises(ValueError, match="timestamp decreases"):
        write_capture(tmp_path / "x.mmvc", (f0, f1), config)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("frame_index", -1, "frame -1 index does not fit in uint32"),
        ("frame_index", 2**32, "frame 4294967296 index does not fit in uint32"),
        ("local_timestamp_ns", 2**63, f"frame 1 timestamp {2**63} does not fit in int64"),
    ],
)
def test_capture_rejects_fields_out_of_range_before_writing(tmp_path, field, value, message):
    f0, f1 = _frames(TINY, n=2)
    path = tmp_path / "x.mmvc"
    with pytest.raises(ValueError, match=message):
        write_capture(path, (f0, dataclasses.replace(f1, **{field: value})), TINY)
    assert not path.exists()


@given(
    view=st.sampled_from(VIEWS),
    rows=st.lists(
        st.tuples(
            _U32,
            _I64,
            hnp.arrays(
                np.complex64,
                TINY.frame_shape,
                elements=st.complex_numbers(allow_nan=False, allow_infinity=False, width=64),
            ),
        ),
        max_size=4,
    ),
    clock_sample=st.none() | st.tuples(_I64, _I64),
)
def test_capture_round_trips(tmp_path_factory, view, rows, clock_sample):
    stamps = sorted(ts for _, ts, _ in rows)
    frames = tuple(
        FrameCube(samples=samples, view=view, frame_index=index, local_timestamp_ns=ts)
        for (index, _, samples), ts in zip(rows, stamps)
    )
    path = tmp_path_factory.mktemp("capture") / "x.mmvc"
    write_capture(path, frames, TINY, clock_sample=clock_sample)
    cap = read_capture(path)
    assert cap.config == TINY
    assert cap.clock_sample == clock_sample
    assert cap.view == (view if frames else VIEWS[0])

    def fields(stream):
        return [(f.frame_index, f.local_timestamp_ns, f.samples.tobytes()) for f in stream]

    assert fields(cap.frames) == fields(frames)


def test_read_rejects_bad_magic(tmp_path, config):
    path = tmp_path / "x.mmvc"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CaptureFormatError, match="bad magic"):
        read_capture(path)


def test_read_rejects_unknown_version(tmp_path, config):
    path = tmp_path / "x.mmvc"
    path.write_bytes(b"MMVC" + struct.pack("<I", 99) + b"\x00" * 16)
    with pytest.raises(CaptureFormatError, match="unsupported capture version"):
        read_capture(path)


def test_read_rejects_unknown_view_code(tmp_path, config):
    path = tmp_path / "x.mmvc"
    path.write_bytes(b"MMVC" + struct.pack("<I", 1) + struct.pack("<B", 7))
    with pytest.raises(CaptureFormatError, match="unknown view code"):
        read_capture(path)


def test_read_rejects_truncation(tmp_path, config):
    path = tmp_path / "x.mmvc"
    write_capture(path, _frames(config, n=2), config)
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(CaptureFormatError, match="truncated capture"):
        read_capture(path)


def test_read_rejects_every_cut(tmp_path):
    # a small cube keeps every cut length cheap to try
    small = RadarConfig(samples_per_chirp=8, chirps_per_frame=8, gate_bounds_m=((0.05, 0.2),))
    path = tmp_path / "x.mmvc"
    write_capture(path, _frames(small, n=2), small, clock_sample=(0, 4_000_000))
    data = path.read_bytes()
    assert read_capture(path).config == small
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(CaptureFormatError):
            read_capture(path)


def test_read_rejects_trailing_bytes(tmp_path, config):
    path = tmp_path / "x.mmvc"
    write_capture(path, _frames(config, n=1), config)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CaptureFormatError, match="trailing bytes"):
        read_capture(path)


def test_read_rejects_timestamp_regression(tmp_path, config):
    # flip the two frames' timestamp fields in the raw bytes
    path = tmp_path / "x.mmvc"
    f0, f1 = _frames(config, n=2)
    write_capture(path, (f0, f1), config)
    data = bytearray(path.read_bytes())
    cube_bytes = f0.samples.nbytes
    meta_len = struct.unpack_from("<I", data, 9)[0]
    first_ts = 9 + 4 + meta_len + 4 + 4
    second_ts = first_ts + 8 + cube_bytes + 4
    struct.pack_into("<q", data, first_ts, 500)
    struct.pack_into("<q", data, second_ts, 499)
    path.write_bytes(bytes(data))
    with pytest.raises(CaptureFormatError, match="timestamp decreases"):
        read_capture(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_samples(tmp_path, config, bad):
    f0, f1, f2 = _frames(config, n=3)
    samples = f1.samples.copy()
    samples[2, 5, 7] = complex(0.5, bad)
    frames = (f0, dataclasses.replace(f1, samples=samples), f2)
    path = tmp_path / "x.mmvc"
    write_capture(path, frames, config)
    with pytest.raises(CaptureFormatError, match="frame 1 holds non-finite"):
        read_capture(path)


def test_read_rejects_unparseable_metadata(tmp_path, config):
    path = tmp_path / "x.mmvc"
    blob = b"not json"
    path.write_bytes(
        b"MMVC"
        + struct.pack("<I", 1)
        + struct.pack("<B", 0)
        + struct.pack("<I", len(blob))
        + blob
    )
    with pytest.raises(CaptureFormatError, match="bad capture metadata"):
        read_capture(path)


@pytest.mark.parametrize(
    "stored",
    [
        5,
        [1, 2],
        {"reference_ns": 1},
        {"reference_ns": "soon", "local_ns": 0},
        {"reference_ns": float("nan"), "local_ns": 0},
        {"reference_ns": 1.5, "local_ns": 0},
    ],
)
def test_read_rejects_malformed_clock_sample(tmp_path, stored):
    path = tmp_path / "x.mmvc"
    meta = json.dumps({"config": TINY.to_dict(), "clock_sample": stored}).encode()
    path.write_bytes(
        b"MMVC" + struct.pack("<IBI", 1, 0, len(meta)) + meta + struct.pack("<I", 0)
    )
    with pytest.raises(CaptureFormatError, match="bad clock sample"):
        read_capture(path)


def test_read_rejects_invalid_embedded_config(tmp_path, config):
    import json

    path = tmp_path / "x.mmvc"
    meta = json.dumps({"config": {"rx_count": 2}, "clock_sample": None}).encode()
    path.write_bytes(
        b"MMVC"
        + struct.pack("<I", 1)
        + struct.pack("<B", 0)
        + struct.pack("<I", len(meta))
        + meta
        + struct.pack("<I", 0)
    )
    with pytest.raises(CaptureFormatError, match="bad embedded config"):
        read_capture(path)


# --- config files ------------------------------------------------------------


def test_config_file_round_trip(tmp_path, config):
    path = tmp_path / "radar.yaml"
    save_config(path, config)
    assert load_config(path) == config


def test_config_file_partial_override(tmp_path):
    path = tmp_path / "radar.yaml"
    path.write_text("mti_alpha: 0.5\nmti_history: 3\n")
    cfg = load_config(path)
    assert cfg.mti_alpha == 0.5
    assert cfg.mti_history == 3
    assert cfg.samples_per_chirp == 128  # untouched defaults remain


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "radar.yaml"
    path.write_text("chirp_count: 64\n")
    with pytest.raises(ConfigError, match="unknown config keys: chirp_count"):
        load_config(path)


def test_config_file_rejects_invalid_values(tmp_path):
    path = tmp_path / "radar.yaml"
    path.write_text("rx_count: 2\n")
    with pytest.raises(ConfigError, match="rx_count"):
        load_config(path)


@pytest.mark.parametrize("entry", ["[[0.3]]", '[["x", 1.0]]', "[[0.3, 0.9, 1.5]]", "[7]"])
def test_config_file_rejects_malformed_gate_entries(tmp_path, entry):
    path = tmp_path / "radar.yaml"
    path.write_text(f"gate_bounds_m: {entry}\n")
    with pytest.raises(ConfigError, match="gate_bounds_m: each gate must be") as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: ")


def test_config_file_rejects_non_mapping(tmp_path):
    path = tmp_path / "radar.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="key: value mapping"):
        load_config(path)


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "radar.yaml"
    path.write_text("")
    assert load_config(path) == RadarConfig()


# --- exports -----------------------------------------------------------------


def _cloud(ts_ns=40_000_000):
    # a real left/upper point, then a right/lower pad row
    return PointCloud(
        positions_m=[(0.1, -0.85, 0.02), (-0.2, -1.1, 0.0)],
        velocities_mps=[-0.25, 0.5],
        energies=[3.5, 1.25],
        ranges_m=[0.9, 1.2],
        azimuths_rad=[0.1, -0.3],
        elevations_rad=[-0.02, 0.05],
        view_codes=[0, 1],
        gate_codes=[0, 1],
        is_pad=[False, True],
        view=None,
        frame_index=2,
        timestamp_ns=ts_ns,
    )


def test_csv_header_and_rows(tmp_path):
    path = tmp_path / "clouds.csv"
    write_clouds_csv(path, [_cloud()])
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,t,view,gate,x,y,z,v,energy,range,az,el"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == 0.04
    assert first[2] == "left"
    assert first[3] == "upper"
    # repr round-trips every float exactly
    assert float(first[4]) == 0.1
    assert float(first[7]) == -0.25
    second = lines[2].split(",")
    assert second[2] == "right"
    assert second[3] == "lower"


def test_csv_with_unknown_timestamp_leaves_t_empty(tmp_path):
    path = tmp_path / "clouds.csv"
    write_clouds_csv(path, [_cloud(ts_ns=None)])
    row = path.read_text().splitlines()[1].split(",")
    assert row[1] == ""


def test_csv_concatenates_multiple_clouds(tmp_path):
    path = tmp_path / "clouds.csv"
    write_clouds_csv(path, [_cloud(), _cloud(ts_ns=140_000_000)])
    lines = path.read_text().splitlines()
    assert len(lines) == 5


def test_csv_keeps_the_sign_of_zero(tmp_path):
    path = tmp_path / "clouds.csv"
    zeros = [0.0, -0.0]
    cloud = PointCloud(
        positions_m=[(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)],
        velocities_mps=zeros,
        energies=zeros,
        ranges_m=zeros,
        azimuths_rad=zeros,
        elevations_rad=zeros,
        view_codes=[0, 1],
        gate_codes=[0, 1],
        is_pad=[False, True],
        view=None,
        frame_index=0,
        timestamp_ns=0,
    )
    write_clouds_csv(path, [cloud])
    assert path.read_text().splitlines()[1:] == [
        "0,0.0,left,upper,0.0,-0.0,0.0,0.0,0.0,0.0,0.0,0.0",
        "0,0.0,right,lower,-0.0,0.0,-0.0,-0.0,-0.0,-0.0,-0.0,-0.0",
    ]


def _random_cloud(rng, frame_index, n=256):
    columns = rng.standard_normal((5, n))
    return PointCloud(
        positions_m=rng.standard_normal((n, 3)),
        velocities_mps=columns[0],
        energies=columns[1],
        ranges_m=columns[2],
        azimuths_rad=columns[3],
        elevations_rad=columns[4],
        view_codes=rng.integers(0, 2, n),
        gate_codes=rng.integers(0, 2, n),
        is_pad=np.zeros(n, dtype=bool),
        view=None,
        frame_index=frame_index,
        timestamp_ns=frame_index * 100_000_000,
    )


def _csv_peak_bytes(path, clouds):
    tracemalloc.start()
    try:
        write_clouds_csv(path, clouds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_the_cloud_count(tmp_path):
    # the writer holds one cloud's rows at a time, never the whole file
    rng = np.random.default_rng(16)
    clouds = [_random_cloud(rng, k) for k in range(40)]
    one = _csv_peak_bytes(tmp_path / "one.csv", clouds[:1])
    forty = _csv_peak_bytes(tmp_path / "forty.csv", clouds)
    assert forty <= 4 * one, (forty, one)


def test_ply_header_and_payload(tmp_path):
    path = tmp_path / "frame.ply"
    cloud = _cloud()
    write_cloud_ply(path, cloud)
    blob = path.read_bytes()
    header, _, payload = blob.partition(b"end_header\n")
    lines = header.decode("ascii").splitlines()
    assert lines == [
        "ply",
        "format binary_little_endian 1.0",
        "element vertex 2",
        "property float x",
        "property float y",
        "property float z",
        "property float velocity",
        "property float energy",
    ]
    assert len(payload) == 2 * 5 * 4
    x, y, z, v, e = struct.unpack_from("<5f", payload, 0)
    assert (x, y, z) == pytest.approx((0.1, -0.85, 0.02))
    assert v == pytest.approx(-0.25)
    assert e == pytest.approx(3.5)
    x2 = struct.unpack_from("<5f", payload, 20)[0]
    assert x2 == pytest.approx(-0.2)


def test_ply_of_empty_cloud(tmp_path):
    path = tmp_path / "empty.ply"
    z = np.zeros(0)
    cloud = PointCloud(
        np.zeros((0, 3)), z, z, z, z, z, z, z, z, view=None, frame_index=0, timestamp_ns=0
    )
    write_cloud_ply(path, cloud)
    blob = path.read_bytes()
    assert b"element vertex 0" in blob
    assert blob.endswith(b"end_header\n")


# --- debug tensors -----------------------------------------------------------


def test_tensor_dump_round_trip(tmp_path, config):
    rng = np.random.default_rng(8)
    arr = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    path = tmp_path / "cells.tensor"
    dump_tensor(path, arr)
    back = load_tensor(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_tensor_dump_rejects_every_cut(tmp_path):
    path = tmp_path / "small.tensor"
    dump_tensor(path, np.arange(6, dtype=complex).reshape(2, 3))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(TensorFormatError):
            load_tensor(path)
    path.write_bytes(data + b"\0" * 16)
    with pytest.raises(TensorFormatError, match="cannot hold shape"):
        load_tensor(path)


NAN = float("nan")
# both signs of zero and NaN in each part, so the bytes tell them apart
TENSOR_VALUES = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, NAN), complex(NAN, -0.0),
    1.5 - 2.25j, 5e-324j,
)
LAYOUTS = {
    "c": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[(slice(None, None, -2),) * a.ndim],
}


@given(
    arr=hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=st.sampled_from(TENSOR_VALUES),
    ),
    layout=st.sampled_from(sorted(LAYOUTS)),
)
@example(arr=np.array(complex(-0.0, NAN)), layout="c")
def test_tensor_dump_round_trips_shape_and_bytes(tmp_path_factory, arr, layout):
    view = LAYOUTS[layout](arr)
    path = tmp_path_factory.mktemp("tensor") / "cells.tensor"
    dump_tensor(path, view)
    back = load_tensor(path)
    assert back.shape == view.shape
    # C order by definition: ``flat`` walks the last axis fastest
    assert back.tobytes() == b"".join(np.complex128(v).tobytes() for v in view.flat)
