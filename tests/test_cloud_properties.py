"""Property tests for columnar point clouds: fusion, feature rows, files.

The per-row references below are the writers and the feature-row loop
as they stood when a cloud was a tuple of per-point records; the
columnar code must reproduce them exactly.
"""
import struct
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CLOUD_COLUMNS
from mmvc import (
    PointCloud,
    cloud_feature_rows,
    merge_views,
    write_cloud_ply,
    write_clouds_csv,
)
from mmvc.io_files import CSV_COLUMNS, PLY_PROPERTIES
from mmvc.types import VIEWS, gate_tag

# finite, and inside float32 range so the PLY reference can pack them
values = st.floats(-1e30, 1e30, allow_nan=False)
# few enough that repeats, signed zeros and subnormals turn up in every run
pooled_values = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e30, -1e30, -1.5, 0.1, 1.0)
)


@st.composite
def view_clouds(draw, view, n, values=values):
    floats = st.lists(values, min_size=n, max_size=n)
    positions = draw(st.lists(st.tuples(values, values, values), min_size=n, max_size=n))
    return PointCloud(
        positions_m=np.array(positions).reshape(n, 3),
        velocities_mps=draw(floats),
        energies=draw(floats),
        ranges_m=draw(floats),
        azimuths_rad=draw(floats),
        elevations_rad=draw(floats),
        view_codes=np.full(n, VIEWS.index(view)),
        # codes 2 and 3 have no named tag: they export as gate2, gate3
        gate_codes=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        is_pad=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        view=view,
        frame_index=draw(st.integers(0, 2**31)),
        timestamp_ns=draw(st.none() | st.integers(-(2**62), 2**62)),
    )


@st.composite
def view_pairs(draw, min_size=0, values=values):
    n = draw(st.integers(min_size, 12))
    return draw(view_clouds("left", n, values)), draw(view_clouds("right", n, values))


# --- per-point references ----------------------------------------------------

Point = namedtuple(
    "Point",
    "position_m radial_velocity_mps energy range_m azimuth_rad elevation_rad "
    "view gate is_pad",
)


def _points(cloud):
    """The cloud's rows as per-point records with view and gate tags."""
    return [
        Point(tuple(p), v, e, r, az, el, VIEWS[vc], gate_tag(gc), pad)
        for p, v, e, r, az, el, vc, gc, pad in zip(
            *(getattr(cloud, name).tolist() for name in CLOUD_COLUMNS)
        )
    ]


def _reference_csv(path, clouds):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for cloud in clouds:
            t = cloud.timestamp_s
            t_text = repr(t) if t is not None else ""
            for p in _points(cloud):
                x, y, z = p.position_m
                row = (
                    str(cloud.frame_index),
                    t_text,
                    p.view,
                    p.gate,
                    repr(x),
                    repr(y),
                    repr(z),
                    repr(p.radial_velocity_mps),
                    repr(p.energy),
                    repr(p.range_m),
                    repr(p.azimuth_rad),
                    repr(p.elevation_rad),
                )
                fh.write(",".join(row) + "\n")


def _reference_ply(path, cloud):
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {name}" for name in PLY_PROPERTIES]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for p in _points(cloud):
            x, y, z = p.position_m
            fh.write(struct.pack("<5f", x, y, z, p.radial_velocity_mps, p.energy))


def _reference_rows(cloud):
    rows = np.zeros((len(cloud), 8), dtype=np.float32)
    for k, p in enumerate(_points(cloud)):
        rows[k, 0:3] = p.position_m
        rows[k, 3] = p.radial_velocity_mps
        rows[k, 4] = p.energy
        rows[k, 5] = p.range_m
        rows[k, 6] = VIEWS.index(p.view)
        if p.gate.startswith("gate"):
            rows[k, 7] = int(p.gate[4:])
        else:
            rows[k, 7] = ("upper", "lower").index(p.gate)
    return rows


# --- properties --------------------------------------------------------------


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("exports")


@given(view_pairs())
def test_merge_stacks_left_rows_then_right_rows(pair):
    left, right = pair
    fused = merge_views(left, right)
    for name in CLOUD_COLUMNS:
        column, top, bottom = (getattr(c, name) for c in (fused, left, right))
        assert column.tobytes() == top.tobytes() + bottom.tobytes()
        assert column.dtype == top.dtype
    assert len(fused) == 2 * len(left)
    assert fused.view is None
    assert fused.frame_index == left.frame_index


@given(view_pairs())
def test_pad_count_adds_up_across_the_merge(pair):
    left, right = pair
    fused = merge_views(left, right)
    assert left.pad_count == sum(left.is_pad.tolist())
    assert fused.pad_count == left.pad_count + right.pad_count


@given(view_pairs(min_size=1))
def test_merge_is_degraded_exactly_when_one_view_is_all_pad(pair):
    left, right = pair
    assert merge_views(left, right).degraded == (left.is_pad.all() or right.is_pad.all())


@given(view_pairs())
def test_feature_rows_equal_the_per_point_loop(pair):
    for cloud in (*pair, merge_views(*pair)):
        rows = cloud_feature_rows(cloud)
        assert rows.dtype == np.float32
        assert rows.tobytes() == _reference_rows(cloud).tobytes()


@given(view_pairs())
def test_csv_equals_the_per_point_writer(out, pair):
    clouds = [*pair, merge_views(*pair)]
    write_clouds_csv(out / "new.csv", clouds)
    _reference_csv(out / "ref.csv", clouds)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@given(view_pairs(values=pooled_values))
def test_csv_of_repeated_values_equals_the_per_point_writer(out, pair):
    clouds = [*pair, merge_views(*pair)]
    write_clouds_csv(out / "new.csv", clouds)
    _reference_csv(out / "ref.csv", clouds)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@given(view_pairs())
def test_ply_equals_the_per_point_writer(out, pair):
    fused = merge_views(*pair)
    write_cloud_ply(out / "new.ply", fused)
    _reference_ply(out / "ref.ply", fused)
    assert (out / "new.ply").read_bytes() == (out / "ref.ply").read_bytes()
