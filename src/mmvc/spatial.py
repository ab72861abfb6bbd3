"""Spatial processing: from a range-Doppler map to a one-view point cloud.

Pipeline per frame and view: per-range-bin energy compensation, range
gating into body-region bands, digital beamforming on the two antenna
pairs, relative-threshold detection, velocity-extreme selection down to
the fixed point budget, and projection into the head frame.

With one transmitter and three receivers the angle field is separable:
the azimuth-pair response magnitude times the elevation-pair one, each
``|c0 conj(w0) + ck conj(w1)|`` over the beams. After motion filtering
almost every cell of a gate is noise, so detection first bounds each
cell: by the triangle inequality no beam of a pair exceeds
``|c0| max|w0| + |ck| max|w1|``. The exact factors of the cell with the
largest bound give a lower bound L on the gate's peak, and only cells
whose bound reaches L times the detection ratio (at most 1) can hold the
peak or a detection. Beams are computed in those cells alone, with the
expressions a full sweep uses, so the candidates are the full sweep's
bit for bit; the (range, Doppler, beam, beam) field is never built.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .types import (
    VIEWS,
    PointCloud,
    RadarConfig,
    RadarPose,
    RangeDopplerMap,
    gate_tag,
)

# Slack on the field-of-view bound, so beams computed at exactly
# +-max_steer are not rejected for rounding.
_FOV_TOL_RAD = 1e-9

# Slack on each factor of a cell's beam bound: relative for rounding in
# the exact path, absolute for rounding among subnormals.
_BOUND_SLACK = 1.0 + 1e-9
_TINY = np.finfo(float).tiny


def energy_compensation(rd: RangeDopplerMap) -> RangeDopplerMap:
    """Equalise mean magnitude across range bins, per channel.

    For each channel, every range bin's cells are scaled by M / m where
    m is that bin's mean magnitude over the Doppler axis and M is the
    mean of m over the populated bins. Afterwards every populated bin
    has mean magnitude M, so near-range returns no longer drown far
    ones. Scaling is by a positive real, so phases are untouched, and
    applying the compensation twice changes nothing.

    All-zero bins (m = 0) are left unscaled; restricting the reference
    mean M to populated bins is what keeps the operation idempotent in
    their presence.
    """
    cells = rd.cells
    m = np.abs(cells).mean(axis=1)  # (range bin, channel)
    populated = m > 0.0
    counts = populated.sum(axis=0)
    sums = np.where(populated, m, 0.0).sum(axis=0)
    ref = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    scale = np.where(populated, ref[None, :] / np.where(populated, m, 1.0), 1.0)
    return dataclasses.replace(rd, cells=cells * scale[:, None, :])


def range_gate(rd: RangeDopplerMap, gate: int, config: RadarConfig) -> RangeDopplerMap:
    """Gate ``gate``'s band of a full map: a view of its rows
    ``config.gate_bins[gate]``, not a copy, with ``first_range_bin`` first
    and the gate's tag."""
    rows = rd.cells.shape[0]
    if rows != config.range_bin_count:
        raise ValueError(
            f"map holds {rows} range bins, the config {config.range_bin_count}"
        )
    first, last = config.gate_bins[gate]
    return dataclasses.replace(
        rd, cells=rd.cells[first : last + 1], gate=gate_tag(gate), first_range_bin=first
    )


@functools.lru_cache(maxsize=16)
def _weights_cached(config: RadarConfig, offset_rad: float) -> np.ndarray:
    angles = config.beam_angles_rad + offset_rad
    ant = np.arange(2)[:, None]
    d_over_l = ant * config.antenna_spacing_m / config.center_wavelength_m
    w = np.exp(1j * 2.0 * np.pi * d_over_l * np.sin(angles))
    w.setflags(write=False)
    return w


def dbf_weights(config: RadarConfig, offset_deg: float = 0.0) -> np.ndarray:
    """Steering matrix W indexed (antenna in pair, beam).

    W(i, b) = exp(j * 2 pi * (i * spacing / lambda) * sin(theta_b)) for
    beams uniform across [-max_steer, +max_steer]. Row 0 is the shared
    corner antenna and is identically one. ``offset_deg`` shifts every
    theta_b, steering off the grid the rest of the chain assumes.
    """
    return _weights_cached(config, math.radians(offset_deg))


def _check_pairs(cells: np.ndarray, weights: np.ndarray, config: RadarConfig) -> None:
    """Raise unless ``cells`` hold 3 channels and ``weights`` 2 rows of beams."""
    if cells.shape[-1] != 3:
        raise ValueError(
            f"beamforming expects 3 channels (corner, azimuth, elevation), "
            f"got {cells.shape[-1]}"
        )
    if weights.shape != (2, config.beam_count):
        raise ValueError(
            f"weights shape {weights.shape} does not match (2, {config.beam_count})"
        )


def _pair_factors(cells: np.ndarray, weights: np.ndarray) -> tuple:
    """Azimuth- and elevation-pair response magnitudes of ``cells``
    (..., channel), each indexed (..., beam)."""
    corner = cells[..., 0, None] * np.conj(weights[0])
    w1c = np.conj(weights[1])
    return (
        np.abs(corner + cells[..., 1, None] * w1c),
        np.abs(corner + cells[..., 2, None] * w1c),
    )


def beamform(
    rd: RangeDopplerMap,
    weights: np.ndarray,
    config: RadarConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep both antenna pairs of every cell over the beam set.

    Channels are grouped as azimuth pair (0, 1) and elevation pair
    (0, 2) sharing the corner antenna. Each pair is combined by
    delay-and-sum with the conjugated steering weights, so a source
    with a positive inter-antenna phase ramp peaks on the matching
    positive beam. Returns the two pairs' response magnitudes
    (azimuth, elevation), each indexed (row, Doppler bin, beam); the
    detection field at azimuth beam a and elevation beam e is
    ``azimuth[..., a] * elevation[..., e]``. The chain itself detects
    with ``detect_points``, which sweeps only the cells that can hold a
    detection.
    """
    _check_pairs(rd.cells, weights, config)
    return _pair_factors(rd.cells, weights)


@dataclass(frozen=True, eq=False)
class Candidates:
    """Columnar list of detected cells from one (view, gate) grid, in
    bins; ``extract_point_cloud`` turns the selected rows into units."""

    range_bins: np.ndarray
    doppler_bins: np.ndarray
    azimuth_bins: np.ndarray
    elevation_bins: np.ndarray
    energies: np.ndarray
    view: str
    gate: str

    def __len__(self) -> int:
        return len(self.energies)

    @classmethod
    def empty(cls, view: str, gate: str) -> "Candidates":
        z = np.zeros(0)
        zi = np.zeros(0, dtype=int)
        return cls(zi, zi, zi, zi, z, view, gate)

    def take(self, indices) -> "Candidates":
        idx = np.asarray(indices, dtype=int)
        return Candidates(
            self.range_bins[idx],
            self.doppler_bins[idx],
            self.azimuth_bins[idx],
            self.elevation_bins[idx],
            self.energies[idx],
            self.view,
            self.gate,
        )


def detect_points(
    band: RangeDopplerMap, weights: np.ndarray, config: RadarConfig
) -> Candidates:
    """Beamform a gate's band and keep the beams within
    ``detect_threshold_db`` of its peak.

    The reference is the peak of the band's own field, so detection is
    insensitive to absolute scale. A beam is kept when its field value
    exceeds peak * 10^(threshold/20); an all-zero band yields no
    candidates. Candidates come out in row-major (range, Doppler,
    azimuth beam, elevation beam) order, with range bins counted from
    the band's ``first_range_bin``.

    Beams are computed only where they can matter. Each factor of a
    cell is bounded by |c0| max|w0| + |ck| max|w1| (triangle inequality;
    the row maxima make it hold for any weights), times 1 + 1e-9 plus
    the smallest normal float, so rounding in the exact path, subnormal
    included, never exceeds it; rounding a product of non-negative
    floats is monotone, so the product of the two factor bounds bounds
    every beam of the cell. The exact peak of the cell with the largest
    bound is a lower bound L on the band's peak, and cells whose bound
    falls below L * min(1, 10^(threshold/20)) can hold neither the peak
    nor a detection. The rest are gathered and swept with
    ``_pair_factors``, elementwise as a full sweep of the band would,
    so the peak, the threshold and every kept product are the full
    sweep's bit for bit.

    A cell's peak is max(azimuth) * max(elevation), again by
    monotonicity; the per-beam products are formed only in cells whose
    peak clears the threshold.
    """
    cells = band.cells
    _check_pairs(cells, weights, config)
    view, gate = band.view, band.gate or ""
    reach = np.abs(weights).max(axis=1)
    mags = np.abs(cells)
    corner = mags[..., 0] * reach[0]
    bound = ((corner + mags[..., 1] * reach[1]) * _BOUND_SLACK + _TINY) * (
        (corner + mags[..., 2] * reach[1]) * _BOUND_SLACK + _TINY
    )
    if not bound.size or bound.max() <= 0.0:
        return Candidates.empty(view, gate)
    ratio = 10.0 ** (config.detect_threshold_db / 20.0)
    top = np.unravel_index(np.argmax(bound), bound.shape)
    az, el = _pair_factors(cells[top], weights)
    cut = az.max() * el.max() * min(1.0, ratio)
    rows, dopplers = np.nonzero(bound >= cut)
    az, el = _pair_factors(cells[rows, dopplers], weights)
    cell_peak = az.max(axis=1) * el.max(axis=1)
    peak = cell_peak.max()
    if peak <= 0.0:
        return Candidates.empty(view, gate)
    threshold = peak * ratio
    live = np.flatnonzero(cell_peak > threshold)
    sub = az[live, :, None] * el[live, None, :]
    sub_mask = sub > threshold
    cell, a, e = np.nonzero(sub_mask)
    return Candidates(
        range_bins=rows[live[cell]] + band.first_range_bin,
        doppler_bins=dopplers[live[cell]],
        azimuth_bins=a,
        elevation_bins=e,
        energies=sub[sub_mask],
        view=view,
        gate=gate,
    )


def select_by_velocity(
    candidates: Candidates, config: RadarConfig
) -> tuple[Candidates, int]:
    """Pick the velocity extremes down to exactly 2 * point_budget rows.

    Candidates are totally ordered by signed velocity with ties broken
    by higher energy, then lower range, then lexicographic (azimuth,
    elevation) beam index; the lowest and highest ``point_budget``
    entries of that order are kept. Short candidate lists keep
    everything and pad by repeating the highest-energy candidate; the
    returned count is how many trailing rows are pad repeats. An empty
    input returns an empty selection with a full pad count (the caller
    emits all-zero sentinels).
    """
    budget = 2 * config.point_budget
    n = len(candidates)
    if n == 0:
        return candidates, budget
    order = np.lexsort(
        (
            candidates.elevation_bins,
            candidates.azimuth_bins,
            candidates.range_bins,
            -candidates.energies,
            candidates.doppler_bins,
        )
    )
    if n >= budget:
        chosen = np.concatenate(
            [order[: config.point_budget], order[-config.point_budget :]]
        )
        return candidates.take(chosen), 0
    pad_count = budget - n
    ordered_energy = candidates.energies[order]
    best = order[int(np.argmax(ordered_energy == candidates.energies.max()))]
    chosen = np.concatenate([order, np.full(pad_count, best, dtype=int)])
    return candidates.take(chosen), pad_count


def project_to_cartesian(
    range_m: float,
    azimuth_rad: float,
    elevation_rad: float,
    pose: RadarPose,
    max_angle_rad: float = math.pi / 4,
) -> np.ndarray:
    """Head-frame position of a (range, azimuth, elevation) detection.

    The sensor-frame direction is (sin az cos el, sin el, cos az cos el);
    the pose rotates and translates it into the head frame. Angles
    beyond the steering field of view are rejected.
    """
    if range_m < 0:
        raise ValueError(f"negative range {range_m}")
    limit = max_angle_rad + _FOV_TOL_RAD
    if abs(azimuth_rad) > limit or abs(elevation_rad) > limit:
        raise ValueError(
            f"angles ({azimuth_rad:.4f}, {elevation_rad:.4f}) rad fall outside "
            f"the +-{max_angle_rad:.4f} rad field of view"
        )
    direction = np.array(
        [
            math.sin(azimuth_rad) * math.cos(elevation_rad),
            math.sin(elevation_rad),
            math.cos(azimuth_rad) * math.cos(elevation_rad),
        ]
    )
    return pose.sensor_to_head(range_m * direction)


def _cloud_columns(
    cands: Candidates, pose: RadarPose, config: RadarConfig
) -> tuple:
    """A selection's cloud columns in ``PointCloud`` order: head-frame
    positions, velocity, energy, range and the two beam angles, with
    each bin read off ``config``'s lattice.

    Sines and cosines of the beam angles are taken with ``math``, as
    ``project_to_cartesian`` takes them, so each direction is the same.
    """
    ranges = cands.range_bins * config.range_resolution_m
    velocities = (
        cands.doppler_bins - config.chirps_per_frame // 2
    ) * config.velocity_resolution_mps
    angles = config.beam_angles_rad
    beam_sin = np.array([math.sin(t) for t in angles.tolist()])
    beam_cos = np.array([math.cos(t) for t in angles.tolist()])
    az, el = cands.azimuth_bins, cands.elevation_bins
    direction = np.stack(
        [beam_sin[az] * beam_cos[el], beam_sin[el], beam_cos[az] * beam_cos[el]],
        axis=1,
    )
    positions = pose.sensor_to_head(ranges[:, None] * direction)
    return positions, velocities, cands.energies, ranges, angles[az], angles[el]


def extract_point_cloud(
    rd: RangeDopplerMap,
    pose: RadarPose,
    config: RadarConfig,
    weights: np.ndarray | None = None,
) -> PointCloud:
    """Full spatial chain for one view: gates, beams, detection, budget.

    Returns exactly ``2 * point_budget`` rows per configured gate, in
    gate order. An under-populated gate's trailing rows are pads that
    repeat its strongest candidate; a gate with no detections at all
    gets all-zero pad rows. Positions are head-frame coordinates via
    ``pose``; velocities, ranges and angles stay sensor-relative.
    """
    if rd.view not in VIEWS:
        raise ValueError(f"unknown view tag {rd.view!r}")
    view_code = VIEWS.index(rd.view)
    if weights is None:
        weights = dbf_weights(config)
    n = 2 * config.point_budget
    blocks, pads = [], []
    for gate in range(len(config.gate_bins)):
        band = range_gate(rd, gate, config)
        cands = detect_points(band, weights, config)
        selected, pad_count = select_by_velocity(cands, config)
        if len(selected):
            blocks.append(_cloud_columns(selected, pose, config))
        else:  # no detections: all-zero pad rows
            blocks.append((np.zeros((n, 3)),) + (np.zeros(n),) * 5)
        pads.append(np.arange(n) >= n - pad_count)
    gates = len(blocks)
    return PointCloud(
        *(np.concatenate(column) for column in zip(*blocks)),
        view_codes=np.full(gates * n, view_code),
        gate_codes=np.repeat(np.arange(gates), n),
        is_pad=np.concatenate(pads),
        view=rd.view,
        frame_index=rd.frame_index,
        timestamp_ns=rd.calibrated_timestamp_ns,
    )
