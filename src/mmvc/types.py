"""Shared domain types for the multi-view mmWave radar toolkit.

Conventions used throughout the package:

* Head frame: x points right, y points up, z points forward. Sensor
  frame: x along the azimuth baseline, y along the elevation baseline,
  z along boresight.
* Angles are radians, distances metres, velocities m/s. A positive
  radial velocity means the scatterer is receding from the sensor.
* Timestamps are integer nanoseconds internally; seconds appear only at
  API boundaries.
* All value objects are immutable; arrays they wrap are marked
  read-only on construction.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Propagation speed. The toolkit uses the radar convention 3e8 m/s so
# that the derived bin widths come out as round numbers.
C_LIGHT = 3.0e8

VIEW_LEFT = "left"
VIEW_RIGHT = "right"
VIEWS = (VIEW_LEFT, VIEW_RIGHT)

# Gate tags, ordered to match ``RadarConfig.gate_bounds_m``. The first
# gate covers the nearer (upper body) band, the second the farther
# (lower body) band.
GATE_TAGS = ("upper", "lower")


def gate_tag(index: int) -> str:
    """Tag for the gate at ``index`` in the configured gate list."""
    if index < len(GATE_TAGS):
        return GATE_TAGS[index]
    return f"gate{index}"


# glibc mallopt parameters and the heap limits the per-frame synthesis
# and processing set: the mmap threshold is glibc's own ceiling for its
# dynamic threshold, and the trim threshold is twice it, as the dynamic
# rule pairs them. One arena holds every thread's blocks.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _keep_frame_buffers_on_heap() -> None:
    """Let one frame's freed numpy buffers serve the next frame.

    glibc maps every block above its mmap threshold afresh and hands
    the top of its heap back to the kernel once more than twice that
    threshold lies free. The threshold starts at 128 KiB and only rises
    to the largest mapped block freed so far, about 0.8 MB here (a
    complex128 frame cube), so a frame's cubes and beam sweeps cross
    both limits: each frame re-faults hundreds to thousands of fresh
    pages, and that kernel work is as slow as the host's memory load
    makes it. Raising both limits once keeps the buffers on the heap
    for reuse.

    It also caps glibc at one arena, so threads that synthesise views
    side by side (``simulate_session``) allocate from this same heap,
    not from arenas of their own, each of which would hold its own
    freed frame buffers. Call it before such threads start.
    Process-wide; a no-op where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def seconds_to_ns(t_s: float) -> int:
    """Convert seconds to integer nanoseconds (round to nearest)."""
    return int(round(t_s * 1e9))


def ns_to_seconds(t_ns: int) -> float:
    return t_ns * 1e-9


class ConfigError(ValueError):
    """Raised when a RadarConfig violates one of its invariants."""


@dataclass(frozen=True)
class RadarConfig:
    """Radar waveform, array and processing parameters.

    Defaults describe a 60-63 GHz sensor with 128 samples per chirp,
    128 chirps per frame at 10 frames per second, a three-antenna
    L-shaped receive array and 31 beams spanning +-45 degrees.
    """

    # ------------------------- waveform -------------------------
    start_freq_hz: float = 60.0e9
    end_freq_hz: float = 63.0e9
    bandwidth_hz: float = 3.0e9
    chirp_duration_s: float = 700e-6
    samples_per_chirp: int = 128
    chirps_per_frame: int = 128
    frame_period_s: float = 0.100

    # ------------------------- antenna array -------------------------
    rx_count: int = 3
    # Element pitch; None means half the centre wavelength.
    antenna_spacing_m: float | None = None

    # ------------------------- beamforming -------------------------
    beam_count: int = 31
    max_steer_rad: float = math.pi / 4

    # ------------------------- point extraction -------------------------
    # Points kept per velocity sign per (view, gate); a frame-level
    # cloud therefore holds 2 * point_budget points per (view, gate).
    point_budget: int = 32
    detect_threshold_db: float = -3.5
    gate_bounds_m: tuple[tuple[float, float], ...] = ((0.3, 0.9), (0.9, 1.5))

    # ------------------------- background filtering -------------------------
    mti_alpha: float = 0.3
    mti_history: int = 5

    # ------------------------- synchronisation -------------------------
    tau_s: float = 0.020

    def __post_init__(self) -> None:
        # Normalise gate bounds to nested tuples so the config stays
        # hashable regardless of how the caller spelled them.
        try:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.gate_bounds_m)
        except (TypeError, ValueError):
            raise ConfigError(
                f"gate_bounds_m: each gate must be a (low, high) pair of numbers, "
                f"got {self.gate_bounds_m!r}"
            ) from None
        object.__setattr__(self, "gate_bounds_m", bounds)
        validate_config(self)  # before a zero sweep centre can divide
        if self.antenna_spacing_m is None:
            object.__setattr__(
                self, "antenna_spacing_m", self.center_wavelength_m / 2.0
            )

    # ------------------------- derived quantities -------------------------
    @property
    def frame_shape(self) -> tuple[int, int, int]:
        """(rx, chirp, sample) shape of one frame's IF samples."""
        return (self.rx_count, self.chirps_per_frame, self.samples_per_chirp)

    @property
    def center_freq_hz(self) -> float:
        return 0.5 * (self.start_freq_hz + self.end_freq_hz)

    @property
    def center_wavelength_m(self) -> float:
        """Wavelength at the sweep centre, used for all Doppler and DBF math."""
        return C_LIGHT / self.center_freq_hz

    @property
    def chirp_slope_hz_per_s(self) -> float:
        return self.bandwidth_hz / self.chirp_duration_s

    @property
    def sample_rate_hz(self) -> float:
        """ADC rate inferred from samples_per_chirp / chirp_duration_s."""
        return self.samples_per_chirp / self.chirp_duration_s

    @property
    def range_bin_count(self) -> int:
        """Positive-frequency half of the sample-axis FFT."""
        return self.samples_per_chirp // 2

    @property
    def range_resolution_m(self) -> float:
        return C_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def max_range_m(self) -> float:
        return self.range_bin_count * self.range_resolution_m

    @property
    def velocity_resolution_mps(self) -> float:
        return self.center_wavelength_m / (
            2.0 * self.chirps_per_frame * self.chirp_duration_s
        )

    @property
    def max_speed_mps(self) -> float:
        return self.center_wavelength_m / (4.0 * self.chirp_duration_s)

    @functools.cached_property
    def beam_angles_rad(self) -> np.ndarray:
        """Steering angles, uniform from -max_steer to +max_steer.

        Computed once per config; every access returns the same
        read-only array.
        """
        angles = np.linspace(
            -self.max_steer_rad, self.max_steer_rad, self.beam_count
        )
        angles.setflags(write=False)
        return angles

    @functools.cached_property
    def gate_bins(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (first, last) range-bin interval of each gate: bin k
        belongs to a gate when its centre ``k * range_resolution_m`` lies
        in [low, high), so a bound on a bin centre starts the next gate.
        ``validate_config`` keeps every interval non-empty and in the map."""
        width = self.range_resolution_m
        eps = 1e-9
        return tuple(
            (math.ceil(lo / width - eps), math.ceil(hi / width - eps) - 1)
            for lo, hi in self.gate_bounds_m
        )

    # ------------------------- serialisation -------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["gate_bounds_m"] = [list(b) for b in self.gate_bounds_m]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RadarConfig":
        """Build a config from a mapping of field names.

        Missing fields keep their defaults; unknown keys raise
        ConfigError so typos never pass silently.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                "unknown config keys: " + ", ".join(unknown)
            )
        return cls(**data)


def _is_power_of_two(n: int) -> bool:
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


def _positive_finite(value: float) -> bool:
    # NaN fails every comparison, so a bare ``<= 0`` check lets it through.
    return value > 0 and math.isfinite(value)


def validate_config(config: RadarConfig) -> RadarConfig:
    """Check every config invariant; return the config unchanged.

    ``RadarConfig`` runs this on construction. Raises ConfigError naming
    each offending field, on one line with the violations joined by
    "; ". Validation is idempotent: a validated config validates to an
    identical value.
    """
    # Kinds first, as the range checks compare: an integer where the
    # default is one, a number elsewhere. The gate bounds are converted
    # on construction, and a None spacing stands for the derived default.
    errs: list[str] = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        integral = isinstance(f.default, int)
        if f.name == "gate_bounds_m" or (value is None and f.default is None):
            continue
        if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real
        ):
            kind = "an integer" if integral else "a number"
            errs.append(f"{f.name}: must be {kind}, got {value!r}")
    if errs:
        raise ConfigError("; ".join(errs))

    if not _positive_finite(config.bandwidth_hz):
        errs.append("bandwidth_hz: must be positive and finite")
    sweep_ok = False
    if not _positive_finite(config.start_freq_hz):
        errs.append("start_freq_hz: must be positive and finite")
    elif not config.start_freq_hz < config.end_freq_hz < math.inf:
        errs.append("end_freq_hz: sweep must run upward from start_freq_hz to a finite end")
    else:
        sweep_ok = True
        span = config.end_freq_hz - config.start_freq_hz
        if _positive_finite(config.bandwidth_hz) and abs(config.bandwidth_hz - span) > 1e-6 * span:
            errs.append(
                "bandwidth_hz: does not equal end_freq_hz - start_freq_hz"
            )
    if not _positive_finite(config.chirp_duration_s):
        errs.append("chirp_duration_s: must be positive and finite")
    if not _positive_finite(config.frame_period_s):
        errs.append("frame_period_s: must be positive and finite")
    if not _is_power_of_two(config.samples_per_chirp):
        errs.append("samples_per_chirp: must be a power of two")
    if not _is_power_of_two(config.chirps_per_frame):
        errs.append("chirps_per_frame: must be a power of two")
    if config.rx_count != 3:
        errs.append(
            "rx_count: must be 3 (corner antenna plus azimuth and "
            "elevation partners)"
        )
    # The default spacing derives from the sweep; a bad sweep is reported once.
    if sweep_ok and config.antenna_spacing_m is not None and not _positive_finite(
        config.antenna_spacing_m
    ):
        errs.append("antenna_spacing_m: must be positive and finite")
    if config.beam_count < 3 or config.beam_count % 2 == 0:
        errs.append("beam_count: must be odd and at least 3 so a broadside beam exists")
    if not (0 < config.max_steer_rad <= math.pi / 2):
        errs.append("max_steer_rad: must lie in (0, pi/2]")
    if config.point_budget < 1:
        errs.append("point_budget: must be at least 1")
    if not math.isfinite(config.detect_threshold_db):
        errs.append("detect_threshold_db: must be finite")
    if not (0 < config.mti_alpha <= 1):
        errs.append("mti_alpha: must lie in (0, 1]")
    if config.mti_history < 1:
        errs.append("mti_history: must be at least 1")
    if not _positive_finite(config.tau_s):
        errs.append("tau_s: must be positive and finite")

    if not config.gate_bounds_m:
        errs.append("gate_bounds_m: at least one gate is required")
    range_ok = _positive_finite(config.bandwidth_hz) and _is_power_of_two(config.samples_per_chirp)
    prev_hi = None
    before_gates = len(errs)
    for lo, hi in config.gate_bounds_m:
        if lo < 0:
            errs.append(f"gate_bounds_m: gate bound below zero: ({lo}, {hi})")
        if not lo < hi:  # NaN included
            errs.append(f"gate_bounds_m: gate bounds not increasing: ({lo}, {hi})")
        if prev_hi is not None and lo < prev_hi:
            errs.append(
                f"gate_bounds_m: gates overlap: lower bound {lo} precedes "
                f"previous upper bound {prev_hi}"
            )
        if range_ok and hi > config.max_range_m:
            errs.append(
                f"gate_bounds_m: gate upper bound {hi} exceeds the maximum "
                f"range {config.max_range_m}"
            )
        prev_hi = hi
    if range_ok and len(errs) == before_gates:  # bins of sound gates only
        for (lo, hi), (first, last) in zip(config.gate_bounds_m, config.gate_bins):
            if last < first:
                errs.append(f"gate_bounds_m: gate ({lo}, {hi}) holds no range-bin centre")

    if errs:
        raise ConfigError("; ".join(errs))
    return config


@dataclass(frozen=True)
class RadarPose:
    """Rigid transform from a sensor frame into the head frame.

    ``orientation`` is stored row-major as nested tuples; column i is
    sensor axis i expressed in head coordinates. Must be a proper
    rotation (orthonormal, det +1).
    """

    view: str
    position_m: tuple[float, float, float]
    orientation: tuple[
        tuple[float, float, float],
        tuple[float, float, float],
        tuple[float, float, float],
    ]

    def __post_init__(self) -> None:
        r = self.rotation()
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-9):
            raise ValueError(f"pose orientation for view {self.view!r} is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-9):
            raise ValueError(f"pose orientation for view {self.view!r} is not a proper rotation")

    def rotation(self) -> np.ndarray:
        return np.asarray(self.orientation, dtype=float)

    def sensor_to_head(self, vec_sensor) -> np.ndarray:
        """Map a sensor-frame vector (or (N, 3) stack) into the head frame."""
        v = np.asarray(vec_sensor, dtype=float)
        return v @ self.rotation().T + np.asarray(self.position_m)

    def head_to_sensor(self, vec_head) -> np.ndarray:
        v = np.asarray(vec_head, dtype=float) - np.asarray(self.position_m)
        return v @ self.rotation()


def mirror_pose(pose: RadarPose, view: str) -> RadarPose:
    """Mirror a pose across the head sagittal (x = 0) plane.

    The sensor's azimuth axis flips along with the mounting so the
    result stays a proper rotation; a mirrored scene then yields
    negated azimuths between the two views.
    """
    m = np.diag([-1.0, 1.0, 1.0])
    f = np.diag([-1.0, 1.0, 1.0])
    r = m @ pose.rotation() @ f
    px, py, pz = pose.position_m
    return RadarPose(
        view=view,
        position_m=(-px, py, pz),
        orientation=tuple(tuple(float(v) for v in row) for row in r),
    )


def default_pose_pair() -> tuple[RadarPose, RadarPose]:
    """Default (left, right) sensor poses.

    Each sensor sits roughly 8 cm outward of the ear (16 cm from the
    head centre) with boresight pointing down at the wearer's body; the
    pair is mirror-symmetric about the sagittal plane.
    """
    # Right sensor axes in head coordinates: azimuth baseline along
    # +z (forward), elevation baseline along -x, boresight along -y.
    right = RadarPose(
        view=VIEW_RIGHT,
        position_m=(0.16, 0.0, 0.0),
        orientation=(
            (0.0, -1.0, 0.0),
            (0.0, 0.0, -1.0),
            (1.0, 0.0, 0.0),
        ),
    )
    left = mirror_pose(right, VIEW_LEFT)
    return left, right


def _freeze_array(obj, name: str, value, dtype=None, ndim: int | None = None):
    arr = np.asarray(value, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class FrameCube:
    """One raw frame of IF samples, indexed (rx, chirp, sample) as
    ``RadarConfig.frame_shape`` gives the sizes.

    Samples are complex64: that is the capture-file precision, so a
    write/read round trip is bit-exact.
    """

    samples: np.ndarray
    view: str
    frame_index: int
    local_timestamp_ns: int
    calibrated_timestamp_ns: int | None = None

    def __post_init__(self) -> None:
        _freeze_array(self, "samples", self.samples, dtype=np.complex64, ndim=3)


@dataclass(frozen=True, eq=False)
class RangeDopplerMap:
    """Complex range-Doppler cells indexed (row, Doppler bin, rx).

    Row i holds range bin ``first_range_bin + i``: 0 for a full map, the
    gate's first bin for the band ``range_gate`` cuts out of one. The
    Doppler axis is FFT-shifted: bin chirps_per_frame / 2 is zero
    velocity and larger indices are receding targets. The bin widths
    are the config's ``range_resolution_m`` and ``velocity_resolution_mps``.
    """

    cells: np.ndarray
    view: str
    frame_index: int
    calibrated_timestamp_ns: int | None = None
    gate: str | None = None
    first_range_bin: int = 0

    def __post_init__(self) -> None:
        _freeze_array(self, "cells", self.cells, ndim=3)


# (name, dtype) of each per-point column of a PointCloud, in field order.
_CLOUD_COLUMNS = (
    ("positions_m", float),
    ("velocities_mps", float),
    ("energies", float),
    ("ranges_m", float),
    ("azimuths_rad", float),
    ("elevations_rad", float),
    ("view_codes", int),
    ("gate_codes", int),
    ("is_pad", bool),
)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Fixed-budget point set for one frame (single view or fused).

    One read-only array per quantity; row k of every column is point k.
    ``positions_m`` is (N, 3) in the head frame; velocities, ranges and
    angles stay sensor-relative. ``view_codes`` index ``VIEWS``,
    ``gate_codes`` index ``RadarConfig.gate_bounds_m`` and ``is_pad``
    marks rows that stand in for missing detections.
    """

    positions_m: np.ndarray
    velocities_mps: np.ndarray
    energies: np.ndarray
    ranges_m: np.ndarray
    azimuths_rad: np.ndarray
    elevations_rad: np.ndarray
    view_codes: np.ndarray
    gate_codes: np.ndarray
    is_pad: np.ndarray
    view: str | None
    frame_index: int
    timestamp_ns: int | None = None
    degraded: bool = False

    def __post_init__(self) -> None:
        positions = _freeze_array(self, "positions_m", self.positions_m, float, ndim=2)
        if positions.shape[1] != 3:
            raise ValueError(f"positions_m must be (N, 3), got shape {positions.shape}")
        for name, dtype in _CLOUD_COLUMNS[1:]:
            column = _freeze_array(self, name, getattr(self, name), dtype, ndim=1)
            if len(column) != len(positions):
                raise ValueError(
                    f"{name} holds {len(column)} rows, positions_m {len(positions)}"
                )
        views, gates = self.view_codes, self.gate_codes
        if np.any(views < 0) or np.any(views >= len(VIEWS)) or np.any(gates < 0):
            raise ValueError(
                "view codes must index VIEWS and gate codes be non-negative"
            )

    @classmethod
    def concat(cls, parts, **scalars) -> "PointCloud":
        """One cloud holding the rows of ``parts`` in order, with the
        scalar fields (view, frame_index, ...) given by ``scalars``."""
        columns = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name, _ in _CLOUD_COLUMNS
        }
        return cls(**columns, **scalars)

    def __len__(self) -> int:
        return len(self.is_pad)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        scalars = ("view", "frame_index", "timestamp_ns", "degraded")
        return all(getattr(self, n) == getattr(other, n) for n in scalars) and all(
            np.array_equal(getattr(self, n), getattr(other, n))
            for n, _ in _CLOUD_COLUMNS
        )

    @property
    def pad_count(self) -> int:
        return int(np.count_nonzero(self.is_pad))

    @property
    def timestamp_s(self) -> float | None:
        if self.timestamp_ns is None:
            return None
        return ns_to_seconds(self.timestamp_ns)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear position track: waypoints with linear
    interpolation between them, clamped outside the listed span."""

    times_s: tuple[float, ...]
    points_m: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_s)
        points = tuple(tuple(float(v) for v in p) for p in self.points_m)
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "points_m", points)
        if len(times) != len(points) or not times:
            raise ValueError("trajectory needs one position per time, at least one waypoint")
        if any(len(p) != 3 for p in points):
            raise ValueError("trajectory waypoints must be 3-vectors")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        flat = [v for p in points for v in p] + list(times)
        if not all(math.isfinite(v) for v in flat):
            raise ValueError("trajectory contains non-finite values")

    @classmethod
    def from_waypoints(cls, waypoints) -> "Trajectory":
        """Build from an iterable of (t, x, y, z) rows."""
        rows = sorted(waypoints, key=lambda r: r[0])
        return cls(
            times_s=tuple(r[0] for r in rows),
            points_m=tuple((r[1], r[2], r[3]) for r in rows),
        )

    def position_at(self, t_s) -> np.ndarray:
        """Position at one time, shape (3,), or at an array of N times,
        shape (N, 3).

        Each axis is one ``np.interp`` over all the times, which gives
        every time the same bits as a call of its own. A one-waypoint
        track returns its waypoint at every time.
        """
        tp = np.asarray(self.times_s)
        pts = np.asarray(self.points_m)
        return np.stack([np.interp(t_s, tp, pts[:, k]) for k in range(3)], axis=-1)


@dataclass(frozen=True)
class ClockModel:
    """Per-stream clock imperfection: constant offset plus white jitter."""

    offset_s: float = 0.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.offset_s):
            raise ValueError(f"clock offset must be finite, got {self.offset_s!r}")
        if not 0 <= self.jitter_s < math.inf:
            raise ValueError(
                f"clock jitter must be finite and non-negative, got {self.jitter_s!r}"
            )


@dataclass(frozen=True)
class Scatterer:
    trajectory: Trajectory
    reflectivity: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.reflectivity < math.inf:
            raise ValueError(
                "scatterer reflectivity must be finite and non-negative, "
                f"got {self.reflectivity!r}"
            )


@dataclass(frozen=True)
class ScatterScene:
    """Scene description: scatterer tracks plus per-stream clock models.

    ``noise_std`` is the standard deviation of complex white Gaussian
    noise added per sample; ``range_decay`` applies a 1/d^2 amplitude
    roll-off to each scatterer's tone.
    """

    scatterers: tuple[Scatterer, ...] = ()
    left_clock: ClockModel = ClockModel()
    right_clock: ClockModel = ClockModel()
    noise_std: float = 0.0
    range_decay: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(
                f"noise std must be finite and non-negative, got {self.noise_std!r}"
            )

    def clock_for(self, view: str) -> ClockModel:
        if view == VIEW_LEFT:
            return self.left_clock
        if view == VIEW_RIGHT:
            return self.right_clock
        raise ValueError(f"unknown view tag {view!r}")
