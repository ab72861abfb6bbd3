"""Scene-driven IF-signal simulator for the multi-view radar.

The signal model is stop-and-go FMCW: each scatterer contributes, per
chirp, a complex tone whose beat frequency encodes range

    f_if = (bandwidth / chirp_duration) * (2 * d / c)

and whose phase advances across chirps with the carrier term
4*pi*d / lambda, which is what the Doppler FFT picks up. The three
receive channels share the tone up to the inter-antenna phase
2*pi*(spacing / lambda)*sin(angle): channel 1 uses the azimuth angle,
channel 2 the elevation angle, channel 0 is the shared corner antenna.
The two baselines are treated as ideal orthogonal pairs.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .types import (
    C_LIGHT,
    ClockModel,
    FrameCube,
    RadarConfig,
    RadarPose,
    ScatterScene,
    Scatterer,
    Trajectory,
    VIEWS,
    _keep_frame_buffers_on_heap,
    seconds_to_ns,
)

# Entropy stream tags so per-frame sample noise and per-stream timestamp
# jitter never share a generator state.
_SAMPLE_STREAM = 0
_CLOCK_STREAM = 1


@dataclass(frozen=True)
class ScattererTruth:
    """Ground-truth observables of one scatterer from one sensor."""

    scatterer_index: int
    range_m: float
    radial_velocity_mps: float
    azimuth_rad: float
    elevation_rad: float
    amplitude: float
    in_fov: bool


class SceneFormatError(ValueError):
    """Raised for malformed scene description files."""


def _sensor_geometry(scatterer: Scatterer, pose: RadarPose, times_s) -> tuple:
    """Range and angles of a scatterer at the given times, sensor frame."""
    pts = scatterer.trajectory.position_at(np.atleast_1d(times_s))
    q = pose.head_to_sensor(pts)
    rng = np.linalg.norm(q, axis=-1)
    if np.any(rng < 1e-6):
        raise ValueError("scatterer passes through the sensor origin")
    az = np.arctan2(q[:, 0], q[:, 2])
    el = np.arcsin(np.clip(q[:, 1] / rng, -1.0, 1.0))
    return rng, az, el


def _scene_geometry(scene: ScatterScene, pose: RadarPose, times_s):
    """``(index, scatterer, range, azimuth, elevation)`` per scatterer.

    Raises ``SceneFormatError`` naming the scatterer and the view when a
    track passes through the sensor origin, where the angles are undefined.
    """
    for idx, sc in enumerate(scene.scatterers):
        try:
            rng, az, el = _sensor_geometry(sc, pose, times_s)
        except ValueError:
            raise SceneFormatError(
                f"scatterer {idx} passes through the sensor origin of the {pose.view} view"
            ) from None
        yield idx, sc, rng, az, el


def _amplitude(scene: ScatterScene, scatterer: Scatterer, rng_m) -> np.ndarray:
    amp = np.full_like(np.asarray(rng_m, dtype=float), scatterer.reflectivity)
    if scene.range_decay:
        amp = amp / np.asarray(rng_m) ** 2
    return amp


def scatterer_truth(
    scene: ScatterScene,
    pose: RadarPose,
    config: RadarConfig,
    time_s: float,
) -> tuple[ScattererTruth, ...]:
    """Ground truth for every scatterer as seen from ``pose`` at ``time_s``.

    Radial velocity is the time derivative of range, estimated by a
    central difference over one chirp period. ``in_fov`` is false when
    either angle leaves the +-max_steer_rad cone.
    """
    h = config.chirp_duration_s
    out = []
    for idx, sc, rng, az, el in _scene_geometry(scene, pose, [time_s - h, time_s, time_s + h]):
        v = (rng[2] - rng[0]) / (2.0 * h)
        amp = _amplitude(scene, sc, rng[1])
        in_fov = bool(
            abs(az[1]) <= config.max_steer_rad + 1e-12
            and abs(el[1]) <= config.max_steer_rad + 1e-12
        )
        out.append(
            ScattererTruth(
                scatterer_index=idx,
                range_m=float(rng[1]),
                radial_velocity_mps=float(v),
                azimuth_rad=float(az[1]),
                elevation_rad=float(el[1]),
                amplitude=float(amp),
                in_fov=in_fov,
            )
        )
    return tuple(out)


def synthesize_frame(
    scene: ScatterScene,
    pose: RadarPose,
    config: RadarConfig,
    frame_time_s: float,
    rng: np.random.Generator | None = None,
    frame_index: int = 0,
    local_timestamp_ns: int | None = None,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> FrameCube:
    """Synthesise one frame of IF samples for one sensor.

    Superposes each scatterer's tone (stop-and-go: geometry is frozen
    within a chirp, updated per chirp) and optional complex white
    Gaussian noise of total standard deviation ``scene.noise_std``.
    Synthesis is linear in the scene's scatterer list. The first call
    sets the C heap limits (``_keep_frame_buffers_on_heap``).

    ``out``, numpy's output-buffer idiom, is a writable complex64
    ``(rx, chirp, sample)`` array the samples are rounded into; the
    frame then holds a read-only view of it. ``scratch`` is a writable
    complex128 ``(rx + 2, chirp, sample)`` array for the working arrays,
    so a loop over frames that passes the same one allocates them once.
    The samples are the same with or without either.
    """
    _keep_frame_buffers_on_heap()
    rx, nc, ns_ = config.frame_shape
    lam = config.center_wavelength_m
    tau = np.arange(ns_) / config.sample_rate_hz
    chirp_times = frame_time_s + np.arange(nc) * config.chirp_duration_s
    ant_gain = 2.0 * np.pi * config.antenna_spacing_m / lam

    if scratch is None:
        scratch = np.empty((rx + 2, nc, ns_), dtype=np.complex128)
    # The cube, and one tone and one steered-tone buffer that serve every
    # scatterer. The tone phase lives in the steered tone's memory: each is
    # done with before the other is written.
    cube, tone, steered = scratch[:-2], scratch[-2], scratch[-1]
    phase = steered.reshape(-1).view(np.float64)[: nc * ns_].reshape(nc, ns_)
    cube.fill(0)
    for _, sc, rng_m, az, el in _scene_geometry(scene, pose, chirp_times):
        amp = _amplitude(scene, sc, rng_m)
        f_if = config.chirp_slope_hz_per_s * 2.0 * rng_m / C_LIGHT
        carrier = 4.0 * np.pi * rng_m / lam
        np.multiply(2.0 * np.pi * f_if[:, None], tau[None, :], out=phase)
        phase += carrier[:, None]
        # exp(1j * phase) * amp, part by part: 1j * phase is exactly
        # (+0, phase) for the non-negative phases here, and a real factor
        # scales each part as the complex product with amp + 0j does.
        tone.real = 0
        tone.imag = phase
        np.exp(tone, out=tone)
        tone.real *= amp[:, None]
        tone.imag *= amp[:, None]
        cube[0] += tone
        cube[1] += np.multiply(tone, np.exp(1j * ant_gain * np.sin(az))[:, None], out=steered)
        cube[2] += np.multiply(tone, np.exp(1j * ant_gain * np.sin(el))[:, None], out=steered)

    if scene.noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        scale = scene.noise_std / np.sqrt(2.0)
        # The real parts of every channel, then the imaginary parts: the
        # same normals, in the same order, as two whole-cube draws, each
        # channel's drawn into the phase buffer.
        noise = phase
        for part in (cube.real, cube.imag):
            for channel in part:
                rng.standard_normal(out=noise)
                noise *= scale
                channel += noise

    if local_timestamp_ns is None:
        local_timestamp_ns = seconds_to_ns(frame_time_s)
    if out is None:
        samples = cube.astype(np.complex64)
    else:
        np.copyto(out, cube, casting="same_kind")
        samples = out
    return FrameCube(
        samples=samples,
        view=pose.view,
        frame_index=frame_index,
        local_timestamp_ns=local_timestamp_ns,
    )


@dataclass(frozen=True)
class SimulatedSession:
    """Everything one simulation run produced, keyed by view tag."""

    frames: dict
    truth: dict
    truth_times_s: tuple[float, ...]
    # Per-view (reference_ns, local_ns) reading taken at session start;
    # this is the sample a clock-offset calibration works from.
    clock_samples: dict


def frame_count(duration_s: float, config: RadarConfig) -> int:
    """Frames a session of ``duration_s`` holds: the nearest whole number
    of frame periods."""
    return int(round(duration_s / config.frame_period_s))


def simulate_session(
    scene: ScatterScene,
    poses,
    config: RadarConfig,
    duration_s: float,
    seed: int = 0,
) -> SimulatedSession:
    """Simulate synchronized streams for every pose over ``duration_s``.

    Frames are spaced exactly ``frame_period_s`` apart in truth time.
    Each stream's local timestamps are the truth times perturbed by its
    clock model (constant offset plus white jitter); the clock sample
    recorded for calibration is taken jitter-free at session start. A
    local time past an int64 nanosecond count is a SceneFormatError.
    Identical (scene, config, seed) runs reproduce identical sessions.
    """
    poses = tuple(poses)
    n_frames = frame_count(duration_s, config)
    frame_starts = tuple(f * config.frame_period_s for f in range(n_frames))
    # Truth is sampled at the chirp-sequence midpoint: spectral peaks of
    # a moving scatterer track the frame's centre, not its first chirp.
    half_frame = 0.5 * (config.chirps_per_frame - 1) * config.chirp_duration_s
    truth_times = tuple(t + half_frame for t in frame_starts)

    rx, nc, ns_ = config.frame_shape

    def synthesize_view(pose: RadarPose, block: np.ndarray, scratch: np.ndarray) -> tuple:
        """One view's frames, truth and clock sample. Frame f's samples
        are ``block[f]``, and every frame works in ``scratch``."""
        clock: ClockModel = scene.clock_for(pose.view)
        code = VIEWS.index(pose.view)
        ts_rng = np.random.default_rng([seed, code, _CLOCK_STREAM])
        jitter = (
            ts_rng.standard_normal(n_frames) * clock.jitter_s
            if n_frames
            else np.zeros(0)
        )
        stream = []
        stream_truth = []
        for f, t in enumerate(frame_starts):
            frame_rng = np.random.default_rng([seed, code, _SAMPLE_STREAM, f])
            local_s = float(t + clock.offset_s + jitter[f])
            if not -(2**63) <= local_s * 1e9 < 2**63:  # the capture's int64 field
                raise SceneFormatError(
                    f"the {pose.view} clock puts frame {f} at {local_s:.6g} s, "
                    "past an int64 nanosecond timestamp"
                )
            local_ns = seconds_to_ns(local_s)
            stream.append(
                synthesize_frame(
                    scene,
                    pose,
                    config,
                    t,
                    rng=frame_rng,
                    frame_index=f,
                    local_timestamp_ns=local_ns,
                    out=block[f],
                    scratch=scratch,
                )
            )
            stream_truth.append(
                scatterer_truth(scene, pose, config, truth_times[f])
            )
        return tuple(stream), tuple(stream_truth), (0, seconds_to_ns(clock.offset_s))

    # The views share nothing until fusion pairs them, and each frame has
    # its own generator, so each view's frames are synthesised on a thread
    # of its own (numpy's exp and normal draws release the GIL) with the
    # same bits in any schedule. The heap limits are set before any thread
    # starts, so every thread allocates from the one heap they configure.
    # Plain threads, not an executor: with concurrent.futures imported on
    # the first call, every simulate benchmark run tried sat on the 68-70 MB
    # peak-RSS level. Each view's scratch and sample block are allocated
    # here, before any thread starts, so the threads allocate only small
    # arrays.
    _keep_frame_buffers_on_heap()
    scratches = [np.empty((rx + 2, nc, ns_), dtype=np.complex128) for _ in poses]
    blocks = [np.empty((n_frames, rx, nc, ns_), dtype=np.complex64) for _ in poses]
    outcomes: list = [None] * len(poses)

    def run_view(k: int) -> None:
        try:
            outcomes[k] = synthesize_view(poses[k], blocks[k], scratches[k])
        except Exception as exc:  # re-raised in pose order below
            outcomes[k] = exc

    threads = [threading.Thread(target=run_view, args=(k,)) for k in range(len(poses))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frames: dict = {}
    truth: dict = {}
    clock_samples: dict = {}
    for pose, outcome in zip(poses, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        stream, stream_truth, clock_sample = outcome
        frames[pose.view] = stream
        truth[pose.view] = stream_truth
        clock_samples[pose.view] = clock_sample

    return SimulatedSession(
        frames=frames,
        truth=truth,
        truth_times_s=truth_times,
        clock_samples=clock_samples,
    )


# ---------------------------------------------------------------------------
# scene description files
# ---------------------------------------------------------------------------
#
# Plain text, one directive per line; '#' starts a comment. Example:
#
#     scatterer reflectivity=1.0
#     waypoint t=0.0 x=0.0 y=-0.8 z=0.1
#     waypoint t=2.0 x=0.4 y=-0.8 z=0.1
#     clock left offset_s=0.050 jitter_s=0.003
#     noise std=0.002
#     decay off
#
# Waypoints attach to the most recent scatterer line and interpolate
# linearly between their times.


def _parse_kv(parts, lineno: str, allowed: set) -> dict:
    vals = {}
    for part in parts:
        if "=" not in part:
            raise SceneFormatError(f"{lineno}: expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        if key not in allowed:
            raise SceneFormatError(f"{lineno}: unknown key {key!r}")
        try:
            vals[key] = float(raw)
        except ValueError:
            raise SceneFormatError(f"{lineno}: bad number for {key!r}: {raw!r}") from None
    return vals


def _located(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a value object's ValueError raised as a
    SceneFormatError at ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SceneFormatError(f"{where}: {exc}") from None


def parse_scene(text: str, name: str = "<scene>") -> ScatterScene:
    """Parse a scene description; errors carry file:line positions."""
    pending: list[dict] = []  # per scatterer: {"reflectivity", "rows", "where"}
    clocks = {"left": ClockModel(), "right": ClockModel()}
    noise_std = 0.0
    noise_where = name
    range_decay = True

    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{name}:{num}"
        parts = line.split()
        directive, args = parts[0], parts[1:]

        if directive == "scatterer":
            vals = _parse_kv(args, where, {"reflectivity"})
            pending.append(
                {"reflectivity": vals.get("reflectivity", 1.0), "rows": [], "where": where}
            )
        elif directive == "waypoint":
            if not pending:
                raise SceneFormatError(f"{where}: waypoint before any scatterer")
            vals = _parse_kv(args, where, {"t", "x", "y", "z"})
            missing = {"t", "x", "y", "z"} - set(vals)
            if missing:
                raise SceneFormatError(
                    f"{where}: waypoint missing {', '.join(sorted(missing))}"
                )
            pending[-1]["rows"].append((vals["t"], vals["x"], vals["y"], vals["z"]))
        elif directive == "clock":
            if not args or args[0] not in clocks:
                raise SceneFormatError(f"{where}: clock needs a view tag (left | right)")
            vals = _parse_kv(args[1:], where, {"offset_s", "jitter_s"})
            clocks[args[0]] = _located(
                where,
                ClockModel,
                offset_s=vals.get("offset_s", 0.0),
                jitter_s=vals.get("jitter_s", 0.0),
            )
        elif directive == "noise":
            vals = _parse_kv(args, where, {"std"})
            noise_std, noise_where = vals.get("std", 0.0), where
        elif directive == "decay":
            if args not in (["on"], ["off"]):
                raise SceneFormatError(f"{where}: decay must be 'on' or 'off'")
            range_decay = args == ["on"]
        else:
            raise SceneFormatError(f"{where}: unknown directive {directive!r}")

    scatterers = []
    for entry in pending:
        where = entry["where"]
        if not entry["rows"]:
            raise SceneFormatError(f"{where}: scatterer has no waypoints")
        traj = _located(where, Trajectory.from_waypoints, entry["rows"])
        scatterers.append(_located(where, Scatterer, traj, entry["reflectivity"]))

    return _located(
        noise_where,
        ScatterScene,
        scatterers=tuple(scatterers),
        left_clock=clocks["left"],
        right_clock=clocks["right"],
        noise_std=noise_std,
        range_decay=range_decay,
    )


def load_scene(path) -> ScatterScene:
    """Read and parse a scene description file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), name=str(path))
