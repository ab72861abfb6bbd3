"""The measured process: set-up, one workload's timed loop and its gates.

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S \\
        --trace 0|1 --result FILE [--setup-only]

run.py starts it in a fresh interpreter with PYTHONPATH at the
checkout's src/ and the BLAS thread cap in the environment, and times
it from start until it prints "ready" after set-up: import mmvc,
validate_config, dbf_weights and the MTI seed pair (or, for simulate,
the first frame of each view). --setup-only exits there.

Untraced, the worker times the workload's unit of work for S seconds
and writes the end-to-end numbers. Traced, it alternates untraced and
traced units, writes the spans to .work/spans/ and reports per-layer
numbers plus the tracing overhead. Every unit is checked by the gates
in checks.py, outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spec

import mmvc
from mmvc import cli, fusion, io_files, rdmap, simulate, spatial

VIEWS = ("left", "right")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Context:
    workload: str
    inputs: Path
    manifest: dict
    config: object
    weights: np.ndarray
    poses: tuple
    streams: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: tuple | None = None
    truth: dict = field(default_factory=dict)
    recovery: tuple | None = None

    @property
    def pairs(self) -> int:
        return self.manifest["frames"]["left"]

    @property
    def warmup(self) -> int:
        return self.config.mti_history

    def tally(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def pair_step(ctx: Context, left, right, states: dict):
    """One pair through the per-view chain, then fusion into feature rows.

    Functions are looked up on their modules at call time, so the traced
    run's wrappers see these calls.
    """
    clouds = []
    for frame in (left, right):
        pose = next(p for p in ctx.poses if p.view == frame.view)
        rd, states[frame.view] = rdmap.process_frame(frame, states[frame.view], ctx.config)
        rd = spatial.energy_compensation(rd)
        clouds.append(spatial.extract_point_cloud(rd, pose, ctx.config, weights=ctx.weights))
    fused = fusion.merge_views(clouds[0], clouds[1], ctx.poses)
    return fused, fusion.cloud_feature_rows(fused)


def fresh_states() -> dict:
    return {view: rdmap.MtiState() for view in VIEWS}


def setup(workload: str, inputs: Path) -> Context:
    config = mmvc.validate_config(mmvc.RadarConfig())
    ctx = Context(
        workload=workload,
        inputs=inputs,
        manifest=json.loads((inputs / "manifest.json").read_text(encoding="utf-8")),
        config=config,
        weights=spatial.dbf_weights(config),
        poses=mmvc.default_pose_pair(),
    )
    if workload == "simulate":
        scene = simulate.load_scene(spec.SCENE)
        for pose in ctx.poses:
            simulate.synthesize_frame(scene, pose, config, 0.0, rng=np.random.default_rng(0))
        return ctx
    for view in VIEWS:
        capture = io_files.read_capture(inputs / f"{view}.mmvc")
        offset = fusion.offset_from_clock_sample(capture.clock_sample, view)
        ctx.streams[view] = fusion.calibrate_timestamps(capture.frames, offset)
    ctx.states = fresh_states()
    pair_step(ctx, ctx.streams["left"][0], ctx.streams["right"][0], ctx.states)
    if workload == "process":
        ctx.streams = {}  # `mmvc process` reads the captures itself
    return ctx


# --------------------------------------------------------------------------
# units of work. A batch unit is one in-process `mmvc` command: its run
# returns (wall seconds, exit code) and its gate, called afterwards and
# outside any trace, records the verdict on the context.


def run_cli(argv, out: Path, outputs) -> tuple:
    for name in outputs:
        (out / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed unit, not a failed benchmark
        rc = repr(exc)
    return time.perf_counter() - t0, rc


def process_run(ctx: Context) -> tuple:
    argv = [
        "process",
        "--left", str(ctx.inputs / "left.mmvc"),
        "--right", str(ctx.inputs / "right.mmvc"),
        "--out", str(ctx.inputs / "out"),
        "--window", str(spec.WINDOW),
    ]
    return run_cli(argv, ctx.inputs / "out", ("clouds.csv", "features.mmft", "report.json"))


def process_gate(ctx: Context, rc) -> None:
    """A fault in the tensor, the report, the recovery rate or the
    digests fails every pair; a wrong fused frame fails its own pair."""
    out, pairs = ctx.inputs / "out", ctx.pairs
    if rc != 0:
        ctx.tally(pairs, pairs, [f"mmvc process returned {rc}"])
        return
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        tensor = checks.read_mmft(out / "features.mmft")
        frames = checks.read_clouds_csv(out / "clouds.csv")
    except (OSError, ValueError) as exc:
        ctx.tally(pairs, pairs, [f"unreadable output: {exc}"])
        return
    shape = (pairs // spec.WINDOW, spec.WINDOW, spec.POINTS_PER_PAIR, spec.FEATURES)
    whole = checks.check_report(report, pairs, spec.WINDOW) + checks.check_tensor(tensor, shape)
    recovered, evaluated = checks.recovery(frames, ctx.truth, ctx.config, ctx.warmup)
    ctx.recovery = (recovered, evaluated)
    if not evaluated or recovered / evaluated < spec.RECOVERY_FLOOR:
        whole.append(f"recovery {recovered}/{evaluated} below {spec.RECOVERY_FLOOR}")
    digests = (sha256(out / "features.mmft"), sha256(out / "clouds.csv"))
    if ctx.digests is None:
        ctx.digests = digests
    elif digests != ctx.digests:
        whole.append("outputs differ from the first run of this seed")
    bad = checks.check_clouds(frames, pairs, spec.POINTS_PER_PAIR, ctx.warmup)
    problems = whole + [f"fused frame {f} wrong (points, values or degraded)" for f in sorted(bad)]
    ctx.tally(pairs, pairs if whole else len(bad), problems)


def simulate_run(ctx: Context) -> tuple:
    argv = [
        "simulate",
        "--scene", str(spec.SCENE),
        "--duration", str(ctx.manifest["duration_s"]),
        "--seed", str(ctx.manifest["seed"]),
        "--out", str(ctx.inputs / "sim"),
    ]
    return run_cli(argv, ctx.inputs / "sim", ctx.manifest["sha256"])


def simulate_gate(ctx: Context, rc) -> None:
    """Each written capture must read back with the generator's frame
    count and timestamps, and every file must match its digest."""
    out, frames = ctx.inputs / "sim", 2 * ctx.pairs
    if rc != 0:
        ctx.tally(frames, frames, [f"mmvc simulate returned {rc}"])
        return
    failed, problems = 0, []
    for view in VIEWS:
        try:
            capture = io_files.read_capture(out / f"{view}.mmvc")
            bad = checks.check_capture(capture, view, ctx.manifest)
        except (OSError, ValueError) as exc:
            bad, problems = set(range(ctx.pairs)), problems + [f"{view}: {exc}"]
        failed += len(bad)
        problems += [f"{view} frame {k} does not read back as generated" for k in sorted(bad)]
    for name, want in ctx.manifest["sha256"].items():
        if sha256(out / name) != want:
            failed, problems = frames, problems + [f"{name} differs from the generator's"]
    ctx.tally(frames, min(failed, frames), problems)


BATCH = {"process": (process_run, process_gate), "simulate": (simulate_run, simulate_gate)}


def stream_pair(ctx: Context, k: int) -> float | None:
    """Pair k of the closed loop (wrapping over the frames in memory)."""
    left, right = ctx.streams["left"], ctx.streams["right"]
    i = k % len(left)
    t0 = time.perf_counter()
    try:
        fused, rows = pair_step(ctx, left[i], right[i], ctx.states)
    except Exception as exc:  # a crash is a failed pair, not a failed benchmark
        ctx.tally(1, 1, [f"pair {k}: {exc!r}"])
        return None
    dt = time.perf_counter() - t0
    problems = checks.check_pair_rows(rows, fused.degraded and k >= ctx.warmup,
                                      spec.POINTS_PER_PAIR, spec.FEATURES)
    ctx.tally(1, 1 if problems else 0, [f"pair {k}: {p}" for p in problems])
    return dt


def stream_replay_gate(ctx: Context) -> None:
    """Replayed rows must equal run_pipeline's rows for the same pairs."""
    n = spec.STREAM_CHECK_PAIRS
    left, right = ctx.streams["left"][:n], ctx.streams["right"][:n]
    states = fresh_states()
    replay = [pair_step(ctx, lf, rf, states)[1] for lf, rf in zip(left, right)]
    result = cli.run_pipeline(left, right, ctx.config, ctx.poses, window_len=spec.WINDOW)
    reference = [fusion.cloud_feature_rows(c) for c in result.fused_clouds]
    bad = checks.replay_mismatches(replay, reference)
    problems = [f"replayed pair {k} differs from run_pipeline" for k in bad]
    paired = [(lf.frame_index, rf.frame_index) for lf, rf in result.pairing.pairs]
    if paired != [(k, k) for k in range(n)]:
        problems.append(f"run_pipeline paired {paired}, not frame k with frame k")
        bad = range(n)
    ctx.tally(n, len(bad), problems)


# --------------------------------------------------------------------------
# timed runs


def run_untraced(ctx: Context, seconds: float) -> dict:
    if ctx.workload == "stream":
        for k in range(1, ctx.warmup):  # the MTI background is still filling
            stream_pair(ctx, k)
        samples = []
        k = ctx.warmup
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and len(samples) >= spec.STREAM_MIN_SAMPLES:
                break
            if elapsed >= 150:  # stay inside the per-run time limit
                ctx.problems.append(f"only {len(samples)} samples in 150 s")
                break
            dt = stream_pair(ctx, k)
            if dt is not None:
                samples.append(dt * 1e3)
            k += 1
        pairs, timed_s = len(samples), sum(samples) / 1e3
    else:
        run, gate = BATCH[ctx.workload]
        walls = []
        t_start = time.perf_counter()
        while not walls or time.perf_counter() - t_start < seconds:
            wall, rc = run(ctx)
            gate(ctx, rc)
            walls.append(wall)
        # A batch command has no per-pair clock: each command's time per
        # pair is one sample.
        samples = [1e3 * w / ctx.pairs for w in walls]
        pairs, timed_s = len(walls) * ctx.pairs, sum(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if ctx.workload == "stream":
        stream_replay_gate(ctx)
    return {
        "metrics": {
            "pairs_per_s": pairs / timed_s if timed_s else 0.0,
            "pair_latency_p50_ms": statistics.median(samples) if samples else 0.0,
            "pair_latency_p95_ms": percentile(samples, 95) if samples else 0.0,
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {
            "pair_latency": len(samples),
            "pairs_per_s": pairs,
        },
    }


def run_traced(ctx: Context, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced units; per-layer numbers come from
    the traced ones, overhead from the difference of their medians."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer(spec.TRACED)
    if ctx.workload == "stream":
        for k in range(1, ctx.warmup):
            stream_pair(ctx, k)
        pair_ids = itertools.count(ctx.warmup)

        def timed(traced):
            for _ in range(spec.STREAM_TRACE_BLOCK):
                k = next(pair_ids)
                tracer.group = k if traced else None
                stream_pair(ctx, k)
            tracer.group = None

        def check(outcome):
            pass  # stream_pair checks each pair itself
    else:
        run, gate = BATCH[ctx.workload]

        def timed(traced):
            return run(ctx)[1]

        def check(rc):
            gate(ctx, rc)

    walls = {False: [], True: []}
    t_start = time.perf_counter()
    n = 0
    while n < 2 or time.perf_counter() - t_start < seconds:
        traced = n % 2 == 1
        if traced:
            tracer.unit = n
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = timed(traced)
        finally:
            walls[traced].append(time.perf_counter() - t0)
            tracer.uninstall()
        check(outcome)
        n += 1
    if ctx.workload == "stream":
        stream_replay_gate(ctx)

    units = list(range(1, n, 2))
    metrics = layer_metrics(tracer.spans, spec.TRACED, spec.SELF_TIMED, units)
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(walls[True]) - statistics.median(walls[False])
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "samples": {"traced_units": len(walls[True]), "untraced_units": len(walls[False])},
        "spans_file": str(spans_path.relative_to(spec.ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(mmvc.__file__).resolve().parent != spec.SRC / "mmvc":
        print(f"worker: imported mmvc from {mmvc.__file__}, not {spec.SRC}", file=sys.stderr)
        return 2
    inputs = Path(args.inputs)
    ctx = setup(args.workload, inputs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.workload == "process":
        ctx.truth = checks.read_truth_csv(inputs / "truth.csv")
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if args.trace:
            spans = spec.WORK / "spans" / f"{args.workload}.jsonl"  # the latest run's
            result = run_traced(ctx, args.seconds, spans)
        else:
            result = run_untraced(ctx, args.seconds)
    result.update(
        attempted=ctx.attempted,
        failed=ctx.failed,
        problems=ctx.problems[:20],
        digests=ctx.digests,
        recovery=ctx.recovery,
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
