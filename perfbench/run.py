"""mmvc benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload process|stream|simulate \\
        --seed N --seconds S --trace 0|1

1. generate.py builds the workload's inputs from the seed, in its own
   process.
2. Untraced runs time set-up in SETUP_PROBES fresh interpreters that
   stop after warm-up.
3. worker.py, one more fresh interpreter with one calling thread, sets
   up (its set-up time is one more sample), measures for S seconds and
   checks every output.

The last line of standard output is one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per-layer
with --trace 1). The line before it holds the details: machine facts,
sample counts, set-up samples, output digests, recovery and problems.
Exits non-zero, printing no result, when the checkout holds no mmvc
source or the benchmark itself breaks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import spec

TIME_LIMIT_S = 170  # every run, including set-up, must end within 180 s


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(spec.SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return remaining


def start_and_wait_ready(argv, env, deadline: Deadline):
    """Start a fresh interpreter; return it and the seconds until it
    printed "ready" (set-up and warm-up done)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=spec.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=deadline.left())
            raise RuntimeError(f"{argv[1]} exited {proc.returncode} before set-up finished")
        return proc, ready_s
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def finish(proc, deadline: Deadline) -> None:
    try:
        proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (spec.SRC / "mmvc" / "__init__.py").is_file():
        print(f"run: no mmvc source under {spec.SRC}", file=sys.stderr)
        return 2

    deadline = Deadline(TIME_LIMIT_S)
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    py = sys.executable
    work = spec.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        inputs.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [py, str(spec.HERE / "generate.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            env=env, cwd=spec.ROOT, check=True, timeout=deadline.left(),
            stdout=subprocess.DEVNULL,
        )
        worker = [py, str(spec.HERE / "worker.py"), "--workload", args.workload,
                  "--inputs", str(inputs)]
        setup_samples = []
        if not args.trace:
            for _ in range(spec.SETUP_PROBES):
                probe, ready_s = start_and_wait_ready(worker + ["--setup-only"], env, deadline)
                finish(probe, deadline)
                setup_samples.append(ready_s)
        result_path = work / "result.json"
        proc, ready_s = start_and_wait_ready(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", str(result_path)],
            env, deadline,
        )
        finish(proc, deadline)
        setup_samples.append(ready_s)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, RuntimeError, TimeoutError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = spec.per_layer_units()
        metrics = {name: result["metrics"][name] for name in units}
    else:
        units = spec.END_TO_END
        metrics = dict(result["metrics"], setup_s=statistics.median(setup_samples))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": threads,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": threads,
        },
        "samples": dict(result["samples"], setup_s=len(setup_samples)),
        "setup_samples_s": setup_samples,
        "digests": result["digests"],
        "recovery": result["recovery"],
        "failed_ratio": result["failed"] / max(result["attempted"], 1),
        "problems": result["problems"],
    }
    if "spans_file" in result:
        details["spans_file"] = result["spans_file"]
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
