"""Golden outputs: sha256 digests of what the command line writes for one
short seeded scene, compared against ``tests/golden.json``.

A change that moves one output bit fails here. A change that alters
outputs on purpose regenerates the file, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --update

FFT and transcendental bits can differ across numpy versions and SIMD
paths, so the file also records the numpy version and a digest of a
fixed-seed probe of ``np.fft.fft``, ``np.exp``, ``np.sin`` and
``np.abs``. Where either differs on the running host, the test skips
and names what differs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mmvc import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SCENE = HERE / "data" / "golden_scene.txt"
SEED = 7
OTHER_SEED = 104
DURATION_S = 2.0  # 20 pairs: two windows of 10
WINDOW = 10


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    return _sha256(path.read_bytes())


def _dir_digest(path: Path) -> str:
    """One digest over every file's name and contents, in name order."""
    lines = (f"{p.name} {_file_digest(p)}\n" for p in sorted(path.iterdir()))
    return _sha256("".join(lines).encode())


def numeric_probe() -> str:
    """Digest of fixed-seed FFT, exp, sin and abs results on frame-sized
    arrays: the numeric kernels the outputs depend on."""
    rng = np.random.default_rng(0)
    shape = (3, 128, 128)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    parts = (
        np.fft.fft(x, axis=2),
        np.fft.fft(x, axis=1),
        np.exp(1j * x.real),
        np.sin(x.imag),
        np.abs(x),
    )
    return _sha256(b"".join(p.tobytes() for p in parts))


def environment() -> dict:
    return {"numpy": np.__version__, "numeric_probe": numeric_probe()}


def _mmvc(*argv, code: int = 0) -> str:
    """Run one ``mmvc`` command in-process; return its stdout. The
    command must exit with ``code``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    assert rc == code, f"mmvc {argv[0]} exited {rc}, not {code}"
    return out.getvalue()


def golden_digests(work: Path) -> dict:
    """Simulate, process, export and verify under ``work``; digest each output."""
    sim, proc = work / "simulate", work / "process"
    left, right = sim / "left.mmvc", sim / "right.mmvc"
    scene = ("--scene", SCENE, "--duration", DURATION_S, "--seed", SEED)
    other_scene = ("--scene", SCENE, "--duration", DURATION_S, "--seed", OTHER_SEED)
    digests = {}

    _mmvc("simulate", *scene, "--out", sim)
    for name in ("left.mmvc", "right.mmvc", "truth.csv"):
        digests[f"simulate {name}"] = _file_digest(sim / name)
    # a second seed: other noise draws and clock jitter through the same scene
    other = work / f"simulate-seed-{OTHER_SEED}"
    _mmvc("simulate", *other_scene, "--out", other)
    for name in ("left.mmvc", "right.mmvc", "truth.csv"):
        digests[f"simulate --seed {OTHER_SEED} {name}"] = _file_digest(other / name)

    pair = ("--left", left, "--right", right, "--window", WINDOW)
    _mmvc("process", *pair, "--out", proc)
    for name in ("features.mmft", "clouds.csv"):
        digests[f"process {name}"] = _file_digest(proc / name)
    report = json.loads((proc / "report.json").read_text(encoding="utf-8"))
    del report["timing_ms"]
    digests["process report.json without timing_ms"] = _sha256(
        json.dumps(report, indent=2, sort_keys=True).encode()
    )

    out = work / "process-ply"
    _mmvc("process", *pair, "--out", out, "--format", "ply")
    digests["process --format ply"] = _dir_digest(out / "ply")
    # the stage branches the default run does not take
    for flags in (("--no-mti", "--no-compensation"), ("--mti-mode", "mean"), ("--no-clutter",)):
        out = work / ("process" + "".join(flags))
        _mmvc("process", *pair, "--out", out, *flags)
        for name in ("features.mmft", "clouds.csv"):
            digests[f"process {' '.join(flags)} {name}"] = _file_digest(out / name)

    for view, formats in (("left", ("csv", "ply", "tensor")), ("right", ("csv", "tensor"))):
        for fmt in formats:
            out = work / f"export-{view}-{fmt}"
            _mmvc("export", "--capture", sim / f"{view}.mmvc", "--format", fmt, "--out", out)
            digests[f"export {view} --format {fmt}"] = _dir_digest(out)

    # Off 0 degrees the weights steer off the beam lattice the angles are
    # read from: at 2 degrees recovery falls below the pass mark, at 9 it
    # fails outright, and both exit 1.
    for degrees, code in ((0, 0), (2, 1), (9, 1)):
        stdout = _mmvc("verify", *scene, "--corrupt-dbf-deg", degrees, code=code)
        digests[f"verify --corrupt-dbf-deg {degrees} stdout"] = _sha256(stdout.encode())
    return digests


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = golden["environment"]
    differs = [
        f"{key} {recorded.get(key)} recorded, {value} here"
        for key, value in environment().items()
        if recorded.get(key) != value
    ]
    if differs:
        pytest.skip("golden digests come from another numeric environment: " + "; ".join(differs))
    assert golden_digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as work:
        record = {"environment": environment(), "digests": golden_digests(Path(work))}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}")
