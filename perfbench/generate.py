"""Build one workload's inputs from its seed, in a process of its own.

    python3 perfbench/generate.py --workload process --seed 1 --out DIR

Runs `mmvc simulate` on the benchmark's scene for the workload's
duration, then writes DIR/manifest.json: the seed, the frame count and
local timestamps of each view as read back from the captures, and the
sha256 of every generated file. The measured process uses only these
files; the manifest is also the reference the simulate workload's
outputs are checked against.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import spec


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from mmvc import cli
    from mmvc.io_files import read_capture

    out = Path(args.out)
    duration = spec.DURATION_S[args.workload]
    rc = cli.main([
        "simulate", "--scene", str(spec.SCENE), "--duration", str(duration),
        "--seed", str(args.seed), "--out", str(out),
    ])
    if rc != 0:
        print(f"generate: mmvc simulate exited {rc}", file=sys.stderr)
        return 1

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "duration_s": duration,
        "scene_sha256": sha256(spec.SCENE),
        "frames": {},
        "timestamps_ns": {},
        "sha256": {},
    }
    for view in ("left", "right"):
        capture = read_capture(out / f"{view}.mmvc")
        manifest["frames"][view] = len(capture.frames)
        manifest["timestamps_ns"][view] = [f.local_timestamp_ns for f in capture.frames]
    for name in ("left.mmvc", "right.mmvc", "truth.csv"):
        manifest["sha256"][name] = sha256(out / name)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
