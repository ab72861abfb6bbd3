"""Small-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one short `mmvc simulate` + `mmvc process` (10 pairs), checks that
every gate passes the good outputs and fires on a broken copy of each,
that a span's self time never exceeds its duration, that the metric
names match BENCHMARK.json, and that run.py refuses a directory with no
mmvc source. Takes a few seconds; writes only under perfbench/.work/.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import spec

sys.path.insert(0, str(spec.SRC))

import mmvc  # noqa: E402
from mmvc import cli, io_files  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CONFIG = mmvc.validate_config(mmvc.RadarConfig())
WARMUP = CONFIG.mti_history
PAIRS = 10


class Outputs(unittest.TestCase):
    """Gates against real outputs of a 10-pair run, then broken copies."""

    @classmethod
    def setUpClass(cls):
        spec.WORK.mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=spec.WORK))
        cap, out = cls.tmp / "cap", cls.tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = (
                cli.main(["simulate", "--scene", str(spec.SCENE), "--duration", "1.0",
                          "--seed", "5", "--out", str(cap)]),
                cli.main(["process", "--left", str(cap / "left.mmvc"),
                          "--right", str(cap / "right.mmvc"), "--out", str(out)]),
            )
        if rcs != (0, 0):
            raise RuntimeError(f"mmvc simulate/process exited {rcs}")
        cls.cap, cls.out = cap, out
        cls.frames = checks.read_clouds_csv(out / "clouds.csv")
        cls.truth = checks.read_truth_csv(cap / "truth.csv")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def copy_frames(self):
        return {f: list(rows) for f, rows in self.frames.items()}

    # ---- tensor

    def test_tensor_passes_then_fires_on_truncation_and_shape(self):
        path = self.out / "features.mmft"
        tensor = checks.read_mmft(path)
        self.assertEqual(checks.check_tensor(tensor, (1, 10, 256, 8)), [])
        truncated = self.tmp / "truncated.mmft"
        truncated.write_bytes(path.read_bytes()[:-4])
        with self.assertRaises(checks.GateError):
            checks.read_mmft(truncated)
        self.assertTrue(checks.check_tensor(tensor[:, :, :255], (1, 10, 256, 8)))
        self.assertTrue(checks.check_tensor(tensor, (2, 10, 256, 8)))

    def test_tensor_fires_on_non_finite(self):
        tensor = checks.read_mmft(self.out / "features.mmft").copy()
        tensor[0, 3, 7, 2] = np.nan
        self.assertTrue(checks.check_tensor(tensor, (1, 10, 256, 8)))

    # ---- report

    def test_report_fires_on_pairing_rate_and_windows(self):
        report = json.loads((self.out / "report.json").read_text())
        self.assertEqual(checks.check_report(report, PAIRS, 10), [])
        self.assertTrue(checks.check_report(dict(report, pairing_rate=0.95), PAIRS, 10))
        self.assertTrue(checks.check_report(dict(report, windows_accepted=0), PAIRS, 10))
        self.assertTrue(checks.check_report(report, PAIRS + 1, 10))

    # ---- clouds

    def test_clouds_pass(self):
        self.assertEqual(checks.check_clouds(self.frames, PAIRS, 256, WARMUP), set())

    def test_clouds_fire_on_wrong_point_count(self):
        frames = self.copy_frames()
        frames[6] = frames[6][:-1]
        self.assertEqual(checks.check_clouds(frames, PAIRS, 256, WARMUP), {6})

    def test_clouds_fire_on_missing_frame_and_non_finite(self):
        frames = self.copy_frames()
        del frames[2]
        row = frames[7][0]
        frames[7][0] = row[:3] + (float("inf"),) + row[4:]
        self.assertEqual(checks.check_clouds(frames, PAIRS, 256, WARMUP), {2, 7})

    def test_clouds_fire_on_degraded_frame_after_warmup(self):
        frames = self.copy_frames()
        frames[8] = [r if r[0] == "left" else r[:2] + (0.0,) * 8 for r in frames[8]]
        self.assertEqual(checks.check_clouds(frames, PAIRS, 256, WARMUP), {8})
        # the MTI seed frame is all sentinels on both views and is allowed
        self.assertTrue(all(r[6] == 0.0 for r in self.frames[0]))

    # ---- recovery

    def test_recovery_passes_then_fires_on_moved_point(self):
        recovered, evaluated = checks.recovery(self.frames, self.truth, CONFIG, WARMUP)
        self.assertEqual((recovered, evaluated), (PAIRS - WARMUP, PAIRS - WARMUP))
        frames = self.copy_frames()
        for f in range(WARMUP, PAIRS):
            # every point two range bins further out than detected
            frames[f] = [r[:7] + (r[7] + 2 * CONFIG.range_resolution_m,) + r[8:]
                         for r in frames[f]]
        self.assertEqual(checks.recovery(frames, self.truth, CONFIG, WARMUP)[0], 0)

    # ---- stream rows

    def test_pair_rows_fire(self):
        rows = np.zeros((256, 8), dtype=np.float32)
        self.assertEqual(checks.check_pair_rows(rows, False, 256, 8), [])
        self.assertTrue(checks.check_pair_rows(rows[:255], False, 256, 8))
        self.assertTrue(checks.check_pair_rows(rows, True, 256, 8))
        rows[3, 3] = np.nan
        self.assertTrue(checks.check_pair_rows(rows, False, 256, 8))

    def test_replay_fires_on_one_ulp_and_on_length(self):
        a = [np.arange(16, dtype=np.float32).reshape(2, 8) for _ in range(3)]
        b = [x.copy() for x in a]
        self.assertEqual(checks.replay_mismatches(a, b), [])
        b[1][0, 5] = np.nextafter(b[1][0, 5], np.float32(100))
        self.assertEqual(checks.replay_mismatches(a, b), [1])
        self.assertEqual(checks.replay_mismatches(a, b[:2]), [1, 2])
        self.assertEqual(checks.replay_mismatches(a, [x.astype(np.float64) for x in a]),
                         [0, 1, 2])

    # ---- simulate read-back

    def test_capture_passes_then_fires_on_timestamps_and_count(self):
        capture = io_files.read_capture(self.cap / "left.mmvc")
        stamps = [f.local_timestamp_ns for f in capture.frames]
        manifest = {"timestamps_ns": {"left": stamps}}
        self.assertEqual(checks.check_capture(capture, "left", manifest), set())
        shifted = {"timestamps_ns": {"left": stamps[:4] + [stamps[4] + 1] + stamps[5:]}}
        self.assertEqual(checks.check_capture(capture, "left", shifted), {4})
        short = dataclasses.replace(capture, frames=capture.frames[:-1])
        self.assertEqual(checks.check_capture(short, "left", manifest), set(range(PAIRS)))
        self.assertEqual(checks.check_capture(capture, "right", {"timestamps_ns":
                                                                 {"right": stamps}}),
                         set(range(PAIRS)))


class Spans(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [
            [0, "a", 0, 100, None, None, 1, None],
            [1, "b", 10, 40, 0, None, 1, None],
            [2, "c", 30, 60, 0, None, 1, None],  # overlaps b: union is 10..60
            [3, "d", 90, 130, 0, None, 1, None],  # runs past its parent's end
            [4, "e", 15, 20, 1, None, 1, None],
        ]
        own = tracer.self_times(spans)
        self.assertEqual(own, {0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 40, 4: 5})

    def test_traced_pair_spans(self):
        ctx = worker.Context(
            workload="stream", inputs=Path("."), manifest={}, config=CONFIG,
            weights=mmvc.dbf_weights(CONFIG), poses=mmvc.default_pose_pair(),
        )
        session = mmvc.simulate_session(mmvc.load_scene(spec.SCENE), ctx.poses, CONFIG,
                                        duration_s=0.3, seed=5)
        states = worker.fresh_states()
        t = tracer.Tracer(spec.TRACED)
        t.install()
        try:
            for k in range(3):
                t.unit, t.group = k, k
                worker.pair_step(ctx, session.frames["left"][k],
                                 session.frames["right"][k], states)
        finally:
            t.uninstall()
        # uninstall put the originals back in every namespace
        self.assertFalse(hasattr(mmvc.spatial.beamform, "__wrapped__"))
        self.assertFalse(hasattr(cli.extract_point_cloud, "__wrapped__"))
        own = tracer.self_times(t.spans)
        for span in t.spans:
            self.assertGreaterEqual(own[span[tracer.ID]], 0)
            self.assertLessEqual(own[span[tracer.ID]], span[tracer.END] - span[tracer.START])
            self.assertEqual(span[tracer.GROUP], span[tracer.UNIT])
        names = {s[tracer.NAME] for s in t.spans}
        self.assertIn("spatial.project_to_cartesian", names)
        self.assertIn("rdmap.mti_filter", names)
        metrics = tracer.layer_metrics(t.spans, spec.TRACED, spec.SELF_TIMED, [0, 1, 2])
        self.assertEqual(metrics["rdmap.process_frame.calls"], 2)
        self.assertEqual(metrics["spatial.beamform.calls"], 4)
        self.assertEqual(metrics["cli.main.calls"], 0)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        bench = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, spec.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         spec.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(spec.WORKLOADS))

    def test_refuses_a_directory_without_mmvc(self):
        spec.WORK.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=spec.WORK))
        try:
            shutil.copy(spec.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(spec.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "process", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
