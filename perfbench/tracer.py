"""Spans around calls into mmvc's public functions, for the traced run.

``Tracer.install`` replaces each traced function, in every mmvc module
namespace that holds it, by a wrapper that records a span: name, start,
end, parent span and the id of the pair or frame it belongs to.
``uninstall`` puts the originals back, so untraced work runs the
unmodified code. Spans stay in memory until the run writes them out.

The wrapper also records a few counts at the same boundary (beam cells,
candidates, bytes moved), computed after the span has ended.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

NAMESPACES = (
    "mmvc.cli",
    "mmvc.spatial",
    "mmvc.rdmap",
    "mmvc.fusion",
    "mmvc.simulate",
    "mmvc.io_files",
)

# Fields of a span record (a list, to keep the wrapper cheap).
ID, NAME, START, END, PARENT, GROUP, UNIT, COUNTS = range(8)
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "group", "unit", "counts")


def _beamform(args, kwargs, grid):
    # Cells the sweep computes: rows the gate left non-zero, times every
    # Doppler bin and every (azimuth, elevation) beam pair.
    cells = args[0].cells
    live = int(np.count_nonzero(np.any(cells.reshape(cells.shape[0], -1) != 0, axis=1)))
    beams = grid.magnitudes.shape[2] * grid.magnitudes.shape[3]
    return {
        "beam_cells": live * cells.shape[1] * beams,
        "beam_grid_bytes": grid.magnitudes.nbytes,
    }


def _select(args, kwargs, result):
    selected, pad = result
    return {
        "candidates": len(args[0]),
        "real": len(selected) - pad if len(selected) else 0,
    }


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "spatial.beamform": _beamform,
    "spatial.detect_points": lambda a, k, c: {"candidates": len(c), "key": f"{c.view}.{c.gate}"},
    "spatial.select_by_velocity": _select,
    "spatial.extract_point_cloud": lambda a, k, cloud: {"pad": cloud.pad_count},
    "fusion.pair_views": lambda a, k, p: {
        "pairs": len(p.pairs),
        "dropped_left": p.dropped_left,
        "dropped_right": p.dropped_right,
    },
    "fusion.gate_windows": lambda a, k, ws: {
        "windows_total": len(ws),
        "windows_accepted": sum(1 for w in ws if w.accepted),
    },
    "io_files.read_capture": _file_bytes,
    "io_files.write_capture": _file_bytes,
    "io_files.write_clouds_csv": lambda a, k, r: {"rows": sum(len(c) for c in a[1])},
    "simulate.synthesize_frame": lambda a, k, f: {"scatterers": len(a[0].scatterers)},
}


class Tracer:
    def __init__(self, traced: dict):
        self.traced = traced  # layer (mmvc module) -> public function names
        self.spans: list = []
        self.unit = None  # the timed unit spans are recorded in
        self.group = None  # pair id set by a caller that pairs frames itself
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for layer, names in self.traced.items():
            home = importlib.import_module(f"mmvc.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for namespace in NAMESPACES:
                    module = importlib.import_module(namespace)
                    if getattr(module, name, None) is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            group = self.group
            if group is None and parent is not None:
                group = parent[GROUP]
            if group is None and args:
                group = getattr(args[0], "frame_index", None)
            span = [len(spans), name, 0, 0, parent[ID] if parent else None,
                    group, self.unit, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered = 0
        cursor = s[START]
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, cursor), min(b, s[END])
            if b > a:
                covered += b - a
                cursor = b
        out[s[ID]] = s[END] - s[START] - covered
    return out


def layer_metrics(spans, traced: dict, self_timed, units) -> dict:
    """Per-layer metrics from the spans of the traced units.

    ``p50_ms`` is the median call, ``total_ms`` and ``calls`` are the
    median per traced unit. A layer the workload never calls reads 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def per_unit(name, value):
        sums = dict.fromkeys(units, 0)
        for s in by_name.get(name, ()):
            sums[s[UNIT]] += value(s)
        return statistics.median(sums.values()) if sums else 0

    def median_of(values):
        values = list(values)
        return statistics.median(values) if values else 0

    def count(key):
        return lambda s: s[COUNTS][key]

    def ms(s):
        return (s[END] - s[START]) / 1e6

    m = {}
    for layer, names in traced.items():
        for name in names:
            key = f"{layer}.{name}"
            m[f"{key}.p50_ms"] = median_of(ms(s) for s in by_name.get(key, ()))
            m[f"{key}.total_ms"] = per_unit(key, ms)
            m[f"{key}.calls"] = per_unit(key, lambda s: 1)
    own = self_times(spans)
    for name in self_timed:
        m[f"{name}.self_ms"] = median_of(own[s[ID]] / 1e6 for s in by_name.get(name, ()))

    beams = by_name.get("spatial.beamform", ())
    m["spatial.beam_cells"] = median_of(s[COUNTS]["beam_cells"] for s in beams)
    m["spatial.beam_grid_bytes"] = median_of(s[COUNTS]["beam_grid_bytes"] for s in beams)
    detected = defaultdict(list)
    for s in by_name.get("spatial.detect_points", ()):
        detected[s[COUNTS]["key"]].append(s[COUNTS]["candidates"])
    for view in ("left", "right"):
        for gate in ("upper", "lower"):
            m[f"spatial.candidates.{view}.{gate}"] = median_of(detected[f"{view}.{gate}"])
    selected = by_name.get("spatial.select_by_velocity", ())
    found = sum(s[COUNTS]["candidates"] for s in selected)
    m["spatial.keep_ratio"] = sum(s[COUNTS]["real"] for s in selected) / found if found else 0
    m["spatial.pad_points"] = per_unit("spatial.extract_point_cloud", count("pad"))
    m["rdmap.frames"] = per_unit("rdmap.process_frame", lambda s: 1)
    for key in ("pairs", "dropped_left", "dropped_right"):
        m[f"fusion.{key}"] = per_unit("fusion.pair_views", count(key))
    for key in ("windows_accepted", "windows_total"):
        m[f"fusion.{key}"] = per_unit("fusion.gate_windows", count(key))
    for name in ("read_capture", "write_capture"):
        done = by_name.get(f"io_files.{name}", ())
        seconds = sum(s[END] - s[START] for s in done) / 1e9
        moved = sum(s[COUNTS]["bytes"] for s in done)
        m[f"io_files.{name}.mb_per_s"] = moved / 1e6 / seconds if seconds else 0
    m["io_files.write_clouds_csv.rows"] = per_unit("io_files.write_clouds_csv", count("rows"))
    m["simulate.scatterer_frames"] = per_unit("simulate.synthesize_frame", count("scatterers"))
    unit_spans = dict.fromkeys(units, 0)
    for s in spans:
        unit_spans[s[UNIT]] += 1
    m["trace.spans"] = statistics.median(unit_spans.values()) if units else 0
    return m
