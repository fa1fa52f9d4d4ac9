"""Per-layer tracing: wrap coopmot's layer functions from outside the package.

Each wrapper replaces a module attribute, so every caller that reaches the
function through its module (``geometry.iou_matrix(...)``) is caught. A span
``[name, start, end, parent, op, count]`` is kept in memory per call; spans
are aggregated into per-layer metrics and written out at the end of a run.
``restore()`` puts every original function back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

import numpy as np

from coopmot import assign, cli, geometry, graphlap, io, kalman, metrics, sim, tracker

NAME, START, END, PARENT, OP, COUNT = range(6)


def _frames_rows(frames):
    return sum(len(f) for f in frames)


def _bundle_dets(bundles):
    return sum(len(d) for b in bundles for d in b.detections_by_agent.values())


def _refine_nodes(args, result):
    first = result[0] if isinstance(result, tuple) else result
    return first.node_map.size


def _associate_match(args, result):
    rows, cols = args[0], args[1]
    return (result.num_matched, min(len(rows), len(cols)))


# (module, function, span name, count(args, result) or None)
TIMED = [
    (geometry, "iou_matrix", "geometry.iou_matrix",
     lambda a, r: (r.size, int(np.count_nonzero(r)))),
    (assign, "associate", "assign.associate", _associate_match),
    (assign, "hungarian_min_cost", "assign.hungarian_min_cost",
     lambda a, r: int(np.size(a[0]))),
    (graphlap, "refine", "graphlap.refine", _refine_nodes),
    (kalman, "predict", "kalman.predict", None),
    (kalman, "update", "kalman.update", None),
    (kalman, "init_track", "kalman.init_track", None),
    (tracker, "run_sequence", "tracker.run_sequence", None),
    (tracker, "manage_lifecycle", "tracker.manage_lifecycle",
     lambda a, r: len(a[0])),
    (metrics, "amota_family", "metrics.amota_family", None),
    (metrics, "evaluate_sequence", "metrics.evaluate_sequence", None),
    (sim, "generate", "sim.generate", None),
    (cli, "main", "cli.main", None),
]
FUNCTIONS = [name for _, _, name, _ in TIMED]

# io functions are reported as two groups, io.read and io.write; records are
# counted once, at the outermost call (merge_detection_files calls
# read_detections). Poses are not wrapped: no workload reads or writes them.
IO = [
    (io, "read_detections", "io.read_detections", lambda a, r: _bundle_dets(r)),
    (io, "merge_detection_files", "io.merge_detection_files",
     lambda a, r: _bundle_dets(r)),
    (io, "read_gt", "io.read_gt", lambda a, r: _frames_rows(r)),
    (io, "read_tracks", "io.read_tracks", lambda a, r: _frames_rows(r)),
    (io, "write_detections", "io.write_detections", lambda a, r: _bundle_dets(a[1])),
    (io, "write_gt", "io.write_gt", lambda a, r: _frames_rows(a[1])),
    (io, "write_tracks", "io.write_tracks",
     lambda a, r: sum(len(o.emitted) for o in a[1])),
]
WRAPPED = [name for _, _, name, _ in TIMED + IO]


def _io_group(name):
    return "io.write" if name.startswith("io.write_") else "io.read"


SPLIT = ("geometry.iou_matrix", "assign.hungarian_min_cost")
PHASES = ("track", "eval")


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    out += [("geometry.iou_matrix.pairs", "count"),
            ("geometry.iou_matrix.nonzero_frac", "ratio")]
    for phase in PHASES:
        out += [(f"geometry.iou_matrix.{phase}.calls", "count"),
                (f"geometry.iou_matrix.{phase}.s", "s"),
                (f"geometry.iou_matrix.{phase}.pairs", "count"),
                (f"geometry.iou_matrix.{phase}.nonzero_frac", "ratio")]
    out += [("assign.associate.match_frac", "ratio"),
            ("assign.hungarian_min_cost.cells", "count")]
    for phase in PHASES:
        out += [(f"assign.hungarian_min_cost.{phase}.calls", "count"),
                (f"assign.hungarian_min_cost.{phase}.s", "s"),
                (f"assign.hungarian_min_cost.{phase}.cells", "count")]
    out += [("graphlap.refine.nodes", "count"),
            ("graphlap.refine.max_nodes", "count"),
            ("tracker.manage_lifecycle.tracks", "count")]
    for group in ("io.read", "io.write"):
        out += [(f"{group}.calls", "count"), (f"{group}.s", "s"),
                (f"{group}.records", "count")]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = [
    "geometry.iou_matrix.pairs",
    "assign.hungarian_min_cost.track.calls",
    "assign.hungarian_min_cost.eval.calls",
    "graphlap.refine.nodes",
    "kalman.predict.calls",
    "kalman.update.calls",
    "kalman.init_track.calls",
]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, count in TIMED + IO:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        return self

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def installed_wrappers() -> list:
    """Names of layer functions that are currently replaced by a wrapper."""
    return [f"{module.__name__}.{attr}" for module, attr, _, _ in TIMED + IO
            if hasattr(getattr(module, attr), "__wrapped__")]


def aggregate(spans) -> dict:
    """Per-layer metrics from a span list (see per_layer_names)."""
    n = len(spans)
    child = [0.0] * n
    phase = [None] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += s[END] - s[START]
            phase[i] = phase[parent]
        if s[NAME].startswith("metrics."):
            phase[i] = "eval"
        elif phase[i] is None and s[NAME].startswith("tracker."):
            phase[i] = "track"

    out = {name: 0 for name, _ in per_layer_names()}
    pairs = {p: [0, 0] for p in (None,) + PHASES}
    matched = [0, 0]
    for i, s in enumerate(spans):
        name, dur, count = s[NAME], s[END] - s[START], s[COUNT]
        if name.startswith("io."):
            group = _io_group(name)
            parent = s[PARENT]
            if parent >= 0 and spans[parent][NAME].startswith("io.") \
                    and _io_group(spans[parent][NAME]) == group:
                continue
            out[f"{group}.calls"] += 1
            out[f"{group}.s"] += dur
            out[f"{group}.records"] += count or 0
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child[i]
        if name in SPLIT and phase[i] in PHASES:
            out[f"{name}.{phase[i]}.calls"] += 1
            out[f"{name}.{phase[i]}.s"] += dur
        if count is None:
            continue
        if name == "geometry.iou_matrix":
            for p in {None, phase[i]}:
                if p in pairs:
                    pairs[p][0] += count[0]
                    pairs[p][1] += count[1]
        elif name == "assign.hungarian_min_cost":
            out[f"{name}.cells"] += count
            if phase[i] in PHASES:
                out[f"{name}.{phase[i]}.cells"] += count
        elif name == "assign.associate":
            matched[0] += count[0]
            matched[1] += count[1]
        elif name == "graphlap.refine":
            out[f"{name}.nodes"] += count
            out[f"{name}.max_nodes"] = max(out[f"{name}.max_nodes"], count)
        elif name == "tracker.manage_lifecycle":
            out[f"{name}.tracks"] += count

    for p, (total, nonzero) in pairs.items():
        prefix = "geometry.iou_matrix" + (f".{p}" if p else "")
        out[f"{prefix}.pairs"] = total
        out[f"{prefix}.nonzero_frac"] = nonzero / total if total else 0.0
    out["assign.associate.match_frac"] = matched[0] / matched[1] if matched[1] else 0.0
    out["trace.spans"] = n
    return out
