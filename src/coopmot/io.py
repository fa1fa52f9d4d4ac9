"""Line-delimited JSON file formats and global-frame projection.

One JSON object per line, a box's fields in the order of core.BOX_FIELDS.
Field names are part of the interface:

* detections: {"frame","agent","x","y","z","theta","h","w","l","score"}
* poses:      {"frame","agent","x","y","z","yaw"}
* ground truth: {"frame","object_id","x","y","z","theta","h","w","l"}
* tracks:     {"frame","track_id","x","y","z","theta","h","w","l","score"}

Files are UTF-8. Angles are radians, lengths meters. Readers and writers
share one rule for numbers (core.store_floats) and one for frames, agents
and ids (_key). Writers format each row directly, floats by float.__repr__
as json.dumps does (so every file round-trips losslessly), and stream the
rows to the file one by one; each row is the bytes of json.dumps(record)
and a newline, and a row its reader refuses raises ValueError. Frame
indices must be non-decreasing within a file; readers return dense frame
lists from 0 to the maximum index, with gaps as empty frames. Every error
on a line is a ValueError that reads "<path>: line N: <reason>".
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace

from .core import (BOX_FIELDS, Detection, FrameBundle, box_values, scored_values, store_floats,
                   wrap_angle)


@dataclass(frozen=True)
class Pose:
    """Agent pose in the global frame, held as floats (core.store_floats)."""

    x: float
    y: float
    z: float
    yaw: float

    def __post_init__(self):
        store_floats(self, "non-finite pose field")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


def to_global(d: Detection, p: Pose) -> Detection:
    """Project an agent-local detection into the global frame."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    return replace(d, x=c * d.x - s * d.y + p.x, y=s * d.x + c * d.y + p.y, z=d.z + p.z,
                   theta=d.theta + p.yaw)


_decode = json.JSONDecoder().raw_decode


def _key(name, value, frame=None):
    """value as a file holds the field name ("frame index", "agent" or an id):
    an agent is a non-empty str; a frame or an id an int, not a bool (a numpy
    int gives its int), and a frame is not negative. Else ValueError "bad
    <name> <value!r>", after "frame <frame>: " when a writer names the frame."""
    if (isinstance(value, str) and value if name == "agent" else
            hasattr(type(value), "__index__") and not isinstance(value, bool)
            and (name != "frame index" or value >= 0)):
        return value if name == "agent" else operator.index(value)
    raise ValueError(("" if frame is None else f"frame {frame}: ") + f"bad {name} {value!r}")


def _records(path, key, fields, make):
    """Yield (frame, key value, make(*values)) for each record of a file, values
    being its fields as JSON gives them. Every check on a line is made here:
    UTF-8, JSON, object, fields present, frame index, frame order, the key
    field (_key) and make's own ValueError (the number rule). Messages are
    built only when a check fails."""
    names = frozenset(("frame", key) + fields)
    get = operator.itemgetter(*fields)
    last_frame = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 ({exc})") from exc
            if not line:
                continue
            try:  # json.loads itself raises for a BOM or data after the object
                rec, end = (None, 0) if line[0] == "\ufeff" else _decode(line)
                if end != len(line):
                    rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}: line {lineno}: expected an object")
            if not rec.keys() >= names:
                missing = [f for f in ("frame", key) + fields if f not in rec]
                raise ValueError(f"{path}: line {lineno}: missing fields {missing}")
            try:
                frame = _key("frame index", rec["frame"])
                if frame < last_frame:
                    raise ValueError(f"frame {frame} after frame {last_frame}")
                value = _key(key, rec[key])
                obj = make(*get(rec))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            last_frame = frame
            yield frame, value, obj


def _dense(frames: dict, empty) -> list:
    """The values of {frame: value} as a list indexed from 0 to the largest
    frame, with empty() at the frames in between that have none."""
    return [frames[t] if t in frames else empty()
            for t in range(max(frames, default=-1) + 1)]


# Rows as json.dumps(record) + "\n" writes them: keys in this order, ", ", ": ".
_BOX_ROW = ", ".join(f'"{name}": %s' for name in BOX_FIELDS)
_GT_ROW = _BOX_ROW + "}\n"
_SCORED_ROW = _BOX_ROW + ', "score": %s}\n'


def read_detections(*paths) -> list:
    """Read detection files, in order, into dense, agent-sorted FrameBundles.

    Frame order is checked within each file; an agent found in several
    files keeps its detections in the order of the paths."""
    frames = {}
    for path in paths:
        for frame, agent, d in _records(path, "agent", BOX_FIELDS + ("score",), Detection):
            frames.setdefault(frame, {}).setdefault(agent, []).append(d)
    # each list is copied at its length: appends leave up to half its slots spare
    return [FrameBundle(frame=t, detections_by_agent={
                agent: per_agent[agent][:] for agent in sorted(per_agent)})
            for t, per_agent in enumerate(_dense(frames, dict))]


def merge_detection_files(paths) -> list:
    """Combine per-agent detection files into one bundle sequence."""
    return read_detections(*paths)


def write_detections(path, bundles) -> None:
    names = {}  # each agent name is checked and escaped once
    with open(path, "w", encoding="utf-8") as fh:
        for bundle in bundles:
            frame = _key("frame index", bundle.frame)
            for agent, dets in bundle.detections_by_agent.items():
                name = names.get(agent) or names.setdefault(
                    agent, json.dumps(_key("agent", agent, frame)))
                head = f'{{"frame": {frame}, "agent": {name}, '
                for d in dets:
                    fh.write(head + _SCORED_ROW % scored_values(d))


def read_gt(path) -> list:
    """Read ground truth as per-frame lists of (object_id, Detection)."""
    frames = {}
    for frame, oid, d in _records(path, "object_id", BOX_FIELDS, Detection):
        frames.setdefault(frame, []).append((oid, d))
    return _dense(frames, list)


def write_gt(path, gt_frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(gt_frames):
            for oid, d in row:
                fh.write(f'{{"frame": {t}, "object_id": {_key("object_id", oid, t)}, '
                         + _GT_ROW % box_values(d))


def read_tracks(path) -> list:
    """Read tracker output as per-frame lists of (track_id, Detection, score)."""
    frames = {}
    for frame, tid, d in _records(path, "track_id", BOX_FIELDS + ("score",), Detection):
        frames.setdefault(frame, []).append((tid, d, d.score))
    return _dense(frames, list)


def write_tracks(path, outputs) -> None:
    """Write FrameOutputs as a tracks file. Each row's box, seven values (an
    array's tolist()), and score build the Detection that is written."""
    with open(path, "w", encoding="utf-8") as fh:
        for out in outputs:
            frame = _key("frame index", out.frame)
            for tid, box, score in out.emitted:
                tid = _key("track_id", tid, frame)
                values = box.tolist() if hasattr(box, "tolist") else list(box)
                if len(values) != 7:
                    raise ValueError(f"frame {frame}: track {tid}: {len(values)} box values")
                fh.write(f'{{"frame": {frame}, "track_id": {tid}, '
                         + _SCORED_ROW % scored_values(Detection(*values, score)))


def read_poses(*paths) -> dict:
    """Read pose files into {(frame, agent): pose}; a key has one pose in all the files."""
    poses, source = {}, {}
    for path in paths:
        for frame, agent, pose in _records(path, "agent", ("x", "y", "z", "yaw"), Pose):
            earlier = source.setdefault((frame, agent), path)
            if poses.setdefault((frame, agent), pose) is not pose:
                raise ValueError(f"{path}: frame {frame}, agent {agent} " + (
                    "has more than one pose" if earlier == path else
                    f"already has a pose in {earlier}"))
    return poses


def apply_poses(bundles, poses: dict) -> list:
    """Project agent-local bundles into the global frame.

    Every (frame, agent) with detections must have a pose.
    """
    projected = []
    for bundle in bundles:
        per_agent = {}
        for agent, dets in bundle.detections_by_agent.items():
            pose = poses.get((bundle.frame, agent))
            if dets and pose is None:
                raise ValueError(f"missing pose for frame {bundle.frame}, agent {agent}")
            per_agent[agent] = [to_global(d, pose) for d in dets]
        projected.append(FrameBundle(frame=bundle.frame, detections_by_agent=per_agent))
    return projected
