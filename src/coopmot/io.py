"""Line-delimited JSON file formats and global-frame projection.

One JSON object per line. Field names are part of the interface:

* detections: {"frame","agent","x","y","z","theta","h","w","l","score"}
* poses:      {"frame","agent","x","y","z","yaw"}
* ground truth: {"frame","object_id","x","y","z","theta","h","w","l"}
* tracks:     {"frame","track_id","x","y","z","theta","h","w","l","score"}

Files are UTF-8. Angles are radians, lengths meters. Floats are written
with full repr precision so every file round-trips losslessly. Frames and
ids are JSON integers (not booleans). Frame indices must be non-decreasing
within a file; readers return dense frame lists from 0 to the maximum
index, with gaps as empty frames. Every error on a line is a ParseError
that reads "<path>: line N: <reason>".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import Detection, FrameBundle, InvalidBox, validate_detection, wrap_angle


class ParseError(ValueError):
    """Malformed line in a data file; the message names the line."""


class FrameOrderError(ParseError):
    """Frame indices in a file are not non-decreasing."""


@dataclass(frozen=True)
class Pose:
    """Agent pose in the global frame."""

    x: float
    y: float
    z: float
    yaw: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z, self.yaw)):
            raise ValueError(f"non-finite pose {self}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


def to_global(d: Detection, p: Pose) -> Detection:
    """Project an agent-local detection into the global frame."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    gx = c * d.x - s * d.y + p.x
    gy = s * d.x + c * d.y + p.y
    gz = d.z + p.z
    return validate_detection(Detection(
        x=gx, y=gy, z=gz, theta=d.theta + p.yaw,
        h=d.h, w=d.w, l=d.l, score=d.score))


BOX_FIELDS = ("x", "y", "z", "theta", "h", "w", "l")


def _records(path, key, fields):
    """Yield (where, frame, key value, floats) for each record of a file.

    where is the "<path>: line N" prefix of messages about the line; floats
    holds the numeric fields in the order of fields. Every check on a line
    is made here: UTF-8, JSON, object, fields present, frame index, frame
    order, the key field (a non-empty agent string or an integer id) and
    numeric fields. JSON booleans are neither frames, ids nor numbers.
    """
    last_frame = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{where}: not UTF-8 ({exc})") from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{where}: expected an object")
            missing = [f for f in ("frame", key) + fields if f not in rec]
            if missing:
                raise ParseError(f"{where}: missing fields {missing}")
            frame, value = rec["frame"], rec[key]
            if type(frame) is not int or frame < 0:
                raise ParseError(f"{where}: bad frame index {frame!r}")
            if frame < last_frame:
                raise FrameOrderError(f"{where}: frame {frame} after frame {last_frame}")
            last_frame = frame
            ok = isinstance(value, str) and value if key == "agent" else type(value) is int
            if not ok:
                raise ParseError(f"{where}: bad {key} {value!r}")
            floats = []
            for name in fields:
                v = rec[name]
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(f"{where}: field {name!r} must be a number")
                floats.append(float(v))
            yield where, frame, value, floats


def _dense(frames: dict, empty) -> list:
    """The values of {frame: value} as a list indexed from 0 to the largest
    frame, with empty() at the frames in between that have none."""
    return [frames[t] if t in frames else empty()
            for t in range(max(frames, default=-1) + 1)]


def _detection(where, floats) -> Detection:
    """The validated Detection of a record's box (and score) floats."""
    try:
        return validate_detection(Detection(*floats))
    except InvalidBox as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _write(path, records) -> None:
    """Write dicts as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _bundles(frames: dict) -> list:
    """Dense, agent-sorted FrameBundles of {frame: {agent: detections}}."""
    return [FrameBundle(frame=t, detections_by_agent=dict(sorted(per_agent.items())))
            for t, per_agent in enumerate(_dense(frames, dict))]


def read_detections(path) -> list:
    """Read a detection file into dense, agent-sorted FrameBundles."""
    frames = {}
    for where, frame, agent, floats in _records(path, "agent", BOX_FIELDS + ("score",)):
        frames.setdefault(frame, {}).setdefault(agent, []).append(
            _detection(where, floats))
    return _bundles(frames)


def merge_detection_files(paths) -> list:
    """Combine per-agent detection files into one bundle sequence."""
    frames = {}
    for path in paths:
        for bundle in read_detections(path):
            per_agent = frames.setdefault(bundle.frame, {})
            for agent, dets in bundle.detections_by_agent.items():
                per_agent.setdefault(agent, []).extend(dets)
    return _bundles(frames)


def write_detections(path, bundles) -> None:
    _write(path, ({
        "frame": bundle.frame, "agent": agent,
        "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
        "h": d.h, "w": d.w, "l": d.l, "score": d.score,
    } for bundle in bundles for agent, dets in bundle.detections_by_agent.items()
        for d in dets))


def read_gt(path) -> list:
    """Read ground truth as per-frame lists of (object_id, Detection)."""
    frames = {}
    for where, frame, oid, floats in _records(path, "object_id", BOX_FIELDS):
        frames.setdefault(frame, []).append((oid, _detection(where, floats)))
    return _dense(frames, list)


def write_gt(path, gt_frames) -> None:
    _write(path, ({
        "frame": t, "object_id": oid,
        "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
        "h": d.h, "w": d.w, "l": d.l,
    } for t, row in enumerate(gt_frames) for oid, d in row))


def read_tracks(path) -> list:
    """Read tracker output as per-frame lists of (track_id, Detection, score)."""
    frames = {}
    for where, frame, tid, floats in _records(path, "track_id", BOX_FIELDS + ("score",)):
        frames.setdefault(frame, []).append((tid, _detection(where, floats), floats[-1]))
    return _dense(frames, list)


def write_tracks(path, outputs) -> None:
    """Write FrameOutputs as a tracks file."""
    _write(path, ({
        "frame": out.frame, "track_id": int(tid),
        "x": float(box[0]), "y": float(box[1]), "z": float(box[2]),
        "theta": float(box[3]), "h": float(box[4]),
        "w": float(box[5]), "l": float(box[6]),
        "score": float(score),
    } for out in outputs for tid, box, score in out.emitted))


def read_poses(path) -> dict:
    """Read poses keyed by (frame, agent)."""
    poses = {}
    for where, frame, agent, floats in _records(path, "agent", ("x", "y", "z", "yaw")):
        try:
            poses[(frame, agent)] = Pose(*floats)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return poses


def apply_poses(bundles, poses: dict) -> list:
    """Project agent-local bundles into the global frame.

    Every (frame, agent) with detections must have a pose.
    """
    projected = []
    for bundle in bundles:
        per_agent = {}
        for agent, dets in bundle.detections_by_agent.items():
            if not dets:
                per_agent[agent] = []
                continue
            key = (bundle.frame, agent)
            if key not in poses:
                raise ParseError(f"missing pose for frame {bundle.frame}, agent {agent}")
            pose = poses[key]
            per_agent[agent] = [to_global(d, pose) for d in dets]
        projected.append(FrameBundle(frame=bundle.frame, detections_by_agent=per_agent))
    return projected
