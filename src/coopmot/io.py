"""Line-delimited JSON file formats and global-frame projection.

One JSON object per line. Field names are part of the interface:

* detections: {"frame","agent","x","y","z","theta","h","w","l","score"}
* poses:      {"frame","agent","x","y","z","yaw"}
* ground truth: {"frame","object_id","x","y","z","theta","h","w","l"}
* tracks:     {"frame","track_id","x","y","z","theta","h","w","l","score"}

Files are UTF-8. Angles are radians, lengths meters. Writers format each
row directly, floats by float.__repr__ as json.dumps does (so every file
round-trips losslessly), and stream the rows to the file one by one; each
row is the bytes of json.dumps(record) and a newline. Frames and ids are
JSON integers (not booleans). Frame indices must be non-decreasing within
a file; readers return dense frame lists from 0 to the maximum index, with
gaps as empty frames. Every error on a line is a ValueError that reads
"<path>: line N: <reason>".
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

from .core import Detection, FrameBundle, validate_detection, wrap_angle


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
_decode = json.JSONDecoder().raw_decode
_FLOAT = {float}  # the type set of values that are all exact floats


def _records(path, key, fields, make):
    """Yield (frame, key value, make(*floats)) for each record of a file.

    floats holds the numeric fields in the order of fields. Every check on
    a line is made here: UTF-8, JSON, object, fields present, frame index,
    frame order, the key field (a non-empty agent string or an integer id),
    numeric fields, and make's own ValueError. JSON booleans are neither
    frames, ids nor numbers. Messages are built only when a check fails.
    """
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
            frame, value = rec["frame"], rec[key]
            if type(frame) is not int or frame < 0:
                raise ValueError(f"{path}: line {lineno}: bad frame index {frame!r}")
            if frame < last_frame:
                raise ValueError(f"{path}: line {lineno}: frame {frame} after frame {last_frame}")
            last_frame = frame
            ok = isinstance(value, str) and value if key == "agent" else type(value) is int
            if not ok:
                raise ValueError(f"{path}: line {lineno}: bad {key} {value!r}")
            floats = get(rec)
            if set(map(type, floats)) != _FLOAT:  # ints, or a value that is no number
                converted = []
                for name, v in zip(fields, floats):
                    if isinstance(v, bool) or not isinstance(v, (int, float)):
                        raise ValueError(f"{path}: line {lineno}: field {name!r} must be a number")
                    try:
                        converted.append(float(v))
                    except OverflowError as exc:  # an int beyond the float range
                        raise ValueError(f"{path}: line {lineno}: field {name!r} is too large "
                                         "for a float") from exc
                floats = converted
            try:
                obj = make(*floats)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield frame, value, obj


def _dense(frames: dict, empty) -> list:
    """The values of {frame: value} as a list indexed from 0 to the largest
    frame, with empty() at the frames in between that have none."""
    return [frames[t] if t in frames else empty()
            for t in range(max(frames, default=-1) + 1)]


def _detection(*floats) -> Detection:
    """The validated Detection of a record's box (and score) floats."""
    return validate_detection(Detection(*floats))


def _spell(values) -> tuple:
    """values as json.dumps writes them: finite exact floats as they are,
    since json.dumps writes them with float.__repr__, which is their str();
    anything else (ints, float subclasses, NaN, infinities) by json.dumps."""
    if set(map(type, values)) == _FLOAT and math.isfinite(sum(values)):
        return values
    return tuple(map(json.dumps, values))


# Rows as json.dumps(record) + "\n" writes them: keys in this order, ", ", ": ".
_BOX_ROW = '"x": %s, "y": %s, "z": %s, "theta": %s, "h": %s, "w": %s, "l": %s'
_GT_ROW = _BOX_ROW + "}\n"
_SCORED_ROW = _BOX_ROW + ', "score": %s}\n'
_box = operator.attrgetter(*BOX_FIELDS)
_scored_box = operator.attrgetter(*BOX_FIELDS, "score")
_seven = operator.itemgetter(*range(7))


def _bundles(frames: dict) -> list:
    """Dense, agent-sorted FrameBundles of {frame: {agent: detections}}."""
    return [FrameBundle(frame=t, detections_by_agent=dict(sorted(per_agent.items())))
            for t, per_agent in enumerate(_dense(frames, dict))]


def read_detections(path) -> list:
    """Read a detection file into dense, agent-sorted FrameBundles."""
    frames = {}
    for frame, agent, d in _records(path, "agent", BOX_FIELDS + ("score",), _detection):
        frames.setdefault(frame, {}).setdefault(agent, []).append(d)
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
    names = {}  # each agent name is escaped once
    with open(path, "w", encoding="utf-8") as fh:
        for bundle in bundles:
            frame = json.dumps(bundle.frame)
            for agent, dets in bundle.detections_by_agent.items():
                name = names.get(agent) or names.setdefault(agent, json.dumps(agent))
                head = f'{{"frame": {frame}, "agent": {name}, '
                for d in dets:
                    fh.write(head + _SCORED_ROW % _spell(_scored_box(d)))


def read_gt(path) -> list:
    """Read ground truth as per-frame lists of (object_id, Detection)."""
    frames = {}
    for frame, oid, d in _records(path, "object_id", BOX_FIELDS, _detection):
        frames.setdefault(frame, []).append((oid, d))
    return _dense(frames, list)


def write_gt(path, gt_frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(gt_frames):
            for oid, d in row:
                oid = oid if type(oid) is int else json.dumps(oid)
                fh.write(f'{{"frame": {t}, "object_id": {oid}, ' + _GT_ROW % _spell(_box(d)))


def read_tracks(path) -> list:
    """Read tracker output as per-frame lists of (track_id, Detection, score)."""
    frames = {}
    for frame, tid, d in _records(path, "track_id", BOX_FIELDS + ("score",), _detection):
        frames.setdefault(frame, []).append((tid, d, d.score))
    return _dense(frames, list)


def write_tracks(path, outputs) -> None:
    """Write FrameOutputs as a tracks file."""
    with open(path, "w", encoding="utf-8") as fh:
        for out in outputs:
            frame = json.dumps(out.frame)
            for tid, box, score in out.emitted:
                fh.write(f'{{"frame": {frame}, "track_id": {int(tid)}, ' + _SCORED_ROW
                         % _spell((*map(float, _seven(box)), float(score))))


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
