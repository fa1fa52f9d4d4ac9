"""Line-delimited JSON file formats and global-frame projection.

One JSON object per line. Field names are part of the interface:

* detections: {"frame","agent","x","y","z","theta","h","w","l","score"}
* poses:      {"frame","agent","x","y","z","yaw"}
* ground truth: {"frame","object_id","x","y","z","theta","h","w","l"}
* tracks:     {"frame","track_id","x","y","z","theta","h","w","l","score"}

Angles are radians, lengths meters. Floats are written with full repr
precision so every file round-trips losslessly. Frame indices must be
non-decreasing within a file; readers return dense frame lists from 0 to
the maximum index, with gaps as empty frames.
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


def _iter_records(path, fields):
    with open(path, "r", encoding="utf-8") as fh:
        last_frame = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: line {lineno}: expected an object")
            missing = [f for f in fields if f not in rec]
            if missing:
                raise ParseError(f"{path}: line {lineno}: missing fields {missing}")
            frame = rec["frame"]
            if not isinstance(frame, int) or frame < 0:
                raise ParseError(f"{path}: line {lineno}: bad frame index {frame!r}")
            if last_frame is not None and frame < last_frame:
                raise FrameOrderError(
                    f"{path}: line {lineno}: frame {frame} after frame {last_frame}")
            last_frame = frame
            yield lineno, rec


def _float_fields(path, lineno, rec, names):
    out = []
    for name in names:
        v = rec[name]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{path}: line {lineno}: field {name!r} must be a number")
        out.append(float(v))
    return out


BOX_FIELDS = ("x", "y", "z", "theta", "h", "w", "l")


def _detection(path, lineno, rec, score):
    x, y, z, theta, h, w, l = _float_fields(path, lineno, rec, BOX_FIELDS)
    try:
        return validate_detection(Detection(
            x=x, y=y, z=z, theta=theta, h=h, w=w, l=l, score=score))
    except InvalidBox as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from exc


def read_detections(path) -> list:
    """Read a detection file into dense, agent-sorted FrameBundles."""
    frames = {}
    for lineno, rec in _iter_records(path, ("frame", "agent") + BOX_FIELDS + ("score",)):
        agent = rec["agent"]
        if not isinstance(agent, str) or not agent:
            raise ParseError(f"{path}: line {lineno}: bad agent {rec['agent']!r}")
        (score,) = _float_fields(path, lineno, rec, ("score",))
        per_agent = frames.setdefault(rec["frame"], {})
        per_agent.setdefault(agent, []).append(_detection(path, lineno, rec, score))
    return _as_bundles(frames)


def _as_bundles(frames: dict) -> list:
    if not frames:
        return []
    max_frame = max(frames)
    bundles = []
    for t in range(max_frame + 1):
        per_agent = frames.get(t, {})
        ordered = {agent: per_agent[agent] for agent in sorted(per_agent)}
        bundles.append(FrameBundle(frame=t, detections_by_agent=ordered))
    return bundles


def merge_detection_files(paths) -> list:
    """Combine per-agent detection files into one bundle sequence."""
    frames = {}
    for path in paths:
        for bundle in read_detections(path):
            per_agent = frames.setdefault(bundle.frame, {})
            for agent, dets in bundle.detections_by_agent.items():
                per_agent.setdefault(agent, []).extend(dets)
    return _as_bundles(frames)


def write_detections(path, bundles) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for bundle in bundles:
            for agent, dets in bundle.detections_by_agent.items():
                for d in dets:
                    fh.write(json.dumps({
                        "frame": bundle.frame, "agent": agent,
                        "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
                        "h": d.h, "w": d.w, "l": d.l, "score": d.score,
                    }) + "\n")


def read_gt(path) -> list:
    """Read ground truth as per-frame lists of (object_id, Detection)."""
    frames = {}
    for lineno, rec in _iter_records(path, ("frame", "object_id") + BOX_FIELDS):
        oid = rec["object_id"]
        if not isinstance(oid, int):
            raise ParseError(f"{path}: line {lineno}: bad object_id {oid!r}")
        frames.setdefault(rec["frame"], []).append(
            (oid, _detection(path, lineno, rec, 1.0)))
    if not frames:
        return []
    return [frames.get(t, []) for t in range(max(frames) + 1)]


def write_gt(path, gt_frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(gt_frames):
            for oid, d in row:
                fh.write(json.dumps({
                    "frame": t, "object_id": oid,
                    "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
                    "h": d.h, "w": d.w, "l": d.l,
                }) + "\n")


def read_tracks(path) -> list:
    """Read tracker output as per-frame lists of (track_id, Detection, score)."""
    frames = {}
    for lineno, rec in _iter_records(path, ("frame", "track_id") + BOX_FIELDS + ("score",)):
        tid = rec["track_id"]
        if not isinstance(tid, int):
            raise ParseError(f"{path}: line {lineno}: bad track_id {tid!r}")
        (score,) = _float_fields(path, lineno, rec, ("score",))
        frames.setdefault(rec["frame"], []).append(
            (tid, _detection(path, lineno, rec, score), score))
    if not frames:
        return []
    return [frames.get(t, []) for t in range(max(frames) + 1)]


def write_tracks(path, outputs) -> None:
    """Write FrameOutputs as a tracks file."""
    with open(path, "w", encoding="utf-8") as fh:
        for out in outputs:
            for tid, box, score in out.emitted:
                fh.write(json.dumps({
                    "frame": out.frame, "track_id": int(tid),
                    "x": float(box[0]), "y": float(box[1]), "z": float(box[2]),
                    "theta": float(box[3]), "h": float(box[4]),
                    "w": float(box[5]), "l": float(box[6]),
                    "score": float(score),
                }) + "\n")


def read_poses(path) -> dict:
    """Read poses keyed by (frame, agent)."""
    poses = {}
    for lineno, rec in _iter_records(path, ("frame", "agent", "x", "y", "z", "yaw")):
        agent = rec["agent"]
        if not isinstance(agent, str) or not agent:
            raise ParseError(f"{path}: line {lineno}: bad agent {agent!r}")
        x, y, z, yaw = _float_fields(path, lineno, rec, ("x", "y", "z", "yaw"))
        poses[(rec["frame"], agent)] = Pose(x=x, y=y, z=z, yaw=yaw)
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
