"""Shared domain types, configuration and validation.

All types here are immutable value objects. The arrays that flow between
the pipeline stages (refined boxes, the kalman.Tracks store) follow the
same rule: every step returns new arrays and never writes its inputs, so
they are safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidBox(ValueError):
    """Detection with non-finite fields or non-positive extents."""


class ConfigParse(ValueError):
    """Config file missing, unreadable, or containing bad values."""


class UnknownKey(ConfigParse):
    """Config file contains a key that is not a tracker parameter."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi); exact no-op for in-range values."""
    if -math.pi <= theta < math.pi:
        return theta
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


@dataclass(frozen=True, slots=True)
class Detection:
    """One 3D bounding box: centroid, yaw about z, extents, confidence.

    Positions are meters in the global frame, theta is radians in
    [-pi, pi), h/w/l are height, width, length in meters.
    """

    x: float
    y: float
    z: float
    theta: float
    h: float
    w: float
    l: float
    score: float = 1.0

    def box7(self) -> np.ndarray:
        """The [x y z theta h w l] vector."""
        return np.array([self.x, self.y, self.z, self.theta,
                         self.h, self.w, self.l], dtype=float)


def validate_detection(d: Detection) -> Detection:
    """Return d with theta wrapped to [-pi, pi); reject degenerate boxes.

    Raises InvalidBox when any field is non-finite, any extent is <= 0,
    or the score lies outside [0, 1].
    """
    if not (math.isfinite(d.x) and math.isfinite(d.y) and math.isfinite(d.z)
            and math.isfinite(d.theta) and math.isfinite(d.h) and math.isfinite(d.w)
            and math.isfinite(d.l) and math.isfinite(d.score)):
        bad = [k for k, v in asdict(d).items() if not math.isfinite(v)]
        raise InvalidBox(f"non-finite field in detection: {', '.join(bad)}")
    if d.h <= 0 or d.w <= 0 or d.l <= 0:
        raise InvalidBox(f"non-positive extent (h={d.h}, w={d.w}, l={d.l})")
    if not 0.0 <= d.score <= 1.0:
        raise InvalidBox(f"score {d.score} outside [0, 1]")
    theta = wrap_angle(d.theta)
    if theta != d.theta:
        return replace(d, theta=theta)
    return d


class Method(Enum):
    BASELINE = "baseline"
    AOS = "aos"
    TSA = "tsa"


@dataclass(frozen=True)
class TrackerConfig:
    method: Method = Method.TSA
    iou_assoc_threshold: float = 0.25
    cross_agent_iou_threshold: float = 0.25
    min_hits: int = 3
    max_age: int = 2
    dedup_matched_pairs: bool = False
    warm_start: bool = True

    def __post_init__(self):
        if not 0.0 < self.iou_assoc_threshold <= 1.0:
            raise ConfigParse(f"iou_assoc_threshold {self.iou_assoc_threshold} not in (0, 1]")
        if not 0.0 < self.cross_agent_iou_threshold <= 1.0:
            raise ConfigParse(
                f"cross_agent_iou_threshold {self.cross_agent_iou_threshold} not in (0, 1]")
        if self.min_hits < 1:
            raise ConfigParse(f"min_hits {self.min_hits} must be >= 1")
        if self.max_age < 1:
            raise ConfigParse(f"max_age {self.max_age} must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "method": self.method.value}


_CONFIG_TYPES = {
    "method": str,
    "iou_assoc_threshold": (int, float),
    "cross_agent_iou_threshold": (int, float),
    "min_hits": int,
    "max_age": int,
    "dedup_matched_pairs": bool,
    "warm_start": bool,
}


def config_from_dict(raw: dict) -> TrackerConfig:
    """Build a TrackerConfig from a parsed JSON object.

    Missing keys take defaults; unknown keys raise UnknownKey.
    """
    if not isinstance(raw, dict):
        raise ConfigParse("config root must be a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise UnknownKey(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, expected in _CONFIG_TYPES.items():
        if key not in raw:
            continue
        value = raw[key]
        if expected is int and isinstance(value, bool):
            raise ConfigParse(f"config key {key!r} must be an integer, got {value!r}")
        if not isinstance(value, expected):
            raise ConfigParse(f"config key {key!r} has wrong type: {value!r}")
        if key == "method":
            try:
                value = Method(value.lower())
            except ValueError:
                raise ConfigParse(f"unknown method {value!r}") from None
        kwargs[key] = value
    return TrackerConfig(**kwargs)


def load_config(path) -> TrackerConfig:
    """Load a TrackerConfig from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigParse(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(raw)


@dataclass(frozen=True)
class FrameBundle:
    """All agents' detections for one frame, keyed by agent id.

    Agent ordering is the dict insertion order and must be stable across
    the whole sequence.
    """

    frame: int
    detections_by_agent: dict = field(default_factory=dict)
