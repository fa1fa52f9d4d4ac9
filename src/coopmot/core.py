"""Shared domain types, configuration and validation.

A config dataclass checks its fields' types and ranges when built, whether
the values come from a file, from Python or from dataclasses.replace.

All types here are immutable value objects. The arrays that flow between
the pipeline stages (refined boxes, the kalman.Tracks store) follow the
same rule: every step returns new arrays and never writes its inputs, so
they are safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigParse(ValueError):
    """Config file missing, unreadable, or containing bad values."""


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

    Raises ValueError when any field is non-finite, any extent is <= 0,
    or the score lies outside [0, 1].
    """
    if not (math.isfinite(d.x) and math.isfinite(d.y) and math.isfinite(d.z)
            and math.isfinite(d.theta) and math.isfinite(d.h) and math.isfinite(d.w)
            and math.isfinite(d.l) and math.isfinite(d.score)):
        bad = [k for k, v in asdict(d).items() if not math.isfinite(v)]
        raise ValueError(f"non-finite field in detection: {', '.join(bad)}")
    if d.h <= 0 or d.w <= 0 or d.l <= 0:
        raise ValueError(f"non-positive extent (h={d.h}, w={d.w}, l={d.l})")
    if not 0.0 <= d.score <= 1.0:
        raise ValueError(f"score {d.score} outside [0, 1]")
    theta = wrap_angle(d.theta)
    if theta != d.theta:
        return replace(d, theta=theta)
    return d


class Method(Enum):
    BASELINE = "baseline"
    AOS = "aos"
    TSA = "tsa"


_ANNOTATION_TYPES = {"Method": Method, "float": (int, float), "int": int, "bool": bool}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _ANNOTATION_TYPES[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigParse(f"config key {f.name!r} has wrong type: {value!r}")
        for key in ("iou_assoc_threshold", "cross_agent_iou_threshold"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ConfigParse(f"{key} {getattr(self, key)} not in (0, 1]")
        for key in ("min_hits", "max_age"):
            if getattr(self, key) < 1:
                raise ConfigParse(f"{key} {getattr(self, key)} must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "method": self.method.value}


def config_kwargs(cls, raw) -> dict:
    """raw, a parsed JSON config, as keyword arguments of the dataclass cls;
    ConfigParse unless raw is an object whose keys are all fields of cls."""
    if not isinstance(raw, dict):
        raise ConfigParse("config root must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigParse(f"unknown config keys: {sorted(unknown)}")
    return dict(raw)


def config_from_dict(raw: dict) -> TrackerConfig:
    """Build a TrackerConfig from a parsed JSON object; missing keys take
    defaults and the method is named by its value, in any case."""
    kwargs = config_kwargs(TrackerConfig, raw)
    if isinstance(kwargs.get("method"), str):
        try:
            kwargs["method"] = Method(kwargs["method"].lower())
        except ValueError:
            raise ConfigParse(f"unknown method {kwargs['method']!r}") from None
    return TrackerConfig(**kwargs)


def read_config(path):
    """The config file at path, parsed; ConfigParse if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigParse(f"cannot parse config {path}: {exc}") from exc


def load_config(path) -> TrackerConfig:
    """Load a TrackerConfig from a JSON file."""
    return config_from_dict(read_config(path))


@dataclass(frozen=True)
class FrameBundle:
    """All agents' detections for one frame, keyed by agent id.

    Agent ordering is the dict insertion order and must be stable across
    the whole sequence.
    """

    frame: int
    detections_by_agent: dict = field(default_factory=dict)
