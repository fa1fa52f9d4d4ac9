"""Shared domain types, configuration and validation.

core owns the box and the number rule. BOX_FIELDS, Detection's first seven
fields, is the column order of every box row, array and file (box_values and
scored_values read it); real and integer check every number taken from
outside, and a Detection or a config checks its fields when built, from any source.

All types here are immutable value objects. The arrays that flow between
the pipeline stages (refined boxes, the kalman.Tracks store) follow the
same rule: every step returns new arrays and never writes its inputs, so
they are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi
FLOAT_MAX = sys.float_info.max
BOX_FIELDS = ("x", "y", "z", "theta", "h", "w", "l")
box_values = operator.attrgetter(*BOX_FIELDS)
scored_values = operator.attrgetter(*BOX_FIELDS, "score")


class ConfigParse(ValueError):
    """Config file missing, unreadable, or containing bad values."""


def real(value) -> float:
    """value as a float: an int or a float, not a bool, that a finite float
    holds. Else TypeError "must be a number" or ValueError "must be finite"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("must be a number")
    if not -FLOAT_MAX <= value <= FLOAT_MAX:  # NaN fails every comparison
        raise ValueError("must be finite")
    return float(value)


def integer(value) -> int:
    """value as an int: what operator.index takes, not a bool, that a finite
    float holds. Else TypeError "must be an integer" or ValueError as real."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or hasattr(type(value), "__index__")):
        raise TypeError("must be an integer")
    value = operator.index(value)
    if not -FLOAT_MAX <= value <= FLOAT_MAX:
        raise ValueError("must be finite")
    return value


def store_floats(obj, nonfinite: str) -> None:
    """Store each field of the frozen dataclass obj as real gives it: ValueError
    "field 'x' must be a number", else "<nonfinite>: x, y" naming each non-finite field."""
    bad = []
    for f in fields(obj):
        try:
            object.__setattr__(obj, f.name, real(getattr(obj, f.name)))
        except TypeError as exc:
            raise ValueError(f"field {f.name!r} {exc}") from None
        except ValueError:
            bad.append(f.name)
    if bad:
        raise ValueError(f"{nonfinite}: {', '.join(bad)}")


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
    [-pi, pi), h/w/l are height, width, length in meters. Building one
    stores each field as a float (store_floats), raises ValueError when an
    extent is <= 0 or the score lies outside [0, 1], and wraps theta.
    """

    x: float
    y: float
    z: float
    theta: float
    h: float
    w: float
    l: float
    score: float = 1.0

    def __post_init__(self):
        # a float passes its range test exactly when it is finite
        if not (type(self.x) is type(self.y) is type(self.z) is type(self.theta)
                is type(self.h) is type(self.w) is type(self.l) is type(self.score) is float
                and -FLOAT_MAX <= self.x <= FLOAT_MAX and -FLOAT_MAX <= self.y <= FLOAT_MAX
                and -FLOAT_MAX <= self.z <= FLOAT_MAX and 0.0 < self.h <= FLOAT_MAX
                and 0.0 < self.w <= FLOAT_MAX and 0.0 < self.l <= FLOAT_MAX
                and 0.0 <= self.score <= 1.0 and -math.pi <= self.theta < math.pi):
            store_floats(self, "non-finite field in detection")
            if self.h <= 0 or self.w <= 0 or self.l <= 0:
                raise ValueError(f"non-positive extent (h={self.h}, w={self.w}, l={self.l})")
            if not 0.0 <= self.score <= 1.0:
                raise ValueError(f"score {self.score} outside [0, 1]")
            object.__setattr__(self, "theta", wrap_angle(self.theta))

    def box7(self) -> np.ndarray:
        """The [x y z theta h w l] vector."""
        return np.array(box_values(self), dtype=float)


class Method(Enum):
    BASELINE = "baseline"
    AOS = "aos"
    TSA = "tsa"


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker settings, checked when built; method may be given by its value, in any case."""

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
            try:
                if f.type in ("float", "int"):
                    value = (real if f.type == "float" else integer)(value)
                elif f.type == "Method" and isinstance(value, str):
                    value = Method(value.lower())
                elif not isinstance(value, Method if f.type == "Method" else bool):
                    raise TypeError
            except TypeError:
                raise ConfigParse(f"config key {f.name!r} has wrong type: {value!r}") from None
            except ValueError as exc:
                raise ConfigParse(f"unknown method {value!r}" if f.type == "Method"
                                  else f"config key {f.name!r} {exc}") from None
            if f.type == "float" and not 0.0 < value <= 1.0:  # the message spells it as given
                raise ConfigParse(f"{f.name} {getattr(self, f.name)} not in (0, 1]")
            if f.type == "int" and value < 1:
                raise ConfigParse(f"{f.name} {value} must be >= 1")
            object.__setattr__(self, f.name, value)

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
    """Build a TrackerConfig from a parsed JSON object; missing keys take defaults."""
    return TrackerConfig(**config_kwargs(TrackerConfig, raw))


def read_config(path):
    """The config file at path, parsed; ConfigParse if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigParse(f"cannot parse config {path}: {exc}") from exc


@dataclass(frozen=True)
class FrameBundle:
    """All agents' detections for one frame, keyed by agent id.

    Agent ordering is the dict insertion order and must be stable across
    the whole sequence.
    """

    frame: int
    detections_by_agent: dict = field(default_factory=dict)
