"""Synthetic two-agent scenarios: ground truth plus noisy detections.

Objects are car-like boxes moving at constant velocity in a square world
centered on the origin. Both agents observe from the origin: an agent
misses an object when its bearing falls in one of that agent's occlusion
sectors, or with the agent's dropout probability. Observed centroids get
independent Gaussian noise. Everything is deterministic per seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .core import Detection, FrameBundle, validate_detection, wrap_angle

CAR_L, CAR_W, CAR_H = 4.5, 1.8, 1.6
MIN_SPAWN_SEPARATION = 8.0  # centers; keeps >= 2 m box clearance

AGENTS = ("agent0", "agent1")


@dataclass(frozen=True)
class ScenarioConfig:
    num_objects: int = 5
    num_frames: int = 50
    speed_min: float = 0.1   # meters per frame
    speed_max: float = 0.5
    world_extent: float = 60.0
    sigma: tuple = (0.3, 0.3)
    dropout: tuple = (0.0, 0.0)
    # per agent, list of (lo, hi) bearing ranges in radians; lo > hi wraps
    occlusion_sectors: tuple = ((), ())
    score_base: float = 0.8
    score_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for key in ("num_objects", "num_frames", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        if self.num_objects < 0:
            raise ValueError("num_objects must be >= 0")
        for key in ("sigma", "dropout", "occlusion_sectors"):
            if len(getattr(self, key)) != len(AGENTS):
                raise ValueError(f"{key} needs one entry per agent ({len(AGENTS)})")
        for sector in (s for sectors in self.occlusion_sectors for s in sectors):
            if len(sector) != 2:
                raise ValueError(f"occlusion sector {list(sector)} is not a (lo, hi) pair")
        bounds = [b for sectors in self.occlusion_sectors for s in sectors for b in s]
        for key, values in (("speed_min", [self.speed_min]), ("speed_max", [self.speed_max]),
                            ("world_extent", [self.world_extent]), ("sigma", self.sigma),
                            ("score_base", [self.score_base]),
                            ("score_jitter", [self.score_jitter]),
                            ("occlusion_sectors", bounds)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{key} must be finite")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma must be >= 0")
        if any(not 0.0 <= p <= 1.0 for p in self.dropout):
            raise ValueError("dropout must lie in [0, 1]")
        if self.speed_min < 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 <= speed_min <= speed_max")

    def to_dict(self) -> dict:
        return asdict(self)


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    kwargs = dict(raw)
    for key in ("sigma", "dropout"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "occlusion_sectors" in kwargs:
        kwargs["occlusion_sectors"] = tuple(
            tuple(tuple(s) for s in sect) for sect in kwargs["occlusion_sectors"])
    return ScenarioConfig(**kwargs)


def _in_sector(angle: float, sector) -> bool:
    lo, hi = sector
    lo, hi = wrap_angle(lo), wrap_angle(hi)
    if lo <= hi:
        return lo <= angle < hi
    return angle >= lo or angle < hi


def _occluded(x: float, y: float, sectors) -> bool:
    bearing = math.atan2(y, x)
    return any(_in_sector(bearing, s) for s in sectors)


@dataclass
class _ObjectTrack:
    pos0: np.ndarray
    vel: np.ndarray
    theta: float


def _spawn_objects(cfg: ScenarioConfig, rng) -> list:
    half = cfg.world_extent / 2.0
    objects = []
    attempts = 0
    while len(objects) < cfg.num_objects:
        attempts += 1
        if attempts > 10000:
            raise ValueError("world too small for the requested object count")
        pos = rng.uniform(-half, half, size=2)
        if any(np.hypot(*(pos - o.pos0[:2])) < MIN_SPAWN_SEPARATION for o in objects):
            continue
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        heading = rng.uniform(-math.pi, math.pi)
        vel = np.array([speed * math.cos(heading), speed * math.sin(heading), 0.0])
        objects.append(_ObjectTrack(
            pos0=np.array([pos[0], pos[1], CAR_H / 2.0]),
            vel=vel, theta=wrap_angle(heading)))
    return objects


def generate(cfg: ScenarioConfig):
    """Build (gt_frames, bundles) for the configured scenario.

    gt_frames[t] is a list of (object_id, Detection); bundles[t] is the
    FrameBundle of both agents' noisy detections. Raises ValueError on overflow.
    """
    rng = np.random.default_rng(cfg.seed)
    objects = _spawn_objects(cfg, rng)

    gt_frames = []
    bundles = []
    with np.errstate(over="ignore"):  # overflows raise ValueError below
        for t in range(cfg.num_frames):
            gt_row = []
            positions = []
            for oid, obj in enumerate(objects):
                pos = obj.pos0 + t * obj.vel
                positions.append(pos)
                gt_row.append((oid, Detection(
                    x=pos[0], y=pos[1], z=pos[2], theta=obj.theta,
                    h=CAR_H, w=CAR_W, l=CAR_L, score=1.0)))
            if not np.isfinite(positions).all():
                raise ValueError(f"ground-truth position is not finite at frame {t}")
            gt_frames.append(gt_row)

            per_agent = {}
            for a, agent in enumerate(AGENTS):
                dets = []
                for oid, obj in enumerate(objects):
                    # fixed draw order keeps the stream reproducible
                    drop_u = rng.uniform()
                    noise = rng.normal(0.0, 1.0, size=3)
                    jitter = rng.normal(0.0, 1.0)
                    pos = positions[oid]
                    if _occluded(pos[0], pos[1], cfg.occlusion_sectors[a]):
                        continue
                    if drop_u < cfg.dropout[a]:
                        continue
                    noisy = pos + cfg.sigma[a] * noise
                    x, y, z = noisy[0], noisy[1], noisy[2]  # indexing is cheaper than unpacking
                    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                        raise ValueError("detection position is not finite "
                                         f"at frame {t}, agent {agent}")
                    score = min(1.0, max(0.0, cfg.score_base + cfg.score_jitter * jitter))
                    dets.append(validate_detection(Detection(
                        x=x, y=y, z=z, theta=obj.theta,
                        h=CAR_H, w=CAR_W, l=CAR_L, score=score)))
                per_agent[agent] = dets
            bundles.append(FrameBundle(frame=t, detections_by_agent=per_agent))
    return gt_frames, bundles
