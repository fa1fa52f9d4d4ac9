"""Synthetic two-agent scenarios: ground truth plus noisy detections.

Objects are car-like boxes moving at constant velocity in a square world
centered on the origin. Both agents observe from the origin: an agent
misses an object when its bearing falls in one of that agent's occlusion
sectors, or with the agent's dropout probability. Observed centroids get
independent Gaussian noise. Everything is deterministic per seed.
ScenarioConfig checks its own fields; core.config_kwargs the root and keys.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .core import FLOAT_MAX, Detection, FrameBundle, config_kwargs, wrap_angle

CAR_L, CAR_W, CAR_H = 4.5, 1.8, 1.6
MIN_SPAWN_SEPARATION = 8.0  # centers; keeps >= 2 m box clearance
MAX_SPAWN_ATTEMPTS = 10000

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
        # per agent: a value each, or a list of (lo, hi) sectors each
        for key, depth in (("sigma", 1), ("dropout", 1), ("occlusion_sectors", 3)):
            object.__setattr__(self, key, _tuples(key, getattr(self, key), depth))
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
                            ("dropout", self.dropout), ("score_base", [self.score_base]),
                            ("score_jitter", [self.score_jitter]),
                            ("occlusion_sectors", bounds)):
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in values):
                raise ValueError(f"{key} must be a number")
            if not all(-FLOAT_MAX <= v <= FLOAT_MAX for v in values):
                raise ValueError(f"{key} must be finite")
        if self.world_extent < 0:
            raise ValueError("world_extent must be >= 0")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma must be >= 0")
        if any(not 0.0 <= p <= 1.0 for p in self.dropout):
            raise ValueError("dropout must lie in [0, 1]")
        if self.speed_min < 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 <= speed_min <= speed_max")

    def to_dict(self) -> dict:
        return asdict(self)


def _tuples(key: str, value, depth: int) -> tuple:
    """value, lists nested depth deep, as tuples; anything else where a list
    belongs is refused, naming key."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list")
    return tuple(_tuples(key, v, depth - 1) if depth > 1 else v for v in value)


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    return ScenarioConfig(**config_kwargs(ScenarioConfig, raw))


def _in_sector(angle: float, lo: float, hi: float) -> bool:
    if lo <= hi:
        return lo <= angle < hi
    return angle >= lo or angle < hi


def _spawn_objects(cfg: ScenarioConfig, rng) -> list:
    """(x, y, vx, vy, theta) of each object, as Python floats."""
    half = cfg.world_extent / 2.0
    # each placed object took an attempt, so at most MAX_SPAWN_ATTEMPTS are placed
    centres = np.empty((min(cfg.num_objects, MAX_SPAWN_ATTEMPTS), 2))
    objects = []
    attempts = 0
    while len(objects) < cfg.num_objects:
        attempts += 1
        if attempts > MAX_SPAWN_ATTEMPTS:
            raise ValueError("world too small for the requested object count")
        pos = rng.uniform(-half, half, size=2)
        if (np.hypot(*(pos - centres[:len(objects)]).T) < MIN_SPAWN_SEPARATION).any():
            continue
        centres[len(objects)] = pos
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        heading = rng.uniform(-math.pi, math.pi)
        x, y = pos.tolist()
        objects.append((x, y, speed * math.cos(heading), speed * math.sin(heading),
                        wrap_angle(heading)))
    return objects


def generate(cfg: ScenarioConfig):
    """Build (gt_frames, bundles) for the configured scenario.

    gt_frames[t] is a list of (object_id, Detection); bundles[t] is the
    FrameBundle of both agents' noisy detections. Raises ValueError on overflow.
    """
    rng = np.random.default_rng(cfg.seed)
    objects = _spawn_objects(cfg, rng)
    z = CAR_H / 2.0  # objects move in the plane
    sectors = [[(wrap_angle(lo), wrap_angle(hi)) for lo, hi in agent_sectors]
               for agent_sectors in cfg.occlusion_sectors]
    agents = list(zip(AGENTS, cfg.sigma, cfg.dropout, sectors))
    thetas = [theta for *_, theta in objects]

    gt_frames = []
    bundles = []
    for t in range(cfg.num_frames):
        positions = [(x + t * vx, y + t * vy) for x, y, vx, vy, _ in objects]
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in positions):
            raise ValueError(f"ground-truth position is not finite at frame {t}")
        gt_frames.append([(oid, Detection(x, y, z, theta, CAR_H, CAR_W, CAR_L, 1.0))
                          for oid, ((x, y), theta) in enumerate(zip(positions, thetas))])
        bearings = [math.atan2(y, x) for x, y in positions] if any(sectors) else None

        per_agent = {}
        for agent, sigma, dropout, agent_sectors in agents:
            dets = []
            for oid, (x, y) in enumerate(positions):
                # fixed draw order keeps the stream reproducible: one uniform
                # (random() is uniform() bit for bit), then four normals, for
                # the three noise axes and the score jitter
                drop_u = rng.random()
                nx, ny, nz, jitter = rng.normal(0.0, 1.0, size=4).tolist()
                if agent_sectors and any(_in_sector(bearings[oid], lo, hi)
                                         for lo, hi in agent_sectors):
                    continue
                if drop_u < dropout:
                    continue
                dx, dy, dz = x + sigma * nx, y + sigma * ny, z + sigma * nz
                if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(dz)):
                    raise ValueError("detection position is not finite "
                                     f"at frame {t}, agent {agent}")
                score = min(1.0, max(0.0, cfg.score_base + cfg.score_jitter * jitter))
                dets.append(Detection(dx, dy, dz, thetas[oid], CAR_H, CAR_W, CAR_L, score))
            per_agent[agent] = dets
        bundles.append(FrameBundle(frame=t, detections_by_agent=per_agent))
    return gt_frames, bundles
