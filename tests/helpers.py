"""Test helpers: box and track builders, the explicit-matrix and
per-object oracles, brute-force solvers and graph-frame generators.

Import rule: perfbench/workloads.py imports test_acceptance.py, which
imports this module, so the benchmark's process loads both. Neither may
import pytest (or conftest.py) at module level, and their import chain
holds only numpy, coopmot and this module. A reference pipeline of the
tracker (scipy per component) belongs in its own test module, outside this
chain. pytest fixtures live in conftest.py.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from coopmot import assign, geometry, graphlap, kalman, sim
from coopmot.core import Detection, FrameBundle, Method, TrackerConfig, wrap_angle
from coopmot.io import Pose


def make_box(x=0.0, y=0.0, z=0.0, theta=0.0, h=1.0, w=1.0, l=1.0, score=1.0):
    return Detection(x=x, y=y, z=z, theta=theta, h=h, w=w, l=l, score=score)


def born(d, model, track_id=1):
    """A one-row kalman.Tracks store initialized from the Detection d."""
    return kalman.init_track([d.box7()], [d.score], track_id, model)


def track_store(states, covariances):
    """A kalman.Tracks store of the given states (T, 10) and covariances
    (T, 10, 10), one row for a single (10,) state: ids 1..T, one hit, no
    misses, tentative, score 1."""
    states = np.array(states, dtype=float).reshape(-1, 10)
    t = len(states)
    return kalman.Tracks(states, np.array(covariances, dtype=float).reshape(t, 10, 10),
                         np.arange(1, t + 1), np.ones(t, dtype=int), np.zeros(t, dtype=int),
                         np.zeros(t, dtype=bool), np.ones(t))


# The constant-velocity model as explicit matrices, for the matrix-form
# oracles: the transition F adds each velocity to its position and the
# measurement H = [I 0] reads the box part of the state.
F = np.eye(10)
F[0, 7] = F[1, 8] = F[2, 9] = 1.0
H = np.hstack([np.eye(7), np.zeros((7, 3))])


def reference_predict(state, cov, model):
    """One track's predict, as the filter computed it track by track:
    the oracle for the batched kalman.predict."""
    state = F @ state
    state[3] = wrap_angle(state[3])
    cov = F @ cov @ F.T + model.Q
    return state, 0.5 * (cov + cov.T)


def reference_update(state, cov, z, model):
    """One track's measurement update with a box 7-vector, as the filter
    computed it track by track: the oracle for the batched kalman.update."""
    innovation = z - H @ state
    residual = wrap_angle(z[3] - state[3])
    if residual > np.pi / 2:
        residual -= np.pi
    elif residual < -np.pi / 2:
        residual += np.pi
    innovation[3] = residual
    chol = np.linalg.cholesky(H @ cov @ H.T + model.R)
    gain = np.linalg.solve(chol.T, np.linalg.solve(chol, H @ cov)).T
    state = state + gain @ innovation
    state[3] = wrap_angle(state[3])
    cov = cov - gain @ H @ cov
    return state, 0.5 * (cov + cov.T)


# The scene generator as it built every box from numpy scalars, object by
# object: the oracle for sim.generate, which must draw the same random
# stream and emit the same values bit for bit.
def _reference_in_sector(angle: float, sector) -> bool:
    lo, hi = sector
    lo, hi = wrap_angle(lo), wrap_angle(hi)
    if lo <= hi:
        return lo <= angle < hi
    return angle >= lo or angle < hi


def _reference_occluded(x: float, y: float, sectors) -> bool:
    bearing = math.atan2(y, x)
    return any(_reference_in_sector(bearing, s) for s in sectors)


@dataclass
class _ReferenceObject:
    pos0: np.ndarray
    vel: np.ndarray
    theta: float


def _reference_spawn(cfg, rng) -> list:
    half = cfg.world_extent / 2.0
    objects = []
    attempts = 0
    while len(objects) < cfg.num_objects:
        attempts += 1
        if attempts > 10000:
            raise ValueError("world too small for the requested object count")
        pos = rng.uniform(-half, half, size=2)
        if any(np.hypot(*(pos - o.pos0[:2])) < sim.MIN_SPAWN_SEPARATION for o in objects):
            continue
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        heading = rng.uniform(-math.pi, math.pi)
        vel = np.array([speed * math.cos(heading), speed * math.sin(heading), 0.0])
        objects.append(_ReferenceObject(
            pos0=np.array([pos[0], pos[1], sim.CAR_H / 2.0]),
            vel=vel, theta=wrap_angle(heading)))
    return objects


def reference_generate(cfg):
    """(gt_frames, bundles) of sim.generate, built per object from numpy
    scalars with the draw order uniform(), normal(size=3), normal()."""
    rng = np.random.default_rng(cfg.seed)
    objects = _reference_spawn(cfg, rng)

    gt_frames = []
    bundles = []
    with np.errstate(over="ignore"):  # overflows raise ValueError below
        for t in range(cfg.num_frames):
            positions = [obj.pos0 + t * obj.vel for obj in objects]
            if not np.isfinite(positions).all():
                raise ValueError(f"ground-truth position is not finite at frame {t}")
            gt_frames.append([(oid, Detection(
                x=pos[0], y=pos[1], z=pos[2], theta=obj.theta,
                h=sim.CAR_H, w=sim.CAR_W, l=sim.CAR_L, score=1.0))
                for oid, (obj, pos) in enumerate(zip(objects, positions))])

            per_agent = {}
            for a, agent in enumerate(sim.AGENTS):
                dets = []
                for oid, obj in enumerate(objects):
                    # fixed draw order keeps the stream reproducible
                    drop_u = rng.uniform()
                    noise = rng.normal(0.0, 1.0, size=3)
                    jitter = rng.normal(0.0, 1.0)
                    pos = positions[oid]
                    if _reference_occluded(pos[0], pos[1], cfg.occlusion_sectors[a]):
                        continue
                    if drop_u < cfg.dropout[a]:
                        continue
                    noisy = pos + cfg.sigma[a] * noise
                    x, y, z = noisy[0], noisy[1], noisy[2]  # indexing is cheaper than unpacking
                    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                        raise ValueError("detection position is not finite "
                                         f"at frame {t}, agent {agent}")
                    score = min(1.0, max(0.0, cfg.score_base + cfg.score_jitter * jitter))
                    dets.append(Detection(
                        x=x, y=y, z=z, theta=obj.theta,
                        h=sim.CAR_H, w=sim.CAR_W, l=sim.CAR_L, score=score))
                per_agent[agent] = dets
            bundles.append(FrameBundle(frame=t, detections_by_agent=per_agent))
    return gt_frames, bundles


def iou3d(a, b) -> float:
    """3D IoU of two boxes (Detections or 7-vectors), through iou_matrix."""
    return float(geometry.iou_matrix([a], [b])[0, 0])


def write_poses(path, poses: dict) -> None:
    """Write {(frame, agent): Pose} as the poses JSONL that io.read_poses reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for (frame, agent), p in sorted(poses.items()):
            fh.write(json.dumps({
                "frame": frame, "agent": agent,
                "x": p.x, "y": p.y, "z": p.z, "yaw": p.yaw,
            }) + "\n")


def rand_box7(rng, center_scale=2.0, extent_lo=0.5, extent_hi=4.0):
    return np.concatenate([
        rng.uniform(-center_scale, center_scale, 3),
        rng.uniform(-np.pi, np.pi, 1),
        rng.uniform(extent_lo, extent_hi, 3),
    ])


def box_aabb(b7):
    """Axis-aligned bounds of an oriented box, shape (2, 3)."""
    x, y, z, theta, h, w, l = b7[:7]
    c, s = abs(np.cos(theta)), abs(np.sin(theta))
    ex = c * l / 2 + s * w / 2
    ey = s * l / 2 + c * w / 2
    lo = np.array([x - ex, y - ey, z - h / 2])
    hi = np.array([x + ex, y + ey, z + h / 2])
    return np.stack([lo, hi])


def points_in_box(points, b7):
    x, y, z, theta, h, w, l = b7[:7]
    d = points - np.array([x, y, z])
    c, s = np.cos(theta), np.sin(theta)
    u = c * d[:, 0] + s * d[:, 1]
    v = -s * d[:, 0] + c * d[:, 1]
    return (np.abs(u) <= l / 2) & (np.abs(v) <= w / 2) & (np.abs(d[:, 2]) <= h / 2)


def mc_iou(a7, b7, rng, n=100_000):
    """Monte Carlo volume-membership IoU estimate (independent oracle)."""
    bounds = np.stack([box_aabb(a7), box_aabb(b7)])
    lo = bounds[:, 0, :].min(axis=0)
    hi = bounds[:, 1, :].max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = points_in_box(pts, a7)
    in_b = points_in_box(pts, b7)
    either = np.count_nonzero(in_a | in_b)
    if either == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / either


def brute_min_cost(cost):
    """Exhaustive minimum-cost assignment over all injections."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 0 or m == 0:
        return 0.0, []
    if n <= m:
        best, best_pairs = np.inf, []
        for perm in itertools.permutations(range(m), n):
            total = sum(cost[i, perm[i]] for i in range(n))
            if total < best:
                best, best_pairs = total, [(i, perm[i]) for i in range(n)]
        return best, best_pairs
    total, pairs = brute_min_cost(cost.T)
    return total, [(r, c) for c, r in pairs]


def brute_max_gated_matching(iou, threshold):
    """Max-total-IoU matching using only pairs at or above the threshold."""
    iou = np.asarray(iou, dtype=float)
    edges = [(r, c) for r in range(iou.shape[0]) for c in range(iou.shape[1])
             if iou[r, c] >= threshold]

    def best(remaining, used_r, used_c):
        if not remaining:
            return 0.0
        (r, c), rest = remaining[0], remaining[1:]
        skip = best(rest, used_r, used_c)
        if r in used_r or c in used_c:
            return skip
        take = iou[r, c] + best(rest, used_r | {r}, used_c | {c})
        return max(skip, take)

    return best(edges, frozenset(), frozenset())


def inverse_pose(p: Pose) -> Pose:
    """The pose that undoes p under io.to_global."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    return Pose(x=-(c * p.x + s * p.y), y=-(-s * p.x + c * p.y),
                z=-p.z, yaw=-p.yaw)


def total_detections(bundle) -> int:
    """Detections of every agent in one FrameBundle."""
    return sum(len(v) for v in bundle.detections_by_agent.values())


def laplacian_complete(n):
    """Laplacian of the complete graph on n nodes (degree minus adjacency)."""
    return float(n) * np.eye(n) - np.ones((n, n))


def differential_coords(positions):
    """Per-node sums of coordinate differences to all other nodes."""
    v = np.asarray(positions, dtype=float)
    return (v[:, None] - v[None, :]).sum(axis=1)


def stacked_lsq(positions, anchors):
    """Least-squares solution of the explicit stacked system
    [L; I] v = [L p; a], column by column, by pseudo-inverse."""
    n = positions.shape[0]
    l_ext = np.vstack([laplacian_complete(n), np.eye(n)])
    return np.linalg.pinv(l_ext) @ np.concatenate([differential_coords(positions), anchors])


VARIANTS = ("aos", "tsa_ij", "tsa_ji")


def matching(n_i, n_j, pairs):
    """AssociationResult naming the given (row, col) pairs; the rest unmatched."""
    pairs = np.array(sorted(pairs), dtype=int).reshape(-1, 2)
    free_i, free_j = np.ones(n_i, dtype=bool), np.ones(n_j, dtype=bool)
    free_i[pairs[:, 0]] = False
    free_j[pairs[:, 1]] = False
    return assign.AssociationResult(pairs[:, 0], pairs[:, 1],
                                    np.flatnonzero(free_i), np.flatnonzero(free_j))


def matched_pairs(result):
    """The matched (row, col) pairs of an AssociationResult, as a list."""
    return list(zip(result.matched_rows.tolist(), result.matched_cols.tolist()))


def stacked(dets_i, dets_j):
    """graphlap.refine's inputs for two agents' Detection lists: the (N, 7)
    boxes and (N,) scores of agent i's list over agent j's, and agent i's
    count."""
    dets = list(dets_i) + list(dets_j)
    boxes = np.array([d.box7() for d in dets]).reshape(-1, 7)
    return boxes, np.array([d.score for d in dets], dtype=float), len(dets_i)


def node_keys(dets_i, dets_j):
    """The (agent slot, position) key of every stacked row."""
    return [(0, k) for k in range(len(dets_i))] + [(1, k) for k in range(len(dets_j))]


def graph_frame(rng, n_i, n_j, m, scale=50.0, spread=1.5, coincident=False):
    """Two agents' detections with m cross-agent pairs at random indices.

    Returns (dets_i, dets_j, match). Each pair's j box sits near its i box
    (on it when coincident).
    """
    pos_i = rng.uniform(-scale, scale, (n_i, 3))
    pos_j = rng.uniform(-scale, scale, (n_j, 3))
    rows = rng.permutation(n_i)[:m]
    cols = rng.permutation(n_j)[:m]
    pos_j[cols] = pos_i[rows] + (0.0 if coincident else rng.normal(0, spread, (m, 3)))
    dets_i = [make_box(*map(float, p)) for p in pos_i]
    dets_j = [make_box(*map(float, p)) for p in pos_j]
    return dets_i, dets_j, matching(n_i, n_j, zip(rows.tolist(), cols.tolist()))


def random_graph_frame(rng, n_max, coincident=False):
    """graph_frame with 1 <= N <= n_max detections in total and 0 <= m pairs."""
    n = int(rng.integers(1, n_max + 1))
    n_i = int(rng.integers(0, n + 1))
    m = int(rng.integers(0, min(n_i, n - n_i) + 1))
    return graph_frame(rng, n_i, n - n_i, m, coincident=coincident)


def translated(dets, c):
    """The detections moved by the vector c, each at its position."""
    return [make_box(x=d.x + c[0], y=d.y + c[1], z=d.z + c[2]) for d in dets]


def permuted(dets_i, dets_j, match, perm_i, perm_j):
    """Each agent's list reordered (new position k holds old perm[k]), with
    the cross-agent pairs renamed to the new positions."""
    inv_i, inv_j = np.argsort(perm_i), np.argsort(perm_j)
    pairs = [(int(inv_i[r]), int(inv_j[c])) for r, c in matched_pairs(match)]
    return ([dets_i[k] for k in perm_i], [dets_j[k] for k in perm_j],
            matching(len(dets_i), len(dets_j), pairs))


def unpermuted(centroids, perm_i, perm_j):
    """Centroids of a permuted frame keyed back by (agent slot, position) in
    the original lists."""
    perms = (perm_i, perm_j)
    return {(s, int(perms[s][k])): v for (s, k), v in centroids.items()}


def by_key(centroids, keys):
    """Stack a {key: centroid} dict into an array in the order of keys."""
    return np.array([centroids[k] for k in keys])


def refined_centroids(dets_i, dets_j, match, variant):
    """graphlap.refine's centroids for one anchor variant under the given
    cross-agent matching, keyed by the (agent slot, position) of each node's
    detection."""
    # imported here: the benchmark imports this module, and unittest.mock
    # pulls in asyncio (about 9 MB of peak RSS)
    from unittest import mock
    cfg = TrackerConfig(method=Method.AOS if variant == "aos" else Method.TSA)
    with mock.patch.object(assign, "associate", lambda *args: match):
        refined = graphlap.refine(*stacked(dets_i, dets_j), cfg)
    assert len(refined.boxes) == (1 if variant == "aos" else 2)
    boxes = refined.boxes[max(VARIANTS.index(variant) - 1, 0)]
    keys = node_keys(dets_i, dets_j)
    return {keys[n]: box[:3] for n, box in zip(refined.node_map, boxes)}


def oracle_system(dets_i, dets_j, match, variant):
    """(keys, positions, anchors) with nodes in input order (agent i's list,
    then agent j's) and anchors set pair by pair: aos swaps the two
    centroids, tsa_ij gives both the j centroid, tsa_ji both the i one."""
    dets = list(dets_i) + list(dets_j)
    p = np.array([[d.x, d.y, d.z] for d in dets], dtype=float).reshape(-1, 3)
    a = p.copy()
    for r, c in matched_pairs(match):
        i, j = r, len(dets_i) + c
        if variant == "aos":
            a[i], a[j] = p[j], p[i]
        elif variant == "tsa_ij":
            a[i], a[j] = p[j], p[j]
        else:
            a[i], a[j] = p[i], p[i]
    return node_keys(dets_i, dets_j), p, a


def oracle_centroids(dets_i, dets_j, match, variant):
    """The centroids of refined_centroids, from the explicit stacked system."""
    keys, p, a = oracle_system(dets_i, dets_j, match, variant)
    return dict(zip(keys, stacked_lsq(p, a)))
