"""Symmetries of the tracking pipelines.

Rigid motion: translating every detection, or rotating it about z, moves
every emitted box by the same motion and leaves the track ids alone, for
all three methods. Agent reversal: baseline and aos score the same when the
two agents swap places. tsa is not held to the second relation: it treats
the first agent as agent i, and reversing the agents flips the frame-wide
shift of its candidate boxes (see graphlap).

Exact reductions: when the second agent adds nothing, fusion is
single-agent tracking. With an empty partner, aos and tsa emit exactly the
ids and boxes of baseline on the first agent alone: no node is matched, so
every residual is zero and tsa has no box for stage 2. With a partner that
copies the first agent, each detection matches its copy at IoU 1, the
anchors are the raw centroids and each pair merges onto itself; aos is held
to this on drawn scenes, tsa on the simulated ones only, as its stage 2
could match a cross-matched box that stage 1 gated out. Detection order
within an agent leaves every method's scores alone.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopmot import metrics, sim, tracker
from coopmot.core import Detection, FrameBundle, Method, TrackerConfig, wrap_angle
from test_acceptance import directional_scenario, directional_tracker_config
from test_tracker import separated_scenes

# (rotation about z in radians, then translation)
MOTIONS = ((0.0, (37.25, -12.5, 0.75)), (0.7, (0.0, 0.0, 0.0)),
           (math.pi / 2, (0.0, 0.0, 0.0)))


def move(box, phi, shift):
    """The [x y z theta h w l] box rotated by phi about z, then shifted."""
    x, y, z, theta, *extents = box
    c, s = math.cos(phi), math.sin(phi)
    return [c * x - s * y + shift[0], s * x + c * y + shift[1], z + shift[2],
            wrap_angle(theta + phi), *extents]


def unmove(box, phi, shift):
    """The inverse of move."""
    x, y, z, theta, *extents = box
    x, y = x - shift[0], y - shift[1]
    c, s = math.cos(phi), math.sin(phi)
    return [c * x + s * y, -s * x + c * y, z - shift[2], wrap_angle(theta - phi), *extents]


def moved(frames, phi, shift):
    return [FrameBundle(frame=b.frame, detections_by_agent={
        agent: [Detection(*move(d.box7().tolist(), phi, shift), d.score) for d in dets]
        for agent, dets in b.detections_by_agent.items()}) for b in frames]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("method", list(Method))
@given(scene=separated_scenes(), dedup=st.booleans())
def test_rigid_motion_moves_boxes_and_keeps_ids(method, scene, dedup):
    frames = scene[0]
    cfg = TrackerConfig(method=method, dedup_matched_pairs=dedup)
    want = tracker.run_sequence(frames, cfg)
    for phi, shift in MOTIONS:
        got = tracker.run_sequence(moved(frames, phi, shift), cfg)
        for g, w in zip(got, want, strict=True):
            assert [row[0] for row in g.emitted] == [row[0] for row in w.emitted]
            for (_, box, score), (_, ref, ref_score) in zip(g.emitted, w.emitted):
                gap = np.subtract(unmove(box.tolist(), phi, shift), ref)
                gap[3] = wrap_angle(gap[3])
                assert np.max(np.abs(gap)) <= 1e-9
                assert score == ref_score


SIM_SEEDS = (0, 4, 8)


@functools.lru_cache(maxsize=None)
def sim_scene(seed):
    """(gt_frames, bundles) of the directional scenario on seed."""
    return sim.generate(replace(directional_scenario(), seed=seed))


def scores(gt_frames, frames, method):
    """MOTA, MOTP and MT of method on frames under the directional config."""
    preds = [list(o.emitted) for o in
             tracker.run_sequence(frames, directional_tracker_config(method))]
    tally = metrics.evaluate_sequence(gt_frames, preds)
    return (*metrics.mota_motp(tally.totals),
            metrics.mostly_tracked(tally.frames_present, tally.frames_matched))


@functools.lru_cache(maxsize=None)
def sim_scores(seed, method):
    """scores of method on the unchanged simulated scene."""
    gt_frames, bundles = sim_scene(seed)
    return scores(gt_frames, bundles, method)


@pytest.mark.parametrize("seed", SIM_SEEDS)
@pytest.mark.parametrize("method", [Method.BASELINE, Method.AOS])
def test_agent_reversal_keeps_scores(method, seed):
    gt_frames, bundles = sim_scene(seed)
    swapped = [FrameBundle(frame=b.frame,
                           detections_by_agent=dict(reversed(b.detections_by_agent.items())))
               for b in bundles]
    assert scores(gt_frames, swapped, method) == pytest.approx(
        sim_scores(seed, method), rel=0.0, abs=1e-9)


@pytest.mark.parametrize("seed", SIM_SEEDS)
@pytest.mark.parametrize("method", list(Method))
def test_order_within_agent_keeps_scores(method, seed):
    gt_frames, bundles = sim_scene(seed)
    rng = np.random.default_rng(seed)
    shuffled = [FrameBundle(frame=b.frame, detections_by_agent={
        agent: [dets[k] for k in rng.permutation(len(dets))]
        for agent, dets in b.detections_by_agent.items()}) for b in bundles]
    assert scores(gt_frames, shuffled, method) == pytest.approx(
        sim_scores(seed, method), rel=0.0, abs=1e-9)


def emitted_rows(frames, cfg):
    """Every emitted (frame, track id, box, score), as Python values."""
    return [(o.frame, tid, box.tolist(), score)
            for o in tracker.run_sequence(frames, cfg) for tid, box, score in o.emitted]


def partnered(frames, partner):
    """Each frame with its first agent's detections only, and, unless
    partner is None, a second agent that sees partner(those detections)."""
    out = []
    for b in frames:
        agent, dets = next(iter(b.detections_by_agent.items()))
        by_agent = {agent: dets} if partner is None else {agent: dets, "partner": partner(dets)}
        out.append(FrameBundle(frame=b.frame, detections_by_agent=by_agent))
    return out


def nothing(dets):
    return []


REDUCTIONS = [(Method.AOS, nothing), (Method.TSA, nothing), (Method.AOS, list)]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("method, partner", REDUCTIONS)
@given(scene=separated_scenes())
def test_partner_adding_nothing_reduces_to_baseline(method, partner, scene):
    frames, cfg = scene[0], TrackerConfig(method=method, dedup_matched_pairs=True)
    want = emitted_rows(partnered(frames, None), replace(cfg, method=Method.BASELINE))
    assert emitted_rows(partnered(frames, partner), cfg) == want


@functools.lru_cache(maxsize=None)
def sim_baseline_alone(seed):
    """emitted_rows of baseline on the simulated scene's first agent."""
    return emitted_rows(partnered(sim_scene(seed)[1], None),
                        directional_tracker_config(Method.BASELINE))


@pytest.mark.parametrize("seed", SIM_SEEDS)
@pytest.mark.parametrize("method, partner", [*REDUCTIONS, (Method.TSA, list)])
def test_partner_adding_nothing_reduces_to_baseline_on_sim(method, partner, seed):
    frames = partnered(sim_scene(seed)[1], partner)
    assert emitted_rows(frames, directional_tracker_config(method)) == sim_baseline_alone(seed)
