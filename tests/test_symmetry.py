"""Symmetries of the tracking pipelines.

Rigid motion: translating every detection, or rotating it about z, moves
every emitted box by the same motion and leaves the track ids alone, for
all three methods. Agent reversal: baseline and aos score the same when the
two agents swap places. tsa is not held to the second relation: it treats
the first agent as agent i, and reversing the agents flips the frame-wide
shift of its candidate boxes (see graphlap).
"""

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


@pytest.mark.parametrize("seed", [0, 4, 8])
@pytest.mark.parametrize("method", [Method.BASELINE, Method.AOS])
def test_agent_reversal_keeps_scores(method, seed):
    gt_frames, bundles = sim.generate(replace(directional_scenario(), seed=seed))
    swapped = [FrameBundle(frame=b.frame,
                           detections_by_agent=dict(reversed(b.detections_by_agent.items())))
               for b in bundles]
    cfg = directional_tracker_config(method)

    def scores(frames):
        preds = [list(o.emitted) for o in tracker.run_sequence(frames, cfg)]
        tally = metrics.evaluate_sequence(gt_frames, preds)
        return (*metrics.mota_motp(tally.totals),
                metrics.mostly_tracked(tally.frames_present, tally.frames_matched))

    assert scores(swapped) == pytest.approx(scores(bundles), rel=0.0, abs=1e-9)
