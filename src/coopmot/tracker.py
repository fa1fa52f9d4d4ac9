"""Frame-by-frame tracking pipelines and track lifecycle management.

Three pipelines share the same association/update/lifecycle machinery:

* baseline: concatenate all agents' raw detections, single association.
* aos: smooth all detections with cross-swapped anchors, single
  association of the refined set with tracks.
* tsa: two refined sets (one per anchoring agent); the second stage
  retries tracks left unmatched by the first, rescuing objects whose
  first-stage boxes were dragged off by the partner agent's data.

Each step stacks the frame's detections once into (N, 7) box and (N,)
score arrays; refinement, association, births and the Kalman update all
work on those arrays. The track states stored in a
TrackSet are the predictions for the frame about to be processed; each
step ends by predicting every live track for the next frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import assign, graphlap, kalman
from .core import FrameBundle, TrackerConfig, Method


@dataclass(frozen=True)
class TrackSet:
    """Live tracks plus the id counter and step index."""

    tracks: kalman.Tracks
    next_id: int = 1
    frame: int = 0


@dataclass(frozen=True)
class FrameOutput:
    """Boxes emitted for one frame: (track_id, box 7-vector, score)."""

    frame: int
    emitted: tuple


def new_trackset() -> TrackSet:
    return TrackSet(kalman.init_track(np.zeros((0, kalman.MEAS_DIM)), (), 1,
                                      kalman.default_model()))


def manage_lifecycle(tracks: kalman.Tracks, matched, cfg: TrackerConfig) -> kalman.Tracks:
    """Confirm matched tracks, age unmatched ones, drop dead ones.

    matched is a bool mask over the rows. Matched tracks must already carry
    post-update counters (the Kalman update increments hits and clears
    misses). Unmatched tracks get a miss, lose their hit streak, and are
    dropped once misses reach max_age. Confirmed status is never revoked
    short of death.
    """
    confirmed = np.where(matched, tracks.confirmed | (tracks.hits >= cfg.min_hits),
                         tracks.confirmed)
    misses = np.where(matched, tracks.misses, tracks.misses + 1)
    hits = np.where(matched, tracks.hits, 0)
    return replace(tracks, hits=hits, misses=misses, confirmed=confirmed).take(
        matched | (misses < cfg.max_age))


def _stacked(bundle: FrameBundle):
    """Every agent's detections stacked in agent order: (N, 7) boxes, (N,)
    scores and the detection count of each agent."""
    agents = bundle.detections_by_agent.values()
    table = np.array([(d.x, d.y, d.z, d.theta, d.h, d.w, d.l, d.score)
                      for dets in agents for d in dets], dtype=float).reshape(-1, 8)
    sizes = [len(dets) for dets in agents]
    return table[:, :kalman.MEAS_DIM], table[:, kalman.MEAS_DIM], sizes


def _emit(ts: TrackSet, tracks: kalman.Tracks, cfg: TrackerConfig) -> FrameOutput:
    warm = cfg.warm_start and ts.frame < cfg.min_hits - 1
    rows = np.flatnonzero(tracks.confirmed | warm)
    return FrameOutput(frame=ts.frame, emitted=tuple(zip(
        tracks.ids[rows].tolist(), tracks.states[rows, :kalman.MEAS_DIM],
        tracks.scores[rows].tolist())))


def _associate_update(tracks, boxes, scores, cfg, model):
    """One association round: (updated tracks, matched row mask, unmatched
    box indices)."""
    result = assign.associate(tracks.states[:, :kalman.MEAS_DIM], boxes,
                              cfg.iou_assoc_threshold)
    rows, cols = result.matched_rows, result.matched_cols
    matched = np.zeros(len(tracks), dtype=bool)
    matched[rows] = True
    tracks = kalman.update(tracks, rows, boxes[cols], scores[cols], model)
    return tracks, matched, result.unmatched_cols


def _finish_step(ts, tracks, matched, born_boxes, born_scores, cfg, model):
    born = kalman.init_track(born_boxes, born_scores, ts.next_id, model)
    alive = manage_lifecycle(tracks, matched, cfg).concat(born)
    output = _emit(ts, alive, cfg)
    return TrackSet(kalman.predict(alive, model), ts.next_id + len(born),
                    ts.frame + 1), output


def _single_stage_step(ts: TrackSet, boxes, scores, cfg, model):
    tracks, matched, unmatched_cols = _associate_update(ts.tracks, boxes, scores,
                                                        cfg, model)
    return _finish_step(ts, tracks, matched, boxes[unmatched_cols],
                        scores[unmatched_cols], cfg, model)


def step_baseline(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Early fusion without refinement: concatenate and associate."""
    boxes, scores, _ = _stacked(bundle)
    return _single_stage_step(ts, boxes, scores, cfg, model)


def _refined(bundle: FrameBundle, scheme: str, cfg: TrackerConfig):
    """(variants, N, 7) refined boxes, their (N,) scores, and how many
    leading boxes come from cross-matched nodes."""
    boxes, scores, sizes = _stacked(bundle)
    if len(sizes) > 2:
        raise ValueError(f"pipelines support at most two agents, bundle has {len(sizes)}")
    if len(boxes) == 0:
        variants = 1 if scheme == graphlap.SCHEME_AOS else 2
        return np.zeros((variants, 0, kalman.MEAS_DIM)), np.zeros(0), 0
    refined = graphlap.refine(boxes, scores, sizes[0], scheme,
                              cfg.cross_agent_iou_threshold)
    m = refined.node_map.num_matched
    if cfg.dedup_matched_pairs:
        return (*graphlap.collapse_matched(refined), m)
    return refined.boxes, refined.scores, 2 * m


def step_aos(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Refine with one-shot anchors, then a single association stage."""
    boxes, scores, _ = _refined(bundle, graphlap.SCHEME_AOS, cfg)
    return _single_stage_step(ts, boxes[0], scores, cfg, model)


def step_tsa(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Two association stages over the two anchor variants.

    Stage 2 retries only tracks unmatched in stage 1, against the
    second-variant boxes of cross-matched nodes whose stage-1 box went
    unmatched; with no cross-agent matches the second stage is empty and
    the step degenerates to the one-stage pipeline exactly. Stage 2 never
    initializes tracks (stage 1 already initialized every unmatched box;
    a second initialization of the same node would duplicate it).
    """
    (boxes_ij, boxes_ji), scores, num_cross = _refined(bundle, graphlap.SCHEME_TSA, cfg)

    tracks, matched, unmatched_cols = _associate_update(ts.tracks, boxes_ij, scores,
                                                        cfg, model)
    stage2_rows = np.flatnonzero(~matched)
    candidates = unmatched_cols[unmatched_cols < num_cross]
    if len(stage2_rows) and len(candidates):
        result = assign.associate(tracks.states[stage2_rows, :kalman.MEAS_DIM],
                                  boxes_ji[candidates], cfg.iou_assoc_threshold)
        rows, cols = stage2_rows[result.matched_rows], candidates[result.matched_cols]
        tracks = kalman.update(tracks, rows, boxes_ji[cols], scores[cols], model)
        matched[rows] = True

    return _finish_step(ts, tracks, matched, boxes_ij[unmatched_cols],
                        scores[unmatched_cols], cfg, model)


_STEPS = {
    Method.BASELINE: step_baseline,
    Method.AOS: step_aos,
    Method.TSA: step_tsa,
}


def run_sequence(frames, cfg: TrackerConfig, model=None) -> list:
    """Fold the configured pipeline over an ordered frame sequence."""
    if model is None:
        model = kalman.default_model()
    step = _STEPS[cfg.method]
    ts = new_trackset()
    outputs = []
    for bundle in frames:
        ts, out = step(ts, bundle, cfg, model)
        outputs.append(replace(out, frame=bundle.frame))
    return outputs
