"""Frame-by-frame tracking pipelines and track lifecycle management.

One step function serves the three pipelines; they differ only in the
boxes a frame offers the tracks:

* baseline: all agents' raw detections, concatenated.
* aos: all detections smoothed with cross-swapped anchors.
* tsa: two refined sets (one per anchoring agent). A second association
  stage retries tracks left unmatched by the first, rescuing objects whose
  first-stage boxes were dragged off by the partner agent's data.

Each step stacks the frame's detections once into (N, 7) box and (N,)
score arrays; refinement, association, births and the Kalman update all
work on those arrays, under one Kalman model, MODEL. A TrackSet stores the
predictions for the frame about to be processed; both association stages
read them, a track takes at most one Kalman update per frame, and one
manage_lifecycle pass over the updated tracks and the births alone moves
the hit and miss counters. Each step ends by predicting every live track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assign, graphlap, kalman
from .core import FrameBundle, Method, TrackerConfig, scored_values

MODEL = kalman.default_model()


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
    return TrackSet(kalman.init_track(np.zeros((0, kalman.MEAS_DIM)), (), 1, MODEL))


def manage_lifecycle(tracks: kalman.Tracks, matched, cfg: TrackerConfig) -> kalman.Tracks:
    """Count hits and misses, confirm and drop tracks: the whole lifecycle.

    matched is a bool mask over the rows, True for each birth. A matched
    track gets one more hit and no misses, and is confirmed once its hits
    reach min_hits (a birth, from 0 hits, at once when min_hits = 1). An
    unmatched track loses its hit streak, gets one more miss, and is
    dropped once misses reach max_age. Confirmation lasts until death.
    """
    hits = np.where(matched, tracks.hits + 1, 0)
    misses = np.where(matched, 0, tracks.misses + 1)
    confirmed = tracks.confirmed | (hits >= cfg.min_hits)
    return kalman.Tracks(tracks.states, tracks.covariances, tracks.ids, hits, misses,
                         confirmed, tracks.scores).take(matched | (misses < cfg.max_age))


def _stacked(bundle: FrameBundle):
    """Every agent's detections stacked in agent order: (N, 7) boxes, (N,)
    scores and the detection count of each agent. A Detection checked
    itself when built, so the rows need no second check."""
    agents = bundle.detections_by_agent.values()
    table = np.array([scored_values(d) for dets in agents for d in dets], float).reshape(-1, 8)
    sizes = [len(dets) for dets in agents]
    return table[:, :kalman.MEAS_DIM], table[:, kalman.MEAS_DIM], sizes


def _emit(ts: TrackSet, frame: int, tracks: kalman.Tracks, cfg: TrackerConfig) -> FrameOutput:
    warm = cfg.warm_start and ts.frame < cfg.min_hits - 1
    rows = np.flatnonzero(tracks.confirmed | warm)
    return FrameOutput(frame=frame, emitted=tuple(zip(
        tracks.ids[rows].tolist(), tracks.states[rows, :kalman.MEAS_DIM],
        tracks.scores[rows].tolist())))


def _candidates(bundle: FrameBundle, cfg: TrackerConfig):
    """The boxes the frame offers the tracks: (variants, K, 7) boxes, their
    (K,) scores, and how many leading boxes come from cross-matched nodes.

    baseline offers the raw boxes, aos one refined variant, tsa the ij and
    ji variants (one variant when the frame is empty)."""
    boxes, scores, sizes = _stacked(bundle)
    if cfg.method is not Method.BASELINE and len(sizes) > 2:
        raise ValueError(f"pipelines support at most two agents, bundle has {len(sizes)}")
    if cfg.method is Method.BASELINE or len(boxes) == 0:
        return boxes[None], scores, 0
    refined = graphlap.refine(boxes, scores, sizes[0], cfg)
    return refined.boxes, refined.scores, refined.num_cross


def step(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig):
    """Associate, update, age and birth tracks for one frame; the output
    is labelled with bundle.frame.

    Stage 1 associates every track's prediction with the first-variant
    boxes. When a second variant exists (tsa), stage 2 associates the
    predictions of the tracks stage 1 left unmatched with the second-variant
    boxes of cross-matched nodes whose stage-1 box went unmatched; with no
    cross-agent matches it is empty. The rows either stage matched take one
    Kalman update, so a track takes at most one per frame. Stage 1's
    unmatched boxes are born after those rows, and one manage_lifecycle
    pass ages them all, births as matched. Stage 2 never starts tracks: a
    second birth of the same node would duplicate it. A frame with no
    boxes and no live tracks only advances the step index.
    """
    boxes, scores, num_cross = _candidates(bundle, cfg)
    if not boxes.shape[1] and not len(ts.tracks):
        return TrackSet(ts.tracks, ts.next_id, ts.frame + 1), FrameOutput(bundle.frame, ())
    predicted = ts.tracks.states[:, :kalman.MEAS_DIM]
    first = assign.associate(predicted, boxes[0], cfg.iou_assoc_threshold)
    rows, cols, z = first.matched_rows, first.matched_cols, boxes[0, first.matched_cols]

    unmatched_cols = first.unmatched_cols
    retry = unmatched_cols[unmatched_cols < num_cross]
    if len(boxes) > 1 and len(first.unmatched_rows) and len(retry):
        second = assign.associate(predicted[first.unmatched_rows], boxes[1, retry],
                                  cfg.iou_assoc_threshold)
        retried = retry[second.matched_cols]
        rows = np.concatenate([rows, first.unmatched_rows[second.matched_rows]])
        cols = np.concatenate([cols, retried])
        z = np.concatenate([z, boxes[1, retried]])

    born = kalman.init_track(boxes[0, unmatched_cols], scores[unmatched_cols], ts.next_id,
                             MODEL)
    matched = np.arange(len(ts.tracks) + len(born)) >= len(ts.tracks)  # births count as matched
    matched[rows] = True
    alive = manage_lifecycle(kalman.update(ts.tracks.concat(born), rows, z, scores[cols], MODEL),
                             matched, cfg)
    output = _emit(ts, bundle.frame, alive, cfg)
    return TrackSet(kalman.predict(alive, MODEL), ts.next_id + len(born),
                    ts.frame + 1), output


def run_sequence(frames, cfg: TrackerConfig, model=None) -> list:
    """Fold the configured pipeline over an ordered frame sequence; model may only be None."""
    if model is not None:
        raise TypeError("run_sequence tracks with tracker.MODEL; pass no model")
    ts = new_trackset()
    outputs = []
    for bundle in frames:
        ts, out = step(ts, bundle, cfg)
        outputs.append(out)
    return outputs
