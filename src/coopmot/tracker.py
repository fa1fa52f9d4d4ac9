"""Frame-by-frame tracking pipelines and track lifecycle management.

Three pipelines share the same association/update/lifecycle machinery:

* baseline: concatenate all agents' raw detections, single association.
* aos: smooth all detections with cross-swapped anchors, single
  association of the refined set with tracks.
* tsa: two refined sets (one per anchoring agent); the second stage
  retries tracks left unmatched by the first, rescuing objects whose
  first-stage boxes were dragged off by the partner agent's data.

Track states stored in a TrackSet are the predictions for the frame about
to be processed; each step ends by predicting every live track for the
next frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import assign, graphlap, kalman
from .core import FrameBundle, TrackerConfig, TrackStatus, Method


@dataclass(frozen=True)
class TrackSet:
    """Live tracks plus the id counter and step index."""

    tracks: tuple = ()
    next_id: int = 1
    frame: int = 0


@dataclass(frozen=True)
class FrameOutput:
    """Boxes emitted for one frame: (track_id, box 7-vector, score)."""

    frame: int
    emitted: tuple


def new_trackset() -> TrackSet:
    return TrackSet()


def manage_lifecycle(tracks, matched_ids, cfg: TrackerConfig) -> list:
    """Confirm matched tracks, age unmatched ones, drop dead ones.

    Matched tracks must already carry post-update counters (the Kalman
    update increments hits and clears misses). Unmatched tracks get a
    miss, lose their hit streak, and are dropped once misses reach
    max_age. Confirmed status is never revoked short of death.
    """
    survivors = []
    for t in tracks:
        if t.track_id in matched_ids:
            confirmed = t.status is TrackStatus.CONFIRMED or t.hits >= cfg.min_hits
            status = TrackStatus.CONFIRMED if confirmed else TrackStatus.TENTATIVE
            survivors.append(replace(t, status=status))
        else:
            misses = t.misses + 1
            if misses >= cfg.max_age:
                continue
            survivors.append(replace(t, misses=misses, hits=0))
    return survivors


def _split_agents(bundle: FrameBundle):
    agents = bundle.agents
    if len(agents) > 2:
        raise ValueError(
            f"pipelines support at most two agents, bundle has {len(agents)}")
    dets_i = list(bundle.detections_by_agent[agents[0]]) if len(agents) >= 1 else []
    dets_j = list(bundle.detections_by_agent[agents[1]]) if len(agents) >= 2 else []
    return dets_i, dets_j


def _emit(ts: TrackSet, tracks, cfg: TrackerConfig) -> FrameOutput:
    warm = cfg.warm_start and ts.frame < cfg.min_hits - 1
    rows = []
    for t in tracks:
        if t.status is TrackStatus.CONFIRMED or warm:
            rows.append((t.track_id, t.box7(), t.score))
    rows.sort(key=lambda r: r[0])
    return FrameOutput(frame=ts.frame, emitted=tuple(rows))


def _predict_all(tracks, model) -> tuple:
    return tuple(kalman.predict(t, model) for t in tracks)


def _init_tracks(dets, start_id, model):
    born = []
    tid = start_id
    for d in dets:
        born.append(kalman.init_track(d, tid, model))
        tid += 1
    return born, tid


def _associate_update(tracks, det_boxes, cfg, model):
    """One association round: returns (updated tracks in order, matched ids,
    unmatched track list, unmatched detection indices)."""
    result = assign.associate(tracks, det_boxes, cfg.iou_assoc_threshold)
    by_row = {r: c for r, c in result.matched_pairs}
    updated, matched_ids, unmatched_tracks = [], set(), []
    for r, t in enumerate(tracks):
        if r in by_row:
            det = det_boxes[by_row[r]]
            updated.append(kalman.update(t, det.box7(), model, score=det.score))
            matched_ids.add(t.track_id)
        else:
            updated.append(t)
            unmatched_tracks.append(t)
    return updated, matched_ids, unmatched_tracks, list(result.unmatched_cols)


def _finish_step(ts, tracks, matched_ids, born, cfg, model, next_id):
    alive = manage_lifecycle(tracks, matched_ids, cfg) + born
    output = _emit(ts, alive, cfg)
    predicted = _predict_all(alive, model)
    return TrackSet(tracks=predicted, next_id=next_id, frame=ts.frame + 1), output


def _single_stage_step(ts: TrackSet, det_boxes, cfg, model):
    tracks = list(ts.tracks)
    updated, matched_ids, _, unmatched_cols = _associate_update(
        tracks, det_boxes, cfg, model)
    born, next_id = _init_tracks([det_boxes[c] for c in unmatched_cols],
                                 ts.next_id, model)
    return _finish_step(ts, updated, matched_ids, born, cfg, model, next_id)


def step_baseline(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Early fusion without refinement: concatenate and associate."""
    dets = [d for agent in bundle.agents for d in bundle.detections_by_agent[agent]]
    return _single_stage_step(ts, dets, cfg, model)


def _refined_aos_boxes(bundle, cfg):
    dets_i, dets_j = _split_agents(bundle)
    if not dets_i and not dets_j:
        return []
    rset = graphlap.refine(dets_i, dets_j, graphlap.SCHEME_AOS,
                           cfg.cross_agent_iou_threshold)
    if cfg.dedup_matched_pairs:
        boxes, _ = graphlap.collapse_matched(rset)
        return boxes
    return list(rset.boxes)


def step_aos(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Refine with one-shot anchors, then a single association stage."""
    return _single_stage_step(ts, _refined_aos_boxes(bundle, cfg), cfg, model)


def step_tsa(ts: TrackSet, bundle: FrameBundle, cfg: TrackerConfig, model):
    """Two association stages over the two anchor variants.

    Stage 2 retries only tracks unmatched in stage 1, against the
    second-variant boxes of cross-matched nodes whose stage-1 box went
    unmatched; with no cross-agent matches the second stage is empty and
    the step degenerates to the one-stage pipeline exactly. Stage 2 never
    initializes tracks (stage 1 already initialized every unmatched box;
    a second initialization of the same node would duplicate it).
    """
    dets_i, dets_j = _split_agents(bundle)
    if not dets_i and not dets_j:
        return _single_stage_step(ts, [], cfg, model)

    rset_ij, rset_ji = graphlap.refine(dets_i, dets_j, graphlap.SCHEME_TSA,
                                       cfg.cross_agent_iou_threshold)
    num_matched = rset_ij.node_map.num_matched
    if cfg.dedup_matched_pairs:
        boxes_ij, groups = graphlap.collapse_matched(rset_ij)
        boxes_ji, _ = graphlap.collapse_matched(rset_ji)
    else:
        boxes_ij = list(rset_ij.boxes)
        boxes_ji = list(rset_ji.boxes)
        groups = [(k,) for k in range(rset_ij.node_map.size)]
    cross_matched = [g[0] < 2 * num_matched for g in groups]

    tracks = list(ts.tracks)
    updated, matched_ids, unmatched_tracks, unmatched_cols = _associate_update(
        tracks, boxes_ij, cfg, model)
    born, next_id = _init_tracks([boxes_ij[c] for c in unmatched_cols],
                                 ts.next_id, model)

    unmatched_set = set(unmatched_cols)
    stage2_boxes = [boxes_ji[c] for c in range(len(boxes_ji))
                    if cross_matched[c] and c in unmatched_set]
    if unmatched_tracks and stage2_boxes:
        result2 = assign.associate(unmatched_tracks, stage2_boxes,
                                   cfg.iou_assoc_threshold)
        stage2_updates = {}
        for r, c in result2.matched_pairs:
            t = unmatched_tracks[r]
            det = stage2_boxes[c]
            stage2_updates[t.track_id] = kalman.update(t, det.box7(), model,
                                                       score=det.score)
            matched_ids.add(t.track_id)
        updated = [stage2_updates.get(t.track_id, t) for t in updated]

    return _finish_step(ts, updated, matched_ids, born, cfg, model, next_id)


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
