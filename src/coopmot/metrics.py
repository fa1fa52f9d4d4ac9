"""CLEAR-style frame matching and AMOTA-family sequence metrics.

Ground truth rows are (object_id, box) pairs, predictions are
(track_id, box, score) triples; boxes may be Detections or 7-vectors.
Matching is gated at IoU 0.25 by assign.gated_pairs, the rule that track
association uses. Identity switches use the per-object id-consistency
rule with carry-over: a switch is counted whenever an object's newly
matched track id differs from the last id it was ever matched to.

Each evaluation pass yields one FrameCounts of totals; the pass that keeps
every prediction also keeps each frame's matchings, for MT and analyze.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import assign, geometry

IOU_THRESHOLD = 0.25
NUM_THRESHOLDS = 40
MT_COVERAGE = 0.8


@dataclass
class FrameCounts:
    """The counts of one evaluation pass, summed over its frames."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    matched_iou_sum: float = 0.0
    gt_count: int = 0

    @property
    def recall(self) -> float:
        return self.tp / self.gt_count if self.gt_count else 0.0


@dataclass
class SequenceTally:
    """The pass that keeps every prediction: its totals, each frame's gated
    (object_id, track_id, iou) pairs in GT row order, and per object how
    many frames it is present in and matched in."""

    totals: FrameCounts
    matches: list
    frames_present: dict
    frames_matched: dict


class _FrameMatcher:
    """One frame's GT x prediction IoU matrix and its gated matchings.

    The matrix is computed once. A score threshold only decides which
    predictions are kept, and the kept set is fixed by how many survive,
    so the gated Hungarian result is memoised per kept count. The kept
    columns are sliced from the matrix in their original order, so the
    solver sees exactly the matrix of the kept boxes alone.
    """

    def __init__(self, gt, pred):
        self.gt_ids = [g[0] for g in gt]
        self.tids = [p[0] for p in pred]
        self.scores = np.array([p[2] for p in pred], dtype=float)
        self.neg_sorted = sorted(-self.scores)  # ascending for bisect
        self.iou = geometry.iou_matrix([g[1] for g in gt], [p[1] for p in pred])
        self.memo = {0: []}  # a frame that keeps nothing calls no solver

    def match(self, score_threshold):
        """Predictions kept at the threshold (-inf keeps all), and the
        gated pairs [(object_id, track_id, iou)] in GT row order."""
        kept = bisect.bisect_right(self.neg_sorted, -score_threshold)
        pairs = self.memo.get(kept)
        if pairs is None:
            cols = np.flatnonzero(self.scores >= score_threshold)
            iou = self.iou[:, cols]
            pairs = self.memo[kept] = [(self.gt_ids[r], self.tids[cols[c]], iou.item(r, c))
                                       for r, c in assign.gated_pairs(iou, IOU_THRESHOLD)]
        return kept, pairs


def _matchers(gt_frames, pred_frames):
    """One _FrameMatcher per frame of the longer list; the shorter list's
    missing tail frames are empty. Raises ValueError when a prediction
    score is NaN or infinite, or a frame repeats an object id or a track id."""
    matchers = []
    for t, (gt, pred) in enumerate(itertools.zip_longest(gt_frames, pred_frames,
                                                          fillvalue=())):
        for p in pred:
            if not math.isfinite(p[2]):
                raise ValueError(f"frame {t}: prediction score {p[2]} is not finite")
        m = _FrameMatcher(gt, pred)
        for kind, ids in (("object", m.gt_ids), ("track", m.tids)):
            if len(set(ids)) < len(ids):
                repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
                raise ValueError(f"frame {t}: {kind} id {repeated} appears twice")
        matchers.append(m)
    return matchers


def _tally(matchers, score_threshold) -> FrameCounts:
    """Walk the frames at one score threshold with id carry-over. Each
    frame's IoUs are summed first and the frame sums then added in frame
    order, the order that fixes matched_iou_sum's bits."""
    tp = kept_total = gt_count = idsw = 0
    iou_sum = 0.0
    carry = {}
    for m in matchers:
        kept, pairs = m.match(score_threshold)
        frame_iou = 0.0
        for obj_id, tid, overlap in pairs:
            frame_iou += overlap
            last = carry.get(obj_id)
            if last is not None and last != tid:
                idsw += 1
            carry[obj_id] = tid
        iou_sum += frame_iou
        tp += len(pairs)
        kept_total += kept
        gt_count += len(m.gt_ids)
    return FrameCounts(tp, kept_total - tp, gt_count - tp, idsw, iou_sum, gt_count)


def _full_tally(matchers) -> SequenceTally:
    """The pass that keeps every prediction, with its matchings and the
    MT bookkeeping."""
    totals = _tally(matchers, -math.inf)
    matches = [m.match(-math.inf)[1] for m in matchers]
    return SequenceTally(totals, matches,
                         Counter(obj_id for m in matchers for obj_id in m.gt_ids),
                         Counter(obj_id for pairs in matches for obj_id, _, _ in pairs))


def evaluate_sequence(gt_frames, pred_frames) -> SequenceTally:
    """Match every frame (Hungarian on IoU, gated) with id carry-over.

    gt_frames: per frame, a list of (object_id, box); pred_frames: per
    frame, a list of (track_id, box, score). Frames past the end of the
    shorter list are empty. Raises ValueError when a prediction score is
    not finite or a frame repeats an id.
    """
    return _full_tally(_matchers(gt_frames, pred_frames))


def mota_motp(totals: FrameCounts):
    """MOTA = 1 - (FP+FN+IDSW)/GT; MOTP = mean matched IoU."""
    if totals.gt_count == 0:
        raise ValueError("sequence has no ground-truth boxes")
    mota = 1.0 - (totals.fp + totals.fn + totals.idsw) / totals.gt_count
    motp = totals.matched_iou_sum / totals.tp if totals.tp else 0.0
    return mota, motp


def mostly_tracked(frames_present, frames_matched) -> float:
    """Fraction (in [0,1]) of GT objects matched in >= 80% of their frames."""
    if not frames_present:
        return 0.0
    mt = sum(1 for obj, present in frames_present.items()
             if frames_matched.get(obj, 0) >= MT_COVERAGE * present)
    return mt / len(frames_present)


@dataclass(frozen=True)
class OperatingPoint:
    recall_target: float
    threshold: float | None   # None when no threshold reaches the target
    recall: float
    mota: float
    motp: float
    smota: float
    tp: int
    fp: int
    fn: int
    idsw: int


@dataclass(frozen=True)
class MetricsReport:
    """Headline percentages plus the per-recall operating points."""

    amota: float
    amotp: float
    samota: float
    mota: float
    motp: float
    mt: float
    operating_points: tuple

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self, label: str = "run") -> str:
        header = f"{'Method':<24}{'AMOTA (%)':>11}{'AMOTP (%)':>11}{'sAMOTA (%)':>12}{'MT (%)':>9}"
        row = (f"{label:<24}{self.amota:>11.2f}{self.amotp:>11.2f}"
               f"{self.samota:>12.2f}{self.mt:>9.2f}")
        return header + "\n" + row


def _smota(fp, fn, idsw, gt_total, recall_target):
    value = 1.0 - (fp + fn + idsw - (1.0 - recall_target) * gt_total) \
        / (recall_target * gt_total)
    return min(1.0, max(0.0, value))


def _recall_thresholds(matchers, gt_total, targets, full_recall):
    """Map each reachable recall target's index to the highest score
    threshold whose pass reaches it.

    A frame's TP count depends only on how many of its predictions are
    kept, and that count moves at a score only in the frames holding it.
    So the distinct scores are walked from the highest down, and at each
    one only the frames holding it are matched again (memoised per kept
    count) and folded into a running TP total. Recall is that total over
    gt_total, the division of FrameCounts.recall. A target takes the
    first score whose recall reaches it, so the assigned targets are
    always the lowest ones, and the walk stops once every target up to
    full_recall has a score.
    """
    frames_at = {}
    for t, m in enumerate(matchers):
        for s in m.scores.tolist():
            frames_at.setdefault(s, set()).add(t)
    needed = sum(1 for r in targets if r <= full_recall)
    frame_tp = [0] * len(matchers)
    total_tp, k, chosen = 0, 0, {}
    for s in sorted(frames_at, reverse=True):
        for t in frames_at[s]:
            tp = len(matchers[t].match(s)[1])
            total_tp += tp - frame_tp[t]
            frame_tp[t] = tp
        recall = total_tp / gt_total
        while k < len(targets) and recall >= targets[k]:
            chosen[k] = s
            k += 1
        if k >= needed:
            break
    return chosen


def amota_family(gt_frames, pred_frames) -> MetricsReport:
    """Average MOTA/MOTP/sMOTA over evenly spaced recall targets.

    For each target r = k/NUM_THRESHOLDS the score threshold achieving
    recall >= r with the fewest predictions is selected (the highest such
    threshold); targets no threshold can reach contribute zero. Frames
    are aligned as in evaluate_sequence. Raises ValueError when a
    prediction score is not finite or a frame repeats an id.
    """
    gt_total = sum(len(f) for f in gt_frames)
    if gt_total == 0:
        raise ValueError("sequence has no ground-truth boxes")

    # IoU matrices and matchings are shared by every threshold's pass
    # within this call and dropped with it.
    matchers = _matchers(gt_frames, pred_frames)
    full = _full_tally(matchers)
    targets = [k / NUM_THRESHOLDS for k in range(1, NUM_THRESHOLDS + 1)]
    chosen = _recall_thresholds(matchers, gt_total, targets, full.totals.recall)
    tallies = {s: _tally(matchers, s) for s in set(chosen.values())}

    points = []
    amota_sum = amotp_sum = samota_sum = 0.0
    for k, target in enumerate(targets):
        if k not in chosen:
            points.append(OperatingPoint(target, None, 0.0, 0.0, 0.0, 0.0,
                                         0, 0, 0, 0))
            continue
        s = chosen[k]
        counts = tallies[s]
        mota, motp = mota_motp(counts)
        smota = _smota(counts.fp, counts.fn, counts.idsw, gt_total, target)
        amota_sum += mota
        amotp_sum += motp
        samota_sum += smota
        points.append(OperatingPoint(target, s, counts.recall, mota, motp, smota,
                                     counts.tp, counts.fp, counts.fn, counts.idsw))

    mota, motp = mota_motp(full.totals)
    mt = mostly_tracked(full.frames_present, full.frames_matched)

    return MetricsReport(
        amota=100.0 * amota_sum / NUM_THRESHOLDS,
        amotp=100.0 * amotp_sum / NUM_THRESHOLDS,
        samota=100.0 * samota_sum / NUM_THRESHOLDS,
        mota=100.0 * mota,
        motp=100.0 * motp,
        mt=100.0 * mt,
        operating_points=tuple(points),
    )
