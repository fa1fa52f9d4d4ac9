"""CLEAR-style frame matching and AMOTA-family sequence metrics.

Ground truth rows are (object_id, box) pairs, predictions are
(track_id, box, score) triples; boxes may be Detections or 7-vectors.
Matching is gated at IoU 0.25 by assign.gated_pairs, the rule that track
association uses. Identity switches use the per-object id-consistency
rule with carry-over: a switch is counted whenever an object's newly
matched track id differs from the last id it was ever matched to.

Each evaluation pass yields one FrameCounts of totals; the pass that keeps
every prediction also keeps each frame's matchings, for MT and analyze. A
frame with neither ground truth nor predictions gets no matcher.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass

from . import assign, geometry
from .core import real

IOU_THRESHOLD = 0.25
NUM_THRESHOLDS = 40
MT_COVERAGE = 0.8


@dataclass
class FrameCounts:
    """The counts of one evaluation pass, summed over its frames."""

    tp: int
    fp: int
    fn: int
    idsw: int
    matched_iou_sum: float
    gt_count: int

    @property
    def recall(self) -> float:
        return self.tp / self.gt_count if self.gt_count else 0.0


@dataclass
class SequenceTally:
    """The pass that keeps every prediction: its totals, the gated
    (object_id, track_id, iou) pairs in GT row order of each frame that
    holds a box, in frame order, and per object how many frames it is
    present in and matched in."""

    totals: FrameCounts
    matches: list
    frames_present: dict
    frames_matched: dict


class _FrameMatcher:
    """One frame's GT x prediction IoU matrix, computed once, and its gated
    matchings, not memoised. A score threshold only decides which predictions
    are kept; their columns are sliced from the matrix in their original
    order, so the solver sees exactly the matrix of the kept boxes alone."""

    __slots__ = ("gt_ids", "tids", "scores", "ascending", "iou")

    def __init__(self, gt, pred, scores):
        self.gt_ids = [g[0] for g in gt]
        self.tids = [p[0] for p in pred]
        self.scores = scores
        self.ascending = sorted(self.scores)  # for bisect
        self.iou = geometry.iou_matrix([g[1] for g in gt], [p[1] for p in pred])

    def match(self, score_threshold):
        """The gated pairs [(object_id, track_id, iou)], in GT row order, of
        the predictions kept at the threshold (-inf keeps all)."""
        cols = [c for c, s in enumerate(self.scores) if s >= score_threshold]
        if not cols:
            return []  # a frame that keeps nothing calls no solver
        iou = self.iou[:, cols]
        return [(self.gt_ids[r], self.tids[cols[c]], iou.item(r, c))
                for r, c in assign.gated_pairs(iou, IOU_THRESHOLD)]


def _matchers(gt_frames, pred_frames):
    """Yield a _FrameMatcher per frame of the longer list that holds a box;
    the shorter list's missing tail frames are empty. Raises ValueError when
    a prediction score breaks core.real ("frame 0: prediction score must be
    finite"), or a frame repeats an object id or a track id."""
    for t, (gt, pred) in enumerate(itertools.zip_longest(gt_frames, pred_frames,
                                                          fillvalue=())):
        if not gt and not pred:
            continue
        try:
            scores = [real(p[2]) for p in pred]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"frame {t}: prediction score {exc}") from None
        m = _FrameMatcher(gt, pred, scores)
        for kind, ids in (("object", m.gt_ids), ("track", m.tids)):
            if len(set(ids)) < len(ids):
                repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
                raise ValueError(f"frame {t}: {kind} id {repeated} appears twice")
        yield m


def _tally(frames) -> FrameCounts:
    """Fold (gt_count, kept, pairs) per frame with id carry-over; a frame
    with no boxes adds nothing. Each frame's IoUs are summed first and the
    frame sums then added in frame order, which fixes matched_iou_sum's bits."""
    tp = kept_total = gt_count = idsw = 0
    iou_sum = 0.0
    carry = {}
    for n_gt, kept, pairs in frames:
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
        gt_count += n_gt
    return FrameCounts(tp, kept_total - tp, gt_count - tp, idsw, iou_sum, gt_count)


def _full_tally(matchers) -> SequenceTally:
    """The pass that keeps every prediction, with its matchings and the MT
    bookkeeping, folding each frame in as it is matched."""
    matches, present, matched = [], Counter(), Counter()

    def frames():
        for m in matchers:
            pairs = m.match(-math.inf)
            matches.append(pairs)
            present.update(m.gt_ids)
            matched.update(obj_id for obj_id, _, _ in pairs)
            yield len(m.gt_ids), len(m.tids), pairs

    return SequenceTally(_tally(frames()), matches, present, matched)


def evaluate_sequence(gt_frames, pred_frames) -> SequenceTally:
    """Match every frame (Hungarian on IoU, gated) with id carry-over.

    gt_frames: per frame, a list of (object_id, box); pred_frames: per
    frame, a list of (track_id, box, score). Frames past the end of the
    shorter list are empty. Raises ValueError when core.real refuses a
    prediction score or a frame repeats an id.
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


def _operating_counts(matchers, full, targets):
    """[(threshold, FrameCounts)] of the reachable recall targets, in order.

    A frame's matching depends only on how many of its predictions are
    kept, which grows at a score only in the frames holding it. So the
    distinct scores are walked once from the highest down, and at each
    only the frames holding it are matched again (one that keeps all takes
    full's pairs) and folded into a running TP total over full's GT count,
    the division of FrameCounts.recall. A target takes the first score whose
    recall reaches it, with that score's counts tallied from the current
    matchings. The walk stops once every target up to full's recall has one.
    """
    held = sorted(((s, i) for i, m in enumerate(matchers) for s in set(m.scores)),
                  key=operator.itemgetter(0), reverse=True)  # stable: frames ascend
    needed = bisect.bisect_right(targets, full.totals.recall)  # targets ascend
    current = [(0, [])] * len(matchers)  # (kept, pairs) per frame
    total_tp, chosen = 0, []
    for s, frames in itertools.groupby(held, key=operator.itemgetter(0)):
        for _, i in frames:
            m = matchers[i]
            kept = len(m.scores) - bisect.bisect_left(m.ascending, s)
            pairs = full.matches[i] if kept == len(m.tids) else m.match(s)
            total_tp += len(pairs) - len(current[i][1])
            current[i] = kept, pairs
        reached = bisect.bisect_right(targets, total_tp / full.totals.gt_count)
        if reached > len(chosen):
            counts = _tally((len(m.gt_ids), *c) for m, c in zip(matchers, current))
            chosen += [(s, counts)] * (reached - len(chosen))
        if len(chosen) >= needed:
            break
    return chosen


def amota_family(gt_frames, pred_frames) -> MetricsReport:
    """Average MOTA/MOTP/sMOTA over evenly spaced recall targets.

    For each target r = k/NUM_THRESHOLDS the score threshold achieving
    recall >= r with the fewest predictions is selected (the highest such
    threshold); targets no threshold can reach contribute zero. Frames
    are aligned as in evaluate_sequence; the GT count is the full pass's.
    Raises ValueError when core.real refuses a prediction score or a frame
    repeats an id, then (mota_motp of the full pass) when GT is empty.
    """
    # the frames with boxes; their IoU matrices serve both passes of this call
    matchers = list(_matchers(gt_frames, pred_frames))
    full = _full_tally(matchers)
    full_mota, full_motp = mota_motp(full.totals)
    targets = [k / NUM_THRESHOLDS for k in range(1, NUM_THRESHOLDS + 1)]
    chosen = _operating_counts(matchers, full, targets)

    points = []
    amota_sum = amotp_sum = samota_sum = 0.0
    for k, target in enumerate(targets):
        if k >= len(chosen):
            points.append(OperatingPoint(target, None, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0))
            continue
        s, counts = chosen[k]
        mota, motp = mota_motp(counts)
        smota = _smota(counts.fp, counts.fn, counts.idsw, counts.gt_count, target)
        amota_sum += mota
        amotp_sum += motp
        samota_sum += smota
        points.append(OperatingPoint(target, s, counts.recall, mota, motp, smota,
                                     counts.tp, counts.fp, counts.fn, counts.idsw))

    return MetricsReport(
        amota=100.0 * amota_sum / NUM_THRESHOLDS,
        amotp=100.0 * amotp_sum / NUM_THRESHOLDS,
        samota=100.0 * samota_sum / NUM_THRESHOLDS,
        mota=100.0 * full_mota,
        motp=100.0 * full_motp,
        mt=100.0 * mostly_tracked(full.frames_present, full.frames_matched),
        operating_points=tuple(points),
    )
