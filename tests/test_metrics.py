import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coopmot import assign, geometry, metrics
from helpers import iou3d, make_box

CAR = dict(h=1.6, w=1.8, l=4.5)


def gt_row(entries):
    return [(oid, make_box(x=x, y=y, **CAR)) for oid, x, y in entries]


def pred_row(entries):
    return [(tid, make_box(x=x, y=y, score=s, **CAR), s)
            for tid, x, y, s in entries]


def dropout_sequence():
    """10 frames, 2 objects; object 1 loses its track for 2 frames and
    comes back under a new id (the hand-traceable oracle sequence)."""
    gt_frames, pred_frames = [], []
    for t in range(10):
        x0, x1 = 2.0 * t, 100.0 - 2.0 * t
        gt_frames.append(gt_row([(0, x0, 0.0), (1, x1, 30.0)]))
        preds = [(1, x0, 0.0, 0.9)]
        if t <= 4:
            preds.append((2, x1, 30.0, 0.8))
        elif t >= 7:
            preds.append((3, x1, 30.0, 0.7))
        pred_frames.append(pred_row(preds))
    return gt_frames, pred_frames


def oracle_match(gt, pred, iou_threshold):
    """Brute-force max-total-IoU matching, then gate (independent route)."""
    if not gt or not pred:
        return []
    iou = np.array([[iou3d(g[1], p[1]) for p in pred] for g in gt])
    n, m = iou.shape
    best_total, best_pairs = -1.0, []
    rows = range(n)
    for cols in itertools.permutations(range(m), min(n, m)):
        if n <= m:
            pairs = list(zip(rows, cols))
        else:
            pairs = list(zip(cols, range(m)))
        total = sum(iou[r, c] for r, c in pairs)
        if total > best_total:
            best_total, best_pairs = total, pairs
    return [(r, c, iou[r, c]) for r, c in best_pairs if iou[r, c] >= iou_threshold]


def oracle_evaluate(gt_frames, pred_frames, threshold, iou_threshold=0.25):
    carry = {}
    tp = fp = fn = idsw = 0
    iou_sum = 0.0
    for gt, pred in zip(gt_frames, pred_frames):
        pred_f = [p for p in pred if p[2] >= threshold]
        pairs = oracle_match(gt, pred_f, iou_threshold)
        tp += len(pairs)
        fn += len(gt) - len(pairs)
        fp += len(pred_f) - len(pairs)
        for r, c, overlap in pairs:
            iou_sum += overlap
            oid, tid = gt[r][0], pred_f[c][0]
            if oid in carry and carry[oid] != tid:
                idsw += 1
            carry[oid] = tid
    return tp, fp, fn, idsw, iou_sum


def oracle_amota_family(gt_frames, pred_frames, num_thresholds=40):
    """From-scratch per-threshold sweep of the averaged metrics."""
    gt_total = sum(len(f) for f in gt_frames)
    scores = sorted({p[2] for f in pred_frames for p in f}, reverse=True)
    evals = []
    for s in scores:
        tp, fp, fn, idsw, iou_sum = oracle_evaluate(gt_frames, pred_frames, s)
        evals.append((s, tp, fp, fn, idsw, iou_sum))
    amota = amotp = samota = 0.0
    for k in range(1, num_thresholds + 1):
        r = k / num_thresholds
        chosen = None
        for s, tp, fp, fn, idsw, iou_sum in evals:
            if tp / gt_total >= r:
                chosen = (tp, fp, fn, idsw, iou_sum)
                break
        if chosen is None:
            continue
        tp, fp, fn, idsw, iou_sum = chosen
        amota += 1.0 - (fp + fn + idsw) / gt_total
        amotp += iou_sum / tp if tp else 0.0
        samota += min(1.0, max(0.0, 1.0 - (fp + fn + idsw - (1.0 - r) * gt_total)
                               / (r * gt_total)))
    return (100.0 * amota / num_thresholds,
            100.0 * amotp / num_thresholds,
            100.0 * samota / num_thresholds)


class TestMatchFrame:
    """Single-frame matching, seen through one- and two-frame sequences."""

    def test_perfect_frame(self):
        gt = gt_row([(0, 0.0, 0.0), (1, 30.0, 0.0)])
        pred = pred_row([(10, 0.0, 0.0, 0.9), (11, 30.0, 0.0, 0.9)])
        tally = metrics.evaluate_sequence([gt], [pred])
        counts = tally.totals
        assert (counts.tp, counts.fp, counts.fn, counts.idsw) == (2, 0, 0, 0)
        assert counts.matched_iou_sum == 2.0
        assert tally.frames_matched == {0: 1, 1: 1}

    def test_empty_predictions(self):
        gt = gt_row([(0, 0.0, 0.0), (1, 30.0, 0.0)])
        tally = metrics.evaluate_sequence([gt], [[]])
        counts = tally.totals
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 2)
        assert tally.frames_matched == {}

    def test_id_switch_two_frame_trace(self):
        gt = gt_row([(0, 0.0, 0.0)])
        preds = [pred_row([(1, 0.0, 0.0, 0.9)]), pred_row([(2, 0.0, 0.0, 0.9)])]
        assert metrics.evaluate_sequence([gt], preds[:1]).totals.idsw == 0
        assert metrics.evaluate_sequence([gt, gt], preds).totals.idsw == 1

    def test_tp_plus_fn_equals_gt(self, rng):
        for _ in range(100):
            gt = gt_row([(k, float(x), float(y)) for k, (x, y) in
                            enumerate(rng.uniform(-50, 50, (int(rng.integers(0, 5)), 2)))])
            pred = pred_row([(k, float(x), float(y), 0.9) for k, (x, y) in
                                enumerate(rng.uniform(-50, 50, (int(rng.integers(0, 5)), 2)))])
            counts = metrics.evaluate_sequence([gt], [pred]).totals
            assert counts.tp == len(oracle_match(gt, pred, 0.25))
            assert counts.tp + counts.fn == counts.gt_count == len(gt)
            assert counts.tp + counts.fp == len(pred)


class TestUnequalFrameCounts:
    """Frames past the end of the shorter list count as empty frames."""

    def test_predictions_past_the_ground_truth_are_false_positives(self):
        gt = [gt_row([(0, 0.0, 0.0)])]
        pred = [pred_row([(1, 0.0, 0.0, 0.9)]),
                pred_row([(1, 50.0, 0.0, 0.9), (2, -50.0, 0.0, 0.9)])]
        tally = metrics.evaluate_sequence(gt, pred)
        assert len(tally.matches) == 2
        totals = tally.totals
        assert (totals.tp, totals.fp, totals.fn, totals.gt_count) == (1, 2, 0, 1)
        report = metrics.amota_family(gt, pred)
        assert report.mota == -100.0
        assert report.operating_points[-1].fp == 2
        assert report.to_dict() == metrics.amota_family(gt + [[]], pred).to_dict()

    def test_ground_truth_past_the_predictions_is_missed(self):
        gt = [gt_row([(0, 0.0, 0.0)]), gt_row([(0, 2.0, 0.0)])]
        pred = [pred_row([(1, 0.0, 0.0, 0.9)])]
        tally = metrics.evaluate_sequence(gt, pred)
        totals = tally.totals
        assert (totals.tp, totals.fp, totals.fn, totals.gt_count) == (1, 0, 1, 2)
        assert tally.frames_present == {0: 2} and tally.frames_matched == {0: 1}
        report = metrics.amota_family(gt, pred)
        assert report.mota == 50.0 and report.mt == 0.0
        assert report.operating_points[19].fn == 1
        assert report.operating_points[20].threshold is None
        assert report.to_dict() == metrics.amota_family(gt, pred + [[]]).to_dict()


def traced_peak(call, *args):
    """call(*args), and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSparseFrames:
    def test_empty_frames_cost_no_matching(self):
        # frames 4 and 7 of the dropout sequence: object 1 changes track id
        # across the gap, so the id carry-over must bridge it
        gt_frames, pred_frames = dropout_sequence()
        gap = [[]] * 99_998
        sparse = [gt_frames[4]] + gap + [gt_frames[7]], [pred_frames[4]] + gap + [pred_frames[7]]
        adjacent = [gt_frames[4], gt_frames[7]], [pred_frames[4], pred_frames[7]]

        tally, tally_peak = traced_peak(metrics.evaluate_sequence, *sparse)
        want = metrics.evaluate_sequence(*adjacent)
        assert tally.totals == want.totals and tally.totals.idsw == 1
        # one matchings entry per frame that holds a box, none for the gap
        assert len(tally.matches) == 2
        assert tally.matches == want.matches
        assert (tally.frames_present, tally.frames_matched) == \
            (want.frames_present, want.frames_matched)

        report, report_peak = traced_peak(metrics.amota_family, *sparse)
        assert report == metrics.amota_family(*adjacent)
        # an IoU matrix and matcher per empty frame would take about 80 MB,
        # and an empty matchings entry per empty frame about 6 MB
        assert max(tally_peak, report_peak) < 2**20


class TestMotaMotp:
    def test_perfect(self):
        counts = metrics.FrameCounts(tp=10, fp=0, fn=0, idsw=0,
                                     matched_iou_sum=10.0, gt_count=10)
        assert metrics.mota_motp(counts) == (1.0, 1.0)

    def test_hand_arithmetic(self):
        counts = metrics.FrameCounts(tp=8, fp=1, fn=2, idsw=1,
                                     matched_iou_sum=8.0, gt_count=10)
        mota, _ = metrics.mota_motp(counts)
        assert mota == 0.6

    def test_constant_overlap(self):
        counts = metrics.FrameCounts(tp=4, fp=0, fn=0, idsw=0,
                                     matched_iou_sum=2.0, gt_count=4)
        assert metrics.mota_motp(counts)[1] == 0.5

    def test_no_ground_truth(self):
        counts = metrics.FrameCounts(tp=0, fp=0, fn=0, idsw=0,
                                     matched_iou_sum=0.0, gt_count=0)
        with pytest.raises(ValueError, match="sequence has no ground-truth boxes"):
            metrics.mota_motp(counts)


class TestMostlyTracked:
    def test_thresholds(self):
        present = {0: 10, 1: 10, 2: 10}
        matched = {0: 10, 1: 7, 2: 8}
        # 10/10 counts, 7/10 excluded, 8/10 included (inclusive boundary)
        assert metrics.mostly_tracked(present, matched) == pytest.approx(2 / 3)

    def test_empty(self):
        assert metrics.mostly_tracked({}, {}) == 0.0
        assert metrics.mostly_tracked({0: 1}, {}) == 0.0  # never matched


class TestAmotaFamily:
    def test_perfect_tracking(self):
        gt_frames, _ = dropout_sequence()
        pred_frames = [[(oid + 100, d, 0.9) for oid, d in row] for row in gt_frames]
        report = metrics.amota_family(gt_frames, pred_frames)
        assert report.amota == 100.0
        assert report.samota == 100.0
        assert report.amotp == 100.0
        assert report.mota == 100.0 and report.motp == 100.0 and report.mt == 100.0

    def test_zero_predictions(self):
        gt_frames, _ = dropout_sequence()
        report = metrics.amota_family(gt_frames, [[] for _ in gt_frames])
        assert report.amota == 0.0 and report.samota == 0.0
        assert report.mt == 0.0 and report.motp == 0.0  # no match: MOTP 0

    def test_no_ground_truth(self):
        with pytest.raises(ValueError, match="sequence has no ground-truth boxes"):
            metrics.amota_family([[], []], [[], []])
        # predictions without ground truth are matched first, so a repeated
        # id is reported before the missing ground truth
        with pytest.raises(ValueError, match="^sequence has no ground-truth boxes$"):
            metrics.amota_family([[], []], [[(7, make_box(), 0.5)], []])
        with pytest.raises(ValueError, match="^frame 1: track id 7 appears twice$"):
            metrics.amota_family([[], []], [[], [(7, make_box(), 0.5), (7, make_box(), 0.4)]])

    def test_dropout_sequence_matches_oracle_exactly(self):
        gt_frames, pred_frames = dropout_sequence()
        report = metrics.amota_family(gt_frames, pred_frames)
        amota, amotp, samota = oracle_amota_family(gt_frames, pred_frames)
        assert report.amota == amota
        assert report.amotp == amotp
        assert report.samota == samota
        # hand-computed values for this construction
        assert report.amota == pytest.approx(56.5)
        assert report.amotp == pytest.approx(90.0)
        assert report.samota == pytest.approx(
            100.0 * (34 + (1 - 0.5 / 17.5) + (1 - 1 / 18)) / 40)
        assert report.mota == pytest.approx(85.0)
        assert report.motp == 100.0
        assert report.mt == 100.0  # object 1 covered exactly 8/10 frames

    def test_operating_points_ordered_and_bounded(self):
        gt_frames, pred_frames = dropout_sequence()
        report = metrics.amota_family(gt_frames, pred_frames)
        targets = [p.recall_target for p in report.operating_points]
        assert targets == sorted(targets)
        assert len(targets) == 40
        for p in report.operating_points:
            assert 0.0 <= p.smota <= 1.0
        for value in (report.amota, report.amotp, report.samota,
                      report.motp, report.mt):
            assert 0.0 <= value <= 100.0

    def test_unreached_targets_are_zero_points(self):
        # object 1 goes untracked for 2 of 20 boxes, so full recall is 0.9
        # and the targets 37/40 to 40/40 are out of reach
        gt_frames, pred_frames = dropout_sequence()
        points = metrics.amota_family(gt_frames, pred_frames).operating_points
        unreached = [k / 40 for k in range(37, 41)]
        assert [p for p in points if p.recall_target in unreached] == [
            metrics.OperatingPoint(target, None, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)
            for target in unreached]
        assert all(p.threshold is not None for p in points[:36])

    def test_self_evaluation_is_perfect(self):
        gt_frames, _ = dropout_sequence()
        preds = [[(oid, d, 1.0) for oid, d in row] for row in gt_frames]
        report = metrics.amota_family(gt_frames, preds)
        assert (report.amota, report.amotp, report.samota) == (100.0, 100.0, 100.0)
        assert (report.mota, report.motp, report.mt) == (100.0, 100.0, 100.0)

    def test_removing_pure_fp_never_lowers_mota(self, rng):
        for _ in range(30):
            gt_frames, pred_frames = dropout_sequence()
            # inject a far-away false positive in a random frame
            t = int(rng.integers(0, len(pred_frames)))
            fp_pred = (99, make_box(x=500.0, y=500.0, score=0.9, **CAR), 0.9)
            noisy = [list(row) for row in pred_frames]
            noisy[t] = list(noisy[t]) + [fp_pred]
            with_fp = metrics.evaluate_sequence(gt_frames, noisy)
            without = metrics.evaluate_sequence(gt_frames, pred_frames)
            mota_with, _ = metrics.mota_motp(with_fp.totals)
            mota_without, _ = metrics.mota_motp(without.totals)
            assert mota_without >= mota_with - 1e-12


# Small random sequences: boxes on a coarse grid so that partial overlaps,
# misses and id changes all occur, and scores from a short list so that
# ties occur within and across frames.
_coord = st.sampled_from([0.0, 1.0, 2.5, 4.0, 12.0])
_frame = st.tuples(
    st.lists(st.tuples(st.integers(0, 5), _coord, _coord), max_size=4,
             unique_by=lambda g: g[0]),
    st.lists(st.tuples(st.integers(0, 6), _coord, _coord,
                       st.sampled_from([0.2, 0.5, 0.5, 0.9])),
             max_size=5, unique_by=lambda p: p[0]))
_sequences = st.lists(_frame, min_size=1, max_size=6)


def _totals(tally):
    t = tally.totals
    return t.tp, t.fp, t.fn, t.idsw


class TestSweepProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_sequences)
    def test_operating_points_match_filtered_passes(self, frames):
        gt_frames = [gt_row(gt) for gt, _ in frames]
        pred_frames = [pred_row(pred) for _, pred in frames]
        assume(any(gt_frames))
        report = metrics.amota_family(gt_frames, pred_frames)
        for point in report.operating_points:
            if point.threshold is None:
                continue
            kept = [[p for p in row if p[2] >= point.threshold]
                    for row in pred_frames]
            tally = metrics.evaluate_sequence(gt_frames, kept)
            assert (point.tp, point.fp, point.fn, point.idsw) == _totals(tally)
        full = metrics.evaluate_sequence(gt_frames, pred_frames)
        mota, motp = metrics.mota_motp(full.totals)
        mt = metrics.mostly_tracked(full.frames_present, full.frames_matched)
        assert (report.mota, report.motp, report.mt) == \
            (100.0 * mota, 100.0 * motp, 100.0 * mt)


class TestFullPassRecord:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_sequences)
    def test_totals_and_mt_counts_follow_the_matches(self, frames):
        tally = metrics.evaluate_sequence([gt_row(gt) for gt, _ in frames],
                                          [pred_row(pred) for _, pred in frames])
        assert tally.totals.tp == sum(len(pairs) for pairs in tally.matches)
        iou_sum, matched = 0.0, {}
        for pairs in tally.matches:
            frame_sum = 0.0
            for obj_id, _, overlap in pairs:
                assert overlap >= metrics.IOU_THRESHOLD
                frame_sum += overlap
                matched[obj_id] = matched.get(obj_id, 0) + 1
            iou_sum += frame_sum
        assert tally.totals.matched_iou_sum == iou_sum
        assert tally.frames_matched == matched


class TestGateSharedWithTracker:
    @settings(max_examples=100, deadline=None)
    @given(_frame)
    def test_frame_counts_equal_associate(self, frame):
        """A frame scores the pairs that track association would match."""
        gt, pred = gt_row(frame[0]), pred_row(frame[1])
        counts = metrics.evaluate_sequence([gt], [pred]).totals
        gt_boxes, pred_boxes = [g[1] for g in gt], [p[1] for p in pred]
        result = assign.associate(gt_boxes, pred_boxes, metrics.IOU_THRESHOLD)
        iou = geometry.iou_matrix(gt_boxes, pred_boxes)
        assert counts.tp == result.num_matched
        assert counts.matched_iou_sum == sum(
            iou.item(r, c) for r, c in zip(result.matched_rows, result.matched_cols))


def scanned_report(gt_frames, pred_frames):
    """Reference for amota_family: a full carry-over tally (evaluate_sequence
    on the kept predictions) at every distinct score from the highest down,
    until every target up to full recall is assigned, and the report built
    from the chosen tallies."""
    gt_total = sum(len(f) for f in gt_frames)
    full = metrics.evaluate_sequence(gt_frames, pred_frames)
    targets = [k / metrics.NUM_THRESHOLDS for k in range(1, metrics.NUM_THRESHOLDS + 1)]
    needed = {k for k, target in enumerate(targets) if target <= full.totals.recall}
    chosen = {}
    for s in sorted({p[2] for f in pred_frames for p in f}, reverse=True):
        kept = [[p for p in f if p[2] >= s] for f in pred_frames]
        counts = metrics.evaluate_sequence(gt_frames, kept).totals
        for k, target in enumerate(targets):
            if k not in chosen and counts.recall >= target:
                chosen[k] = s, counts
        if needed <= chosen.keys():
            break
    points, sums = [], [0.0, 0.0, 0.0]
    for k, target in enumerate(targets):
        if k not in chosen:
            points.append(metrics.OperatingPoint(target, None, 0.0, 0.0, 0.0, 0.0,
                                                 0, 0, 0, 0))
            continue
        s, c = chosen[k]
        mota, motp = metrics.mota_motp(c)
        smota = min(1.0, max(0.0, 1.0 - (c.fp + c.fn + c.idsw - (1.0 - target) * gt_total)
                             / (target * gt_total)))
        for i, value in enumerate((mota, motp, smota)):
            sums[i] += value
        points.append(metrics.OperatingPoint(target, s, c.recall, mota, motp, smota,
                                             c.tp, c.fp, c.fn, c.idsw))
    mota, motp = metrics.mota_motp(full.totals)
    mt = metrics.mostly_tracked(full.frames_present, full.frames_matched)
    amota, amotp, samota = (100.0 * v / metrics.NUM_THRESHOLDS for v in sums)
    return metrics.MetricsReport(amota, amotp, samota, 100.0 * mota, 100.0 * motp,
                                 100.0 * mt, tuple(points))


def solver_shapes(call, *args):
    """call(*args), and the shape of each cost matrix the solver was given."""
    solve = metrics.assign.hungarian_min_cost
    shapes = []

    def counting(cost):
        shapes.append(cost.shape)
        return solve(cost)

    with mock.patch.object(metrics.assign, "hungarian_min_cost", counting):
        result = call(*args)
    return result, sorted(shapes)


def reached_shapes(gt_frames, pred_frames, report):
    """The (GT count, kept count) of each distinct (frame, kept count > 0)
    that the keep-everything pass and the threshold walk reach. The walk
    visits the distinct scores from the highest down to the lowest chosen
    threshold, or only the highest when no target has a threshold."""
    chosen = [p.threshold for p in report.operating_points if p.threshold is not None]
    floor = min(chosen) if chosen else max((p[2] for f in pred_frames for p in f),
                                           default=None)  # None: no scores to walk
    reached = set()
    for t, (gt, pred) in enumerate(itertools.zip_longest(gt_frames, pred_frames,
                                                          fillvalue=())):
        frame_scores = [p[2] for p in pred]
        if frame_scores:
            reached.add((t, len(gt), len(frame_scores)))
        for s in set(frame_scores):
            if s >= floor:
                reached.add((t, len(gt), sum(1 for q in frame_scores if q >= s)))
    return sorted((n_gt, kept) for _, n_gt, kept in reached)


class TestThresholdScan:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    # up to 10 frames, so that many frames share each of the three scores
    @given(st.lists(_frame, min_size=1, max_size=10))
    def test_equals_full_tally_scan(self, frames):
        gt_frames = [gt_row(gt) for gt, _ in frames]
        pred_frames = [pred_row(pred) for _, pred in frames]
        assume(any(gt_frames))
        report, shapes = solver_shapes(metrics.amota_family, gt_frames, pred_frames)
        assert report == scanned_report(gt_frames, pred_frames)
        # one solve per (frame with boxes, kept count > 0) reached, and no other
        assert shapes == reached_shapes(gt_frames, pred_frames, report)

    def test_targets_reached_above_full_recall_are_kept(self):
        # Along x, with IoUs P1-A 0.3, P1-B 0.1, P2-A 0.24 and P2-B 0. P1
        # alone matches A; adding P2 makes P1-B + P2-A the larger total,
        # and neither pair passes the 0.25 gate. Recall falls from 1/2 at
        # 0.9 to 0 with every prediction kept.
        gt_frames = [gt_row([(0, 0.0, 0.0), (1, 6.103, 0.0)])]
        pred_frames = [pred_row([(1, 2.423, 0.0, 0.9), (2, -2.758, 0.0, 0.5)])]
        report, shapes = solver_shapes(metrics.amota_family, gt_frames, pred_frames)
        assert [p.threshold for p in report.operating_points] == [0.9] * 20 + [None] * 20
        assert report.mota == -100.0  # two misses and two false positives
        assert report == scanned_report(gt_frames, pred_frames)
        assert shapes == [(2, 1), (2, 2)]  # the walk stops at 0.9; all kept is solved once

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, score):
        # the box is valid; the triple's own score is the bad value
        gt_frames, pred_frames = dropout_sequence()
        pred_frames[3] = pred_row([(1, 6.0, 0.0, 0.9)]) + [
            (2, make_box(x=94.0, y=30.0, score=0.8, **CAR), score)]
        for evaluate in (metrics.amota_family, metrics.evaluate_sequence):
            with pytest.raises(ValueError, match="frame 3: prediction score"):
                evaluate(gt_frames, pred_frames)

    def test_repeated_track_id_rejected(self):
        gt_frames, pred_frames = dropout_sequence()
        pred_frames[3] = pred_row([(2, 50.0, 0.0, 0.7), (1, 6.0, 0.0, 0.9),
                                   (1, 94.0, 30.0, 0.8)])  # the message names the repeat
        for evaluate in (metrics.amota_family, metrics.evaluate_sequence):
            with pytest.raises(ValueError, match="frame 3: track id 1 appears twice"):
                evaluate(gt_frames, pred_frames)

    def test_repeated_object_id_rejected(self):
        gt_frames, pred_frames = dropout_sequence()
        gt_frames[5] = gt_row([(0, 10.0, 0.0), (1, 90.0, 30.0), (0, 50.0, 0.0)])
        for evaluate in (metrics.amota_family, metrics.evaluate_sequence):
            with pytest.raises(ValueError, match="frame 5: object id 0 appears twice"):
                evaluate(gt_frames, pred_frames)


class TestReportFormat:
    def test_table_layout(self):
        gt_frames, pred_frames = dropout_sequence()
        report = metrics.amota_family(gt_frames, pred_frames)
        table = report.format_table("tsa")
        lines = table.splitlines()
        assert len(lines) == 2
        assert "AMOTA" in lines[0] and "MT" in lines[0]
        assert lines[1].startswith("tsa")

    def test_json_round_trip(self):
        import json
        gt_frames, pred_frames = dropout_sequence()
        report = metrics.amota_family(gt_frames, pred_frames)
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["amota"] == report.amota
        assert len(parsed["operating_points"]) == 40
