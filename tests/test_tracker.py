from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopmot import assign, kalman, tracker
from coopmot.core import FrameBundle, Method, TrackerConfig
from helpers import born, make_box, reference_predict, reference_update

CAR = dict(h=1.6, w=1.8, l=4.5)


def bundle(frame, agent_dets):
    by_agent = {}
    for agent, rows in agent_dets.items():
        by_agent[agent] = [make_box(x=row[0], y=row[1], z=0.8,
                                    score=row[2] if len(row) > 2 else 0.9, **CAR)
                           for row in rows]
    return FrameBundle(frame=frame, detections_by_agent=by_agent)


def static_object_frames(n, agents=("a", "b"), pos=(0.0, 0.0)):
    return [bundle(t, {a: [pos] for a in agents}) for t in range(n)]


MATCHED, UNMATCHED = np.array([True]), np.array([False])


def counters_by_id(tracks):
    """{track id: (hits, misses)} of a store."""
    return dict(zip(tracks.ids.tolist(), zip(tracks.hits.tolist(), tracks.misses.tolist())))


@pytest.fixture
def model():
    return kalman.default_model()


class TestManageLifecycle:
    """The lifecycle alone moves the counters; a birth's own frame is its
    first match."""

    def test_confirm_at_third_consecutive_match(self, model):
        cfg = TrackerConfig()
        tracks = born(make_box(**CAR), model)
        assert tracks.hits.tolist() == [0]
        for expected_hits, confirmed in ((1, False), (2, False), (3, True)):
            tracks = tracker.manage_lifecycle(tracks, MATCHED, cfg)
            assert tracks.hits.tolist() == [expected_hits]
            assert tracks.misses.tolist() == [0]
            assert tracks.confirmed.tolist() == [confirmed]

    def test_dead_after_two_consecutive_misses(self, model):
        cfg = TrackerConfig()
        t = born(make_box(**CAR), model)
        tracks = tracker.manage_lifecycle(t, UNMATCHED, cfg)
        assert len(tracks) == 1 and tracks.misses.tolist() == [1]
        tracks = tracker.manage_lifecycle(tracks, UNMATCHED, cfg)
        assert len(tracks) == 0

    def test_match_after_miss_resets(self, model):
        cfg = TrackerConfig()
        t = born(make_box(**CAR), model)
        tracks = tracker.manage_lifecycle(t, UNMATCHED, cfg)
        assert tracks.misses.tolist() == [1] and tracks.hits.tolist() == [0]
        tracks = tracker.manage_lifecycle(tracks, MATCHED, cfg)
        assert tracks.misses.tolist() == [0] and tracks.hits.tolist() == [1]
        assert len(tracks) == 1

    def test_confirmed_not_demoted_by_later_miss(self, model):
        cfg = TrackerConfig(max_age=5)
        tracks = born(make_box(**CAR), model)
        for _ in range(3):
            tracks = tracker.manage_lifecycle(tracks, MATCHED, cfg)
        assert tracks.confirmed.tolist() == [True]
        tracks = tracker.manage_lifecycle(tracks, UNMATCHED, cfg)
        assert tracks.confirmed.tolist() == [True]  # still alive, still confirmed
        assert tracks.hits.tolist() == [0]
        tracks = tracker.manage_lifecycle(tracks, MATCHED, cfg)
        assert tracks.confirmed.tolist() == [True]


class TestStepAos:
    def test_empty_bundle_empty_tracks(self):
        cfg = TrackerConfig(method=Method.AOS)
        ts, out = tracker.step(tracker.new_trackset(),
                               FrameBundle(frame=0, detections_by_agent={}), cfg)
        assert out.emitted == ()
        assert len(ts.tracks) == 0 and ts.frame == 1  # an empty step still counts

    def test_noiseless_static_object_confirms_at_frame_three(self):
        # both agents see one object; the pair dedups to a single box, so
        # exactly one track exists and confirms on its third hit
        cfg = TrackerConfig(method=Method.AOS, dedup_matched_pairs=True,
                            warm_start=False)
        ts = tracker.new_trackset()
        confirmed_by_frame = []
        for b in static_object_frames(4):
            ts, out = tracker.step(ts, b, cfg)
            confirmed_by_frame.append(int(ts.tracks.confirmed.sum()))
        assert confirmed_by_frame == [0, 0, 1, 1]
        assert len(ts.tracks) == 1

    def test_duplicate_tracks_without_dedup(self):
        # default config keeps both members of a coincident matched pair,
        # and the one-to-one association lets the twin confirm as well
        cfg = TrackerConfig(method=Method.AOS, warm_start=False)
        ts = tracker.new_trackset()
        for b in static_object_frames(3):
            ts, _ = tracker.step(ts, b, cfg)
        assert len(ts.tracks) == 2
        assert ts.tracks.confirmed.all()

    def test_track_terminated_after_max_age_misses(self):
        cfg = TrackerConfig(method=Method.AOS, dedup_matched_pairs=True)
        ts = tracker.new_trackset()
        for b in static_object_frames(3):
            ts, _ = tracker.step(ts, b, cfg)
        assert len(ts.tracks) == 1
        for t_abs in range(3, 6):
            empty = FrameBundle(frame=t_abs, detections_by_agent={"a": [], "b": []})
            ts, _ = tracker.step(ts, empty, cfg)
        assert len(ts.tracks) == 0

    def test_more_than_two_agents_rejected(self):
        cfg = TrackerConfig(method=Method.AOS)
        b = bundle(0, {"a": [(0, 0)], "b": [(0, 0)], "c": [(0, 0)]})
        with pytest.raises(ValueError):
            tracker.step(tracker.new_trackset(), b, cfg)


class TestStepBaseline:
    def test_single_agent_standard_tracker(self):
        cfg = TrackerConfig(method=Method.BASELINE, warm_start=False)
        ts = tracker.new_trackset()
        for b in static_object_frames(3, agents=("a",)):
            ts, out = tracker.step(ts, b, cfg)
        assert len(ts.tracks) == 1
        assert ts.tracks.confirmed.tolist() == [True]
        assert out.emitted[0][0] == ts.tracks.ids[0]

    def test_duplicate_detection_spawns_second_track(self):
        cfg = TrackerConfig(method=Method.BASELINE)
        ts = tracker.new_trackset()
        ts, _ = tracker.step(ts, static_object_frames(1)[0], cfg)
        # one matched the (empty) track set; both initialize
        assert len(ts.tracks) == 2
        assert not ts.tracks.confirmed.any()  # both tentative


class TestStepTsa:
    def test_stage2_vacuous_when_stage1_matches_everything(self, monkeypatch):
        cfg = TrackerConfig(method=Method.TSA)
        frames = static_object_frames(4)
        plain = tracker.run_sequence(frames, cfg)
        calls = []
        real_associate = assign.associate

        def counting(rows, cols, threshold):
            calls.append((len(rows), len(cols)))
            return real_associate(rows, cols, threshold)

        monkeypatch.setattr(assign, "associate", counting)
        ts = tracker.new_trackset()
        for b, expected in zip(frames, plain):
            calls.clear()
            ts, out = tracker.step(ts, b, cfg)
            # the cross-agent association and stage 1 only: no track is left
            # unmatched after stage 1, so stage 2 never runs
            assert len(calls) == 2
            assert len(out.emitted) == len(expected.emitted)
            for x, y in zip(out.emitted, expected.emitted):
                assert x[0] == y[0] and x[2] == y[2]
                assert np.array_equal(x[1], y[1])

    def test_equals_aos_without_cross_matches(self):
        # agents see disjoint objects: anchors degenerate to self-anchors
        cfg_tsa = TrackerConfig(method=Method.TSA)
        cfg_aos = TrackerConfig(method=Method.AOS)
        frames = [bundle(t, {"a": [(0.0 + 0.3 * t, 0.0)],
                             "b": [(60.0, 30.0 - 0.2 * t)]})
                  for t in range(6)]
        out_tsa = tracker.run_sequence(frames, cfg_tsa)
        out_aos = tracker.run_sequence(frames, cfg_aos)
        assert len(out_tsa) == len(out_aos)
        for a, b in zip(out_tsa, out_aos):
            assert a.frame == b.frame
            assert len(a.emitted) == len(b.emitted)
            for (ida, boxa, sa), (idb, boxb, sb) in zip(a.emitted, b.emitted):
                assert ida == idb and sa == sb
                assert np.array_equal(boxa, boxb)

    def test_stage2_rescues_track_missed_in_stage1(self, monkeypatch):
        # Cross-matched pair with a large offset: the first-variant box is
        # dragged 0.6*d off the track and misses the 0.25 gate, while the
        # second-variant box (-0.4*d) still overlaps. Verified geometry:
        # d=(3.2, 1.1) on a 4.5 x 1.8 car.
        cfg = TrackerConfig(method=Method.TSA, cross_agent_iou_threshold=0.05,
                            warm_start=False)
        ts = tracker.new_trackset()
        for b in static_object_frames(3):
            ts, _ = tracker.step(ts, b, cfg)
        assert len(ts.tracks) == 2  # coincident twin, no dedup
        hits_before = {tid: hits for tid, (hits, _) in counters_by_id(ts.tracks).items()}

        degraded = bundle(3, {"a": [(0.0, 0.0)], "b": [(3.2, 1.1)]})

        # stage 1 alone misses the track: offer only the first-variant boxes
        real_candidates = tracker._candidates

        def first_variant(b, c):
            boxes, scores, num_cross = real_candidates(b, c)
            return boxes[:1], scores, num_cross

        monkeypatch.setattr(tracker, "_candidates", first_variant)
        ts_stage1, _ = tracker.step(ts, degraded, cfg)
        monkeypatch.undo()
        survivors_stage1 = {tid: c for tid, c in counters_by_id(ts_stage1.tracks).items()
                            if tid in hits_before}
        assert any(misses == 1 for _, misses in survivors_stage1.values())

        # the full two-stage step recovers it: no miss recorded, and one
        # Kalman update serves both stages
        with mock.patch.object(kalman, "update", wraps=kalman.update) as update:
            ts_full, _ = tracker.step(ts, degraded, cfg)
        assert update.call_count == 1
        survivors = {tid: c for tid, c in counters_by_id(ts_full.tracks).items()
                     if tid in hits_before}
        assert len(survivors) == 2
        rescued = [tid for tid, (hits, misses) in survivors.items()
                   if misses == 0 and hits == hits_before[tid] + 1]
        assert rescued

        # a rescued track's state is its previous prediction updated with a
        # variant-1 box of a cross-matched node, then predicted; the twins
        # take different boxes
        boxes, _, num_cross = real_candidates(degraded, cfg)

        def updated_and_predicted(tid, box):
            k, = np.flatnonzero(ts.tracks.ids == tid)
            state, cov = reference_update(ts.tracks.states[k], ts.tracks.covariances[k], box,
                                          tracker.MODEL)
            return reference_predict(state, cov, tracker.MODEL)

        taken = []
        for tid in rescued:
            j, = np.flatnonzero(ts_full.tracks.ids == tid)
            got = ts_full.tracks.states[j], ts_full.tracks.covariances[j]
            fits = [c for c in range(num_cross)
                    if all(map(np.array_equal, got, updated_and_predicted(tid, boxes[1, c])))]
            assert len(fits) == 1
            taken += fits
        assert len(set(taken)) == len(taken)


class TestRunSequence:
    def test_empty_sequence(self):
        assert tracker.run_sequence([], TrackerConfig()) == []

    def test_model_other_than_none_rejected(self):
        # every run tracks with tracker.MODEL; None is still accepted
        assert tracker.run_sequence([], TrackerConfig(), None) == []
        with pytest.raises(TypeError, match="pass no model"):
            tracker.run_sequence([], TrackerConfig(), kalman.default_model())

    @pytest.mark.parametrize("bad, message", [
        (dict(w=-1.0), r"non-positive extent \(h=1.6, w=-1.0, l=4.5\)"),
        (dict(h=0.0), r"non-positive extent \(h=0.0, w=1.8, l=4.5\)"),
        (dict(score=7.5), r"score 7.5 outside \[0, 1\]"),
        (dict(score=float("nan")), "non-finite field in detection: score"),
    ], ids=["width-negative", "height-zero", "score-above-one", "score-nan"])
    def test_detection_breaking_io_rules_rejected(self, bad, message):
        # a Detection built in Python is checked like a file's record, where
        # it is built, so no frame can hand the tracker one: a width of -1
        # would score IoU 1.0 against the same box with width 1, and a score
        # of 7.5 would be written where io.read_tracks refuses it
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_box(**{**CAR, **bad})
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(make_box(**CAR), **bad)

    def test_one_lifecycle_pass_per_stepped_frame(self):
        # births join the frame's updated tracks in one manage_lifecycle pass;
        # frame 4 has no boxes and no live tracks, so it takes none
        frames = [bundle(0, {"a": [(0.0, 0.0)]}), bundle(1, {"a": [(0.0, 0.0), (9.0, 0.0)]}),
                  *[FrameBundle(t, {"a": []}) for t in (2, 3, 4)], bundle(5, {"a": [(0.0, 0.0)]})]
        with mock.patch.object(tracker, "manage_lifecycle",
                               wraps=tracker.manage_lifecycle) as spy:
            outputs = tracker.run_sequence(frames, TrackerConfig(method=Method.BASELINE,
                                                                 min_hits=1))
        assert spy.call_count == 5
        assert [[tid for tid, _, _ in o.emitted] for o in outputs] == [
            [1], [1, 2], [1, 2], [], [], [3]]

    def test_track_ids_never_reused(self):
        cfg = TrackerConfig(method=Method.BASELINE, warm_start=False)
        frames = []
        for t in range(12):
            if (t // 3) % 2 == 0:
                frames.append(bundle(t, {"a": [(0.0, 0.0)]}))
            else:
                frames.append(FrameBundle(frame=t, detections_by_agent={"a": []}))
        ts = tracker.new_trackset()
        seen = []
        for b in frames:
            ts, _ = tracker.step(ts, b, cfg)
            seen.extend(ts.tracks.ids.tolist())
        # ids are unique per birth: the multiset of distinct ids only grows
        assert ts.next_id - 1 == len(set(seen))

    def test_warm_start_emits_tentative_tracks(self):
        frames = static_object_frames(3, agents=("a",))
        warm = tracker.run_sequence(frames, TrackerConfig(method=Method.BASELINE,
                                                          warm_start=True))
        cold = tracker.run_sequence(frames, TrackerConfig(method=Method.BASELINE,
                                                          warm_start=False))
        assert [len(o.emitted) for o in warm] == [1, 1, 1]
        assert [len(o.emitted) for o in cold] == [0, 0, 1]

    @pytest.mark.parametrize("min_hits", [1, 2])
    def test_cold_start_emits_from_min_hits_th_frame(self, min_hits):
        # a birth's frame counts as its first hit, so with min_hits = 1 the
        # track is confirmed and emitted in the frame it is born; the test
        # above pins min_hits = 3
        frames = static_object_frames(4, agents=("a",))
        cfg = TrackerConfig(method=Method.BASELINE, min_hits=min_hits, warm_start=False)
        emitted = [len(o.emitted) for o in tracker.run_sequence(frames, cfg)]
        assert emitted == [0] * (min_hits - 1) + [1] * (5 - min_hits)

    def test_step_labels_output_with_bundle_frame(self):
        # the output carries the bundle's frame; warm start counts steps,
        # so a sequence that starts at frame 7 still emits tentative tracks
        # on its first min_hits - 1 steps
        cfg = TrackerConfig(method=Method.BASELINE, warm_start=True, min_hits=3)
        ts, labels, emitted = tracker.new_trackset(), [], []
        for t in (7, 8, 9):
            ts, out = tracker.step(ts, bundle(t, {"a": [(0.0, 0.0)]}), cfg)
            labels.append(out.frame)
            emitted.append(len(out.emitted))
        assert labels == [7, 8, 9]
        assert emitted == [1, 1, 1]
        assert ts.frame == 3

    def test_zero_id_switches_on_clean_synthetic(self):
        # noiseless, no dropout, well-separated objects: every pipeline
        # tracks without identity switches. Shared-view duplicates are
        # merged (dedup) so twin tracks cannot trade places in the metric;
        # the split-world case has no duplicates to begin with.
        import math
        from coopmot import metrics, sim
        split = (((0.0, math.pi),), ((-math.pi, 0.0),))
        cases = [
            (sim.ScenarioConfig(num_objects=5, num_frames=20,
                                speed_min=0.05, speed_max=0.15,
                                world_extent=80.0, sigma=(0.0, 0.0),
                                dropout=(0.0, 0.0), seed=2,
                                occlusion_sectors=split), False),
            (sim.ScenarioConfig(num_objects=5, num_frames=20,
                                speed_min=0.05, speed_max=0.15,
                                world_extent=80.0, sigma=(0.0, 0.0),
                                dropout=(0.0, 0.0), seed=2), True),
        ]
        for cfg_s, dedup in cases:
            gt_frames, bundles = sim.generate(cfg_s)
            gtf = [[(oid, d) for oid, d in row] for row in gt_frames]
            for method in (Method.BASELINE, Method.AOS, Method.TSA):
                cfg = TrackerConfig(method=method, dedup_matched_pairs=dedup)
                outs = tracker.run_sequence(bundles, cfg)
                preds = [list(o.emitted) for o in outs]
                tally = metrics.evaluate_sequence(gtf, preds)
                assert tally.totals.idsw == 0, (method, dedup)


@st.composite
def scenes(draw):
    """A small two-agent scene: 1-10 frames over a pool of up to 5 moving
    objects; each agent sees each object with probability 0.6 (jittered),
    so frames with matches, misses, empty agents and empty frames occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_objects = draw(st.integers(1, 5))
    start = rng.uniform(-8.0, 8.0, (num_objects, 2))
    velocity = rng.uniform(-0.6, 0.6, (num_objects, 2))
    jitter = draw(st.sampled_from([0.0, 0.3, 1.0]))
    frames = []
    for t in range(draw(st.integers(1, 10))):
        seen = {}
        for agent in ("a", "b"):
            pos = start + t * velocity + rng.normal(0.0, jitter, start.shape)
            keep = rng.uniform(size=num_objects) < 0.6
            seen[agent] = [(float(x), float(y), float(s)) for (x, y), s
                           in zip(pos[keep], rng.uniform(0.1, 1.0, num_objects)[keep])]
        frames.append(bundle(t, seen))
    return frames, TrackerConfig(min_hits=draw(st.integers(1, 3)),
                                 max_age=draw(st.integers(1, 3)),
                                 warm_start=draw(st.booleans()))


def rows(outputs):
    return [(o.frame, [(tid, box.tolist(), score) for tid, box, score in o.emitted])
            for o in outputs]


class TestTrackerProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    @given(scene=scenes())
    def test_id_invariants_and_replay(self, method, dedup, scene):
        frames, base = scene
        cfg = TrackerConfig(method=method, dedup_matched_pairs=dedup,
                            min_hits=base.min_hits, max_age=base.max_age,
                            warm_start=base.warm_start)
        ts = tracker.new_trackset()
        born_ids, dropped, outputs = set(), set(), []
        for b in frames:
            before = set(ts.tracks.ids.tolist())
            ts, out = tracker.step(ts, b, cfg)
            outputs.append(out)
            ids = [row[0] for row in out.emitted]
            alive = ts.tracks.ids.tolist()
            assert ids == sorted(set(ids))  # unique, ascending
            assert alive == sorted(set(alive))
            assert not (set(ids) | set(alive)) & dropped  # never back once dropped
            dropped |= before - set(alive)
            born_ids |= set(alive)
        assert ts.next_id - 1 == len(born_ids)
        assert born_ids == set(range(1, ts.next_id))
        assert rows(outputs) == rows(tracker.run_sequence(frames, cfg))
        assert rows(outputs) == rows(tracker.run_sequence(frames, cfg))


@st.composite
def separated_scenes(draw):
    """Two agents, 1-10 frames, 1-5 objects that stay at least 8 m apart in
    every frame, detections jittered by at most 0.1 m: no IoU ties and no
    IoU near a gate. Each agent's detections come in two orders."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_objects, num_frames = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    steps = np.arange(num_frames)[:, None, None]
    while True:
        paths = (rng.uniform(-30.0, 30.0, (num_objects, 2))
                 + steps * rng.uniform(-0.3, 0.3, (num_objects, 2)))
        gaps = np.linalg.norm(paths[:, :, None] - paths[:, None], axis=-1)
        if (gaps + 8.0 * np.eye(num_objects) >= 8.0).all():
            break
    frames, permuted = [], []
    for t in range(num_frames):
        seen, shuffled = {}, {}
        for agent in ("a", "b"):
            pos = paths[t] + rng.uniform(-0.1, 0.1, paths[t].shape)
            keep = rng.uniform(size=num_objects) < 0.8
            dets = [(float(x), float(y), float(s)) for (x, y), s
                    in zip(pos[keep], rng.uniform(0.1, 1.0, num_objects)[keep])]
            seen[agent] = dets
            shuffled[agent] = [dets[k] for k in rng.permutation(len(dets))]
        frames.append(bundle(t, seen))
        permuted.append(bundle(t, shuffled))
    return frames, permuted


def trajectories(outputs):
    """Each track's (frame, box, score) rows, tracks ordered by where they
    start; track ids are left out."""
    trajs = {}
    for o in outputs:
        for tid, box, score in o.emitted:
            trajs.setdefault(tid, []).append([o.frame, *box.tolist(), score])
    return sorted(trajs.values(), key=lambda traj: traj[0][:3])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("method", list(Method))
@given(scene=separated_scenes())
def test_detection_order_within_agent_does_not_matter(method, scene):
    frames, permuted = scene
    cfg = TrackerConfig(method=method)
    want = trajectories(tracker.run_sequence(frames, cfg))
    got = trajectories(tracker.run_sequence(permuted, cfg))
    assert [len(traj) for traj in got] == [len(traj) for traj in want]
    for g, w in zip(got, want):
        np.testing.assert_allclose(np.array(g), np.array(w), rtol=0.0, atol=1e-9)
