import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmot import cli, io, sim
from coopmot.core import Detection, FrameBundle
from coopmot.tracker import FrameOutput
from conftest import inverse_pose, make_box, total_detections, write_poses


@pytest.fixture
def scenario():
    cfg = sim.ScenarioConfig(num_objects=4, num_frames=6, sigma=(0.3, 0.2),
                             dropout=(0.1, 0.0), seed=21)
    return sim.generate(cfg)


class TestToGlobal:
    def test_identity_pose(self):
        d = make_box(x=1.0, y=2.0, z=0.5, theta=0.3)
        p = io.Pose(0.0, 0.0, 0.0, 0.0)
        assert io.to_global(d, p) == d

    def test_quarter_turn(self):
        d = make_box(x=1.0, y=0.0, z=0.0)
        p = io.Pose(0.0, 0.0, 0.0, math.pi / 2)
        g = io.to_global(d, p)
        assert abs(g.x) < 1e-12 and abs(g.y - 1.0) < 1e-12 and g.z == 0.0
        assert abs(g.theta - math.pi / 2) < 1e-12

    def test_rotation_matrix_oracle(self, rng):
        for _ in range(100):
            d = make_box(x=rng.uniform(-10, 10), y=rng.uniform(-10, 10),
                         z=rng.uniform(-2, 2), theta=rng.uniform(-3, 3))
            p = io.Pose(*rng.uniform(-20, 20, 3), rng.uniform(-math.pi, math.pi))
            g = io.to_global(d, p)
            rot = np.array([[math.cos(p.yaw), -math.sin(p.yaw)],
                            [math.sin(p.yaw), math.cos(p.yaw)]])
            expected = rot @ np.array([d.x, d.y]) + np.array([p.x, p.y])
            assert abs(g.x - expected[0]) < 1e-12
            assert abs(g.y - expected[1]) < 1e-12
            assert g.h * g.w * g.l == d.h * d.w * d.l  # volume preserved

    def test_inverse_round_trip(self, rng):
        for _ in range(50):
            d = make_box(x=rng.uniform(-10, 10), y=rng.uniform(-10, 10),
                         z=rng.uniform(-2, 2), theta=rng.uniform(-3, 3))
            p = io.Pose(*rng.uniform(-20, 20, 3), rng.uniform(-math.pi, math.pi))
            back = io.to_global(io.to_global(d, p), inverse_pose(p))
            assert abs(back.x - d.x) < 1e-12
            assert abs(back.y - d.y) < 1e-12
            assert abs(back.z - d.z) < 1e-12


class TestDetectionsRoundTrip:
    def test_scenario_round_trip(self, scenario, tmp_path):
        _, bundles = scenario
        path = tmp_path / "detections.jsonl"
        io.write_detections(path, bundles)
        back = io.read_detections(path)
        assert len(back) == len(bundles)
        for orig, rt in zip(bundles, back):
            assert rt.frame == orig.frame
            assert sorted(rt.detections_by_agent) == sorted(
                a for a, v in orig.detections_by_agent.items())
            for agent, dets in orig.detections_by_agent.items():
                got = rt.detections_by_agent.get(agent, [])
                assert [(d.x, d.y, d.z, d.theta, d.h, d.w, d.l, d.score)
                        for d in got] == \
                    [(d.x, d.y, d.z, d.theta, d.h, d.w, d.l, d.score)
                     for d in dets]

    def test_missing_frames_become_empty_bundles(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        rows = [
            {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0,
             "theta": 0.0, "h": 1.0, "w": 1.0, "l": 1.0, "score": 0.5},
            {"frame": 3, "agent": "a", "x": 1.0, "y": 0.0, "z": 0.0,
             "theta": 0.0, "h": 1.0, "w": 1.0, "l": 1.0, "score": 0.5},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        bundles = io.read_detections(path)
        assert [b.frame for b in bundles] == [0, 1, 2, 3]
        assert total_detections(bundles[1]) == 0
        assert total_detections(bundles[2]) == 0

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        good = {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0,
                "theta": 0.0, "h": 1.0, "w": 1.0, "l": 1.0, "score": 0.5}
        path.write_text(json.dumps(good) + "\n{broken\n")
        with pytest.raises(ValueError, match="line 2"):
            io.read_detections(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        bad = {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0,
               "theta": 0.0, "h": 1.0, "w": 1.0}  # no l, no score
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="missing fields"):
            io.read_detections(path)

    def test_out_of_order_frames_rejected(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        row = {"agent": "a", "x": 0.0, "y": 0.0, "z": 0.0, "theta": 0.0,
               "h": 1.0, "w": 1.0, "l": 1.0, "score": 0.5}
        path.write_text(json.dumps({"frame": 2, **row}) + "\n"
                        + json.dumps({"frame": 1, **row}) + "\n")
        with pytest.raises(ValueError, match="frame 1 after frame 2"):
            io.read_detections(path)

    def test_degenerate_box_rejected(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        bad = {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0,
               "theta": 0.0, "h": 0.0, "w": 1.0, "l": 1.0, "score": 0.5}
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            io.read_detections(path)

    def test_merge_per_agent_files(self, scenario, tmp_path):
        _, bundles = scenario
        paths = []
        for agent in sim.AGENTS:
            split = [FrameBundle(frame=b.frame, detections_by_agent={
                agent: b.detections_by_agent.get(agent, [])}) for b in bundles]
            p = tmp_path / f"detections_{agent}.jsonl"
            io.write_detections(p, split)
            paths.append(p)
        merged = io.merge_detection_files(paths)
        assert len(merged) == len(bundles)
        for orig, rt in zip(bundles, merged):
            assert total_detections(rt) == total_detections(orig)
            assert list(rt.detections_by_agent) == sorted(orig.detections_by_agent)


class TestGtAndTracksRoundTrip:
    def test_gt_round_trip(self, scenario, tmp_path):
        gt_frames, _ = scenario
        path = tmp_path / "gt.jsonl"
        io.write_gt(path, gt_frames)
        back = io.read_gt(path)
        assert len(back) == len(gt_frames)
        for orig, rt in zip(gt_frames, back):
            assert [(o, d.x, d.y, d.z, d.theta) for o, d in rt] == \
                [(o, d.x, d.y, d.z, d.theta) for o, d in orig]

    def test_tracks_round_trip(self, tmp_path):
        outputs = [
            FrameOutput(frame=0, emitted=((1, np.array([0.5, 1.5, 0.25, 0.1, 1.6, 1.8, 4.5]), 0.9),)),
            FrameOutput(frame=1, emitted=((1, np.array([0.7, 1.5, 0.25, 0.1, 1.6, 1.8, 4.5]), 0.8),
                                          (2, np.array([9.0, -1.0, 0.25, 0.0, 1.6, 1.8, 4.5]), 0.7))),
        ]
        path = tmp_path / "tracks.jsonl"
        io.write_tracks(path, outputs)
        back = io.read_tracks(path)
        assert len(back) == 2
        assert [tid for tid, _, _ in back[1]] == [1, 2]
        assert back[0][0][1].x == 0.5
        assert back[0][0][2] == 0.9

    def test_full_precision_round_trip(self, tmp_path):
        x = 0.1 + 0.2  # 0.30000000000000004
        out = FrameOutput(frame=0, emitted=((5, np.array([x, math.pi, -0.0, 1e-17, 1.6, 1.8, 4.5]), 1 / 3),))
        path = tmp_path / "tracks.jsonl"
        io.write_tracks(path, [out])
        back = io.read_tracks(path)
        tid, d, score = back[0][0]
        assert d.x == x
        assert d.y == math.pi
        assert score == 1 / 3


class TestPoses:
    def test_round_trip_and_apply(self, tmp_path):
        poses = {(0, "a"): io.Pose(1.0, 2.0, 0.0, 0.5),
                 (1, "a"): io.Pose(1.5, 2.0, 0.0, 0.6)}
        path = tmp_path / "poses_a.jsonl"
        write_poses(path, poses)
        back = io.read_poses(path)
        assert back == poses

        local = [FrameBundle(frame=0, detections_by_agent={"a": [make_box(x=1.0)]}),
                 FrameBundle(frame=1, detections_by_agent={"a": [make_box(x=1.0)]})]
        out = io.apply_poses(local, poses)
        assert out[0].detections_by_agent["a"][0] == io.to_global(
            local[0].detections_by_agent["a"][0], poses[(0, "a")])

    def test_repeated_pose_rejected(self, tmp_path):
        # one pose per (frame, agent), within a file and across files, even
        # when the repeat is equal
        pose = io.Pose(1.0, 2.0, 0.0, 0.5)
        first, second = tmp_path / "poses_a.jsonl", tmp_path / "poses_b.jsonl"
        write_poses(first, {(0, "a"): pose})
        write_poses(second, {(0, "b"): pose, (1, "a"): pose})
        assert io.read_poses(first, second) == {(0, "a"): pose, (0, "b"): pose,
                                                (1, "a"): pose}
        first.write_text(first.read_text() * 2)
        message = f"{first}: frame 0, agent a has more than one pose"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io.read_poses(first)
        write_poses(first, {(1, "a"): pose})
        message = f"{second}: frame 1, agent a already has a pose in {first}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io.read_poses(first, second)

    def test_missing_pose_rejected(self):
        local = [FrameBundle(frame=0, detections_by_agent={"a": [make_box()]})]
        with pytest.raises(ValueError, match="missing pose"):
            io.apply_poses(local, {})


# Write then read returns every field bit for bit; repr tells -0.0 from 0.0.
ROUND_TRIP = settings(max_examples=50, deadline=None)
SPECIAL = st.sampled_from([0.1 + 0.2, 1e-17, -0.0, 1e300, -1.7976931348623157e308])
COORD = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL
EXTENT = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
          | st.sampled_from([0.1 + 0.2, 1e-17, 1e300]))
ANGLE = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)
SCORE = st.floats(min_value=0.0, max_value=1.0)
IDS = st.integers(-2**63, 2**63)


def detections(score=SCORE):
    return st.builds(Detection, COORD, COORD, COORD, ANGLE, EXTENT, EXTENT, EXTENT, score)


def fields(d) -> tuple:
    return tuple(map(repr, (d.x, d.y, d.z, d.theta, d.h, d.w, d.l, d.score)))


@st.composite
def bundle_lists(draw):
    agents = st.dictionaries(st.text(min_size=1, max_size=4),
                             st.lists(detections(), min_size=1, max_size=3), max_size=3)
    return [FrameBundle(frame=t, detections_by_agent=dict(sorted(draw(agents).items())))
            for t in range(draw(st.integers(0, 4)))]


class TestRoundTripProperty:
    @ROUND_TRIP
    @given(bundle_lists())
    def test_detections(self, tmp_path_factory, bundles):
        path = tmp_path_factory.mktemp("rt") / "detections.jsonl"
        io.write_detections(path, bundles)

        def flat(bs):
            return [(b.frame, agent, fields(d))
                    for b in bs for agent, dets in b.detections_by_agent.items() for d in dets]
        assert flat(io.read_detections(path)) == flat(bundles)

    @ROUND_TRIP
    @given(st.lists(st.lists(st.tuples(IDS, detections(st.just(1.0))), max_size=3),
                    max_size=4))
    def test_gt(self, tmp_path_factory, gt_frames):
        path = tmp_path_factory.mktemp("rt") / "gt.jsonl"
        io.write_gt(path, gt_frames)

        def flat(frames):
            return [(t, oid, fields(d)) for t, row in enumerate(frames) for oid, d in row]
        assert flat(io.read_gt(path)) == flat(gt_frames)

    @ROUND_TRIP
    @given(st.lists(st.lists(st.tuples(IDS, detections()), max_size=3), max_size=4))
    def test_tracks(self, tmp_path_factory, rows):
        outputs = [FrameOutput(frame=t, emitted=tuple(
            (tid, d.box7(), d.score) for tid, d in row)) for t, row in enumerate(rows)]
        path = tmp_path_factory.mktemp("rt") / "tracks.jsonl"
        io.write_tracks(path, outputs)
        back = io.read_tracks(path)
        assert [(t, tid, fields(d), repr(score)) for t, row in enumerate(back)
                for tid, d, score in row] == \
            [(t, tid, fields(d), repr(d.score)) for t, row in enumerate(rows)
             for tid, d in row]

    @ROUND_TRIP
    @given(st.dictionaries(st.tuples(st.integers(0, 5), st.text(min_size=1, max_size=4)),
                           st.builds(io.Pose, COORD, COORD, COORD, ANGLE), max_size=6))
    def test_poses(self, tmp_path_factory, poses):
        path = tmp_path_factory.mktemp("rt") / "poses.jsonl"
        write_poses(path, poses)

        def flat(ps):
            return {k: tuple(map(repr, (p.x, p.y, p.z, p.yaw))) for k, p in ps.items()}
        assert flat(io.read_poses(path)) == flat(poses)


# The JSONL writers as they built a dict per row and wrote
# json.dumps(record) + "\n": the oracle for the io writers, which must
# write the same bytes. They live here, not in conftest, which the
# benchmark imports.
def _reference_write(path, records) -> None:
    """Write dicts as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def reference_write_detections(path, bundles) -> None:
    _reference_write(path, ({
        "frame": bundle.frame, "agent": agent,
        "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
        "h": d.h, "w": d.w, "l": d.l, "score": d.score,
    } for bundle in bundles for agent, dets in bundle.detections_by_agent.items()
        for d in dets))


def reference_write_gt(path, gt_frames) -> None:
    _reference_write(path, ({
        "frame": t, "object_id": oid,
        "x": d.x, "y": d.y, "z": d.z, "theta": d.theta,
        "h": d.h, "w": d.w, "l": d.l,
    } for t, row in enumerate(gt_frames) for oid, d in row))


def reference_write_tracks(path, outputs) -> None:
    """Write FrameOutputs as a tracks file."""
    _reference_write(path, ({
        "frame": out.frame, "track_id": int(tid),
        "x": float(box[0]), "y": float(box[1]), "z": float(box[2]),
        "theta": float(box[3]), "h": float(box[4]),
        "w": float(box[5]), "l": float(box[6]),
        "score": float(score),
    } for out in outputs for tid, box, score in out.emitted))



# The writers against the json.dumps(record) + "\n" writer they replaced
# (reference_write_* above): the same bytes for any value, the same error
# for a value json.dumps cannot write. Specials, ints, huge ints and float
# subclasses leave the writers' fast path, so each is drawn often.
WRITE_SAME = settings(max_examples=100, deadline=None)
ANY_FLOAT = st.floats() | st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf])
ANY_VALUE = (ANY_FLOAT | ANY_FLOAT.map(np.float64) | st.integers(-2**70, 2**70)
             | st.just(10**400))
FRAME_OR_ID = st.integers(-2**70, 2**70) | st.booleans()
AGENT = st.text(max_size=4) | st.sampled_from(['"', "\\", 'a"b\\c', "é", " ", "\x00"])


def any_detection(draw):
    """A Detection of plain floats half the time, else of any values."""
    values = draw(st.sampled_from([ANY_FLOAT, ANY_VALUE]))
    return Detection(*(draw(values) for _ in range(8)))


def written(write, path, data):
    """The bytes write leaves at path, and the error it raised, if any."""
    try:
        write(path, data)
        error = None
    except (TypeError, ValueError, OverflowError) as exc:
        error = (type(exc), str(exc))
    return path.read_bytes(), error


class TestWritersMatchJsonDumps:
    @WRITE_SAME
    @given(st.data())
    def test_detections(self, tmp_path_factory, data):
        bundles = [FrameBundle(frame=data.draw(FRAME_OR_ID), detections_by_agent={
            agent: [any_detection(data.draw) for _ in range(data.draw(st.integers(0, 3)))]
            for agent in data.draw(st.lists(AGENT, max_size=3, unique=True))})
            for _ in range(data.draw(st.integers(0, 3)))]
        base = tmp_path_factory.mktemp("w")
        assert written(io.write_detections, base / "new.jsonl", bundles) == \
            written(reference_write_detections, base / "old.jsonl", bundles)

    @WRITE_SAME
    @given(st.data())
    def test_gt(self, tmp_path_factory, data):
        gt_frames = [[(data.draw(FRAME_OR_ID), any_detection(data.draw))
                      for _ in range(data.draw(st.integers(0, 3)))]
                     for _ in range(data.draw(st.integers(0, 4)))]
        base = tmp_path_factory.mktemp("w")
        assert written(io.write_gt, base / "new.jsonl", gt_frames) == \
            written(reference_write_gt, base / "old.jsonl", gt_frames)

    @WRITE_SAME
    @given(st.data())
    def test_tracks(self, tmp_path_factory, data):
        def box():  # a track state row, or any sequence of values
            if data.draw(st.booleans()):
                return np.array(data.draw(st.lists(ANY_FLOAT, min_size=7, max_size=10)))
            return data.draw(st.lists(ANY_VALUE, min_size=7, max_size=10))
        outputs = [FrameOutput(frame=data.draw(FRAME_OR_ID), emitted=tuple(
            (data.draw(st.integers(0, 2**70) | st.integers(0, 99).map(np.int64)),
             box(), data.draw(ANY_VALUE)) for _ in range(data.draw(st.integers(0, 3)))))
            for _ in range(data.draw(st.integers(0, 3)))]
        base = tmp_path_factory.mktemp("w")
        assert written(io.write_tracks, base / "new.jsonl", outputs) == \
            written(reference_write_tracks, base / "old.jsonl", outputs)


# sha256 of simulate's files for a small seeded scenario with dropout and an
# occlusion sector; any change of a written byte changes them.
SIMULATE_SHA256 = {
    "gt.jsonl": "95390125936f21ecfa8d7c2524b5a1ed7fca3e9662e5cea400278c8ea0f02865",
    "detections_agent0.jsonl": "6c087e98511b6ac9aa049c81b3b2758fc2deee7eb5151a93a4f425373323bbee",
    "detections_agent1.jsonl": "5dc71b58ffa70c78868e43497fd56f086491bf2142461072b936f84e3acbf791",
}


def test_simulate_bytes_are_pinned(tmp_path):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "num_objects": 6, "num_frames": 25, "sigma": [0.3, 0.2], "dropout": [0.1, 0.2],
        "occlusion_sectors": [[], [[0.5, 1.5]]], "speed_min": 0.05, "speed_max": 0.2,
        "world_extent": 60.0, "seed": 42}))
    assert cli.main(["simulate", "--config", str(scen), "--out", str(tmp_path / "sim")]) == 0
    assert {name: hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest()
            for name in SIMULATE_SHA256} == SIMULATE_SHA256


GOOD = {"frame": 0, "agent": "a", "object_id": 3, "track_id": 4, "x": 0.5, "y": 0.0,
        "z": 0.0, "theta": 0.0, "h": 1.0, "w": 1.0, "l": 1.0, "score": 0.5, "yaw": 0.0}
READERS = {"detections": (io.read_detections, ("agent", "score")),
           "gt": (io.read_gt, ("object_id",)), "tracks": (io.read_tracks, ("track_id", "score")),
           "poses": (io.read_poses, ("agent", "yaw"))}


def line(kind, **changes) -> str:
    """One JSONL record of kind with the changes applied (None drops a field)."""
    keys = ("frame",) + READERS[kind][1] + (
        ("x", "y", "z") if kind == "poses" else io.BOX_FIELDS)
    rec = {k: changes.get(k, GOOD[k]) for k in keys if changes.get(k, 0) is not None}
    return json.dumps(rec) + "\n"


# (kind, file content, the whole message after "<path>: ").
READ_ERRORS = [
    ("gt", b'{"frame": 0, "object_id": "\xff"}\n',
     "line 1: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 27: "
     "invalid start byte)"),
    ("detections", "{broken\n", "line 1: invalid JSON (Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1))"),
    ("tracks", line("tracks").strip() + "  []\n",
     "line 1: invalid JSON (Extra data: line 1 column 118 (char 117))"),
    ("gt", "﻿" + line("gt"), "line 1: invalid JSON (Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0))"),
    ("poses", "\n  \n nul\n", "line 3: invalid JSON (Expecting value: line 1 column 1 "
     "(char 0))"),
    ("gt", "[1, 2]\n", "line 1: expected an object"),
    ("tracks", line("tracks", h=None, frame=None), "line 1: missing fields ['frame', 'h']"),
    ("detections", line("detections", frame=-1), "line 1: bad frame index -1"),
    ("gt", line("gt", frame=True), "line 1: bad frame index True"),
    ("tracks", line("tracks", frame="0"), "line 1: bad frame index '0'"),
    ("detections", line("detections", frame=2) + line("detections", frame=1),
     "line 2: frame 1 after frame 2"),
    ("detections", line("detections", agent=""), "line 1: bad agent ''"),
    ("poses", line("poses", agent=7), "line 1: bad agent 7"),
    ("gt", line("gt", object_id=1.0), "line 1: bad object_id 1.0"),
    ("tracks", line("tracks", track_id=False), "line 1: bad track_id False"),
    ("detections", line("detections", x="1.0"), "line 1: field 'x' must be a number"),
    ("tracks", line("tracks", y=1, score=True), "line 1: field 'score' must be a number"),
    ("poses", line("poses", yaw=[0.0]), "line 1: field 'yaw' must be a number"),
    ("gt", line("gt", h=0.0), "line 1: non-positive extent (h=0.0, w=1.0, l=1.0)"),
    ("detections", line("detections", score=1.5), "line 1: score 1.5 outside [0, 1]"),
    ("tracks", line("tracks", z=math.nan, l=math.inf),
     "line 1: non-finite field in detection: z, l"),
    ("poses", line("poses", yaw=-math.inf),
     "line 1: non-finite pose Pose(x=0.5, y=0.0, z=0.0, yaw=-inf)"),
    ("detections", line("detections", y=10 ** 320),
     "line 1: field 'y' is too large for a float"),
]


@pytest.mark.parametrize("kind, content, message", READ_ERRORS,
                         ids=[f"{row[0]}-{k}" for k, row in enumerate(READ_ERRORS)])
def test_read_error_text(tmp_path, kind, content, message):
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(ValueError) as caught:
        READERS[kind][0](path)
    assert str(caught.value) == f"{path}: {message}"


def test_int_fields_read_as_floats(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text(line("gt", x=2, h=3))
    (oid, d), = io.read_gt(path)[0]
    assert (oid, d.x, d.h) == (3, 2.0, 3.0) and type(d.x) is float and type(d.h) is float
