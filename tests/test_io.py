import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmot import io, sim
from coopmot.core import Detection, FrameBundle, scored_values, wrap_angle
from coopmot.tracker import FrameOutput
from helpers import inverse_pose, make_box, total_detections, write_poses


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for the property tests: each example overwrites its own files."""
    return tmp_path_factory.mktemp("examples")


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
            assert g.z == d.z + p.z and g.theta == wrap_angle(d.theta + p.yaw)
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
            assert {agent: list(map(fields, dets)) for agent, dets in
                    rt.detections_by_agent.items()} == {
                agent: list(map(fields, dets)) for agent, dets in orig.detections_by_agent.items()}

    def test_missing_frames_become_empty_bundles(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text(line("detections") + line("detections", frame=3, x=1.0))
        bundles = io.read_detections(path)
        assert [b.frame for b in bundles] == [0, 1, 2, 3]
        assert total_detections(bundles[1]) == 0
        assert total_detections(bundles[2]) == 0
        path.write_text("")
        assert io.read_detections(path) == []

    def test_missing_field_rejected(self, tmp_path):
        (tmp_path / "d.jsonl").write_text(line("detections", l=None, score=None))
        with pytest.raises(ValueError, match="missing fields"):
            io.read_detections(tmp_path / "d.jsonl")

    def test_out_of_order_frames_rejected(self, tmp_path):
        (tmp_path / "d.jsonl").write_text(line("detections", frame=2) + line("detections", frame=1))
        with pytest.raises(ValueError, match="frame 1 after frame 2"):
            io.read_detections(tmp_path / "d.jsonl")

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

        def row(frame, agent, x):
            return line("detections", frame=frame, agent=agent, x=x)

        # the second file restarts at frame 0, and agent b, in both files,
        # keeps its detections in path order
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text(row(0, "b", 1.0) + row(2, "b", 2.0))
        second.write_text(row(0, "b", 3.0) + row(0, "a", 4.0) + row(2, "b", 5.0))
        merged = io.merge_detection_files([first, second])
        assert [{agent: [d.x for d in dets] for agent, dets in b.detections_by_agent.items()}
                for b in merged] == [{"a": [4.0], "b": [1.0, 3.0]}, {}, {"b": [2.0, 5.0]}]
        assert list(merged[0].detections_by_agent) == ["a", "b"]
        # frame order is checked within each file, and an error names its file
        second.write_text(row(0, "b", 3.0) + row(2, "b", 4.0) + row(1, "b", 5.0))
        message = f"{second}: line 3: frame 1 after frame 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            io.merge_detection_files([first, second])


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


def fields(d) -> tuple:
    return tuple(map(repr, (d.x, d.y, d.z, d.theta, d.h, d.w, d.l, d.score)))


class TestRoundTripProperty:
    # detections, gt and tracks: TestWritersMatchJsonDumps reads each back
    @ROUND_TRIP
    @given(st.dictionaries(st.tuples(st.integers(0, 5), st.text(min_size=1, max_size=4)),
                           st.builds(io.Pose, COORD, COORD, COORD, ANGLE), max_size=6))
    def test_poses(self, scratch, poses):
        path = scratch / "poses.jsonl"
        write_poses(path, poses)

        def flat(ps):
            return {k: tuple(map(repr, (p.x, p.y, p.z, p.yaw))) for k, p in ps.items()}
        assert flat(io.read_poses(path)) == flat(poses)


# Any 8 floats either build a Detection that both box writers round-trip, or
# raise the ValueError that a file's record of them raises after "line 1: ".
EDGE = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324,
                        2.2250738585072014e-308, 1.7976931348623157e308,
                        -1.7976931348623157e308])


@st.composite
def eight_floats(draw):
    """A valid box's 8 floats with any number of them swapped for any float."""
    values = list(draw(st.tuples(COORD, COORD, COORD, COORD, EXTENT, EXTENT, EXTENT, SCORE)))
    for i in draw(st.sets(st.integers(0, 7))):
        values[i] = draw(st.floats() | EDGE)
    return values


def box_fault(values):
    """The message of the first box rule that the 8 floats break, or None:
    non-finite fields, then extents, then the score."""
    bad = [name for name, v in zip(io.BOX_FIELDS + ("score",), values) if not math.isfinite(v)]
    if bad:
        return f"non-finite field in detection: {', '.join(bad)}"
    x, y, z, theta, h, w, l, score = values
    if min(h, w, l) <= 0:
        return f"non-positive extent (h={h}, w={w}, l={l})"
    if not 0.0 <= score <= 1.0:
        return f"score {score} outside [0, 1]"
    return None


class TestAnyFloats:
    @settings(max_examples=200, deadline=None)
    @given(eight_floats())
    @example([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 7.5])  # each rule broken alone
    @example([0.0, 0.0, 0.0, 0.0, 1.0, -0.0, 1.0, 0.5])
    @example([math.nan, 0.0, 0.0, math.inf, 1.0, 1.0, 1.0, 2.0])
    @example([5e-324, -0.0, 1.7976931348623157e308, 4.0, 5e-324, 1e308, 1.0, 0.0])
    def test_box_builds_and_round_trips_or_fails_to_read(self, scratch, values):
        fault = box_fault(values)
        if fault is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
                Detection(*values)
            path = scratch / "detections.jsonl"
            path.write_text(json.dumps(dict(zip(("frame", "agent") + io.BOX_FIELDS + ("score",),
                                                [0, "a", *values]))) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {fault}')}$"):
                io.read_detections(path)
            return
        d = Detection(*values)
        io.write_detections(scratch / "detections.jsonl", [FrameBundle(0, {"a": [d]})])
        (back,) = io.read_detections(scratch / "detections.jsonl")[0].detections_by_agent["a"]
        assert fields(back) == fields(d)
        io.write_gt(scratch / "gt.jsonl", [[(7, d)]])
        assert [(oid, fields(g)) for oid, g in io.read_gt(scratch / "gt.jsonl")[0]] == \
            [(7, fields(replace(d, score=1.0)))]


# The writers against json.dumps: a writer either writes every row as the
# bytes of json.dumps(record) + "\n", and the records read back equal, or it
# raises ValueError, which it does exactly when a row holds a value that the
# reader refuses. A frame, an agent or an id is drawn bad one time in eight; a
# track row's box or score now and then takes any value, or is cut or padded.
WRITE_ANY = settings(max_examples=100, deadline=None)
ANY_FLOAT = st.floats() | st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 1e-300, 1e300, 0.1 + 0.2, 1e-17, -1.7976931348623157e308])
BUILDS = FINITE | FINITE.map(np.float64) | st.integers(-2**70, 2**70) | st.just(10**300)
ANY_VALUE = (ANY_FLOAT | ANY_FLOAT.map(np.float64) | st.integers(-2**70, 2**70)
             | st.sampled_from([10**300, 10**400, True, np.float32(0.5), "1.0", None]))
ID = st.integers(-2**70, 2**70) | st.integers(-99, 99).map(np.int64)
BAD_ID = st.sampled_from([True, False, 2.7, 3.0, np.float64(3.0), np.bool_(True), "3", None])
BAD_FRAME = BAD_ID | st.sampled_from([-1, -2**70, np.int64(-1)])
AGENT = st.text(min_size=1, max_size=4) | st.sampled_from(['"', "\\", 'a"b\\c', "é", " ", "\x00"])
BAD_AGENT = st.sampled_from(["", 7, None, True])
SCORED_FIELDS = io.BOX_FIELDS + ("score",)


def drawn(data, good, bad, refused: list):
    """A draw of good, or one time in eight a draw of bad, noted in refused."""
    if data.draw(st.integers(0, 7)):
        return data.draw(good)
    refused.append(data.draw(bad))
    return refused[-1]


# (values, extents, scores): plain floats, or any numbers that build a Detection
DETECTION_NUMBERS = st.sampled_from([
    (FINITE, FINITE.map(abs).filter(bool), SCORE),
    (BUILDS, BUILDS.map(abs).filter(bool), SCORE | SCORE.map(np.float64) | st.integers(0, 1))])


def any_detection(draw):
    """A Detection built from plain floats half the time, else from any
    numbers that build one: ints, 10**300 and np.float64 among them."""
    values, extent, score = draw(DETECTION_NUMBERS)
    return Detection(draw(values), draw(values), draw(values), draw(values),
                     draw(extent), draw(extent), draw(extent), draw(score))


def track_row(data):
    """A track's (box, score): a Detection's values as a list or a float
    array, or now and then with one value swapped for any value, or the box
    cut or padded."""
    values = list(scored_values(any_detection(data.draw)))
    if not data.draw(st.integers(0, 3)):
        values[data.draw(st.integers(0, 7))] = data.draw(ANY_VALUE)
    box, score = values[:7], values[7]
    if not data.draw(st.integers(0, 7)):
        box = (box + box)[:data.draw(st.integers(0, 10).filter(lambda n: n != 7))]
    if data.draw(st.booleans()) and all(type(v) is float for v in box):
        box = np.array(box)
    return box, score


def row_detection(box, score):
    """The Detection of a track row's box and score, or None for a row that
    read_tracks would refuse (any row whose box is not seven numbers)."""
    values = box.tolist() if isinstance(box, np.ndarray) else box
    try:
        return Detection(*values, score) if len(values) == 7 else None
    except ValueError:
        return None


def writes_or_refuses(write, path, data, refused, records, read):
    """write(path, data) raises ValueError if refused holds a value; else it
    writes each of records(data) as json.dumps does, and records(read(path))
    gives them back."""
    if refused:
        with pytest.raises(ValueError):
            write(path, data)
        return
    write(path, data)
    expected = "".join(json.dumps(rec) + "\n" for rec in records(data))
    assert path.read_text(encoding="utf-8") == expected
    assert "".join(json.dumps(rec) + "\n" for rec in records(read(path))) == expected  # -0.0 too


def box_record(frame, key, value, d, names=SCORED_FIELDS) -> dict:
    return {"frame": int(frame), key: value, **dict(zip(names, scored_values(d)))}


class TestWritersMatchJsonDumps:
    @WRITE_ANY
    @given(st.data())
    def test_detections(self, scratch, data):
        refused = []
        bundles = [FrameBundle(
            frame=drawn(data, st.sampled_from([t, np.int64(t)]), BAD_FRAME, refused),
            detections_by_agent={
                drawn(data, st.just(agent), BAD_AGENT, refused):
                    [any_detection(data.draw) for _ in range(data.draw(st.integers(0, 3)))]
                for agent in sorted(data.draw(st.lists(AGENT, max_size=3, unique=True)))})
            for t in range(data.draw(st.integers(0, 4)))]

        def records(bs):
            return [box_record(b.frame, "agent", agent, d)
                    for b in bs for agent, dets in b.detections_by_agent.items() for d in dets]
        writes_or_refuses(io.write_detections, scratch / "det.jsonl",
                          bundles, refused, records, io.read_detections)

    @WRITE_ANY
    @given(st.data())
    def test_gt(self, scratch, data):
        refused = []
        gt_frames = [[(drawn(data, ID, BAD_ID, refused), any_detection(data.draw))
                      for _ in range(data.draw(st.integers(0, 3)))]
                     for _ in range(data.draw(st.integers(0, 4)))]

        def records(frames):
            return [box_record(t, "object_id", int(oid), d, io.BOX_FIELDS)
                    for t, row in enumerate(frames) for oid, d in row]
        writes_or_refuses(io.write_gt, scratch / "gt.jsonl", gt_frames,
                          refused, records, io.read_gt)

    @WRITE_ANY
    @given(st.data())
    def test_tracks(self, scratch, data):
        refused = []
        outputs = [FrameOutput(
            frame=drawn(data, st.sampled_from([t, np.int64(t)]), BAD_FRAME, refused),
            emitted=tuple((drawn(data, ID, BAD_ID, refused), *track_row(data))
                          for _ in range(data.draw(st.integers(0, 3)))))
            for t in range(data.draw(st.integers(0, 4)))]
        refused += [row for out in outputs for row in out.emitted
                    if row_detection(*row[1:]) is None]

        def records(outs):
            return [box_record(out.frame, "track_id", int(tid), row_detection(box, score))
                    for out in outs for tid, box, score in out.emitted]

        def read(path):
            return [FrameOutput(t, tuple((tid, d.box7(), score) for tid, d, score in row))
                    for t, row in enumerate(io.read_tracks(path))]
        writes_or_refuses(io.write_tracks, scratch / "tracks.jsonl",
                          outputs, refused, records, read)


def test_writer_refusals_name_the_frame_and_value(tmp_path):
    box = make_box()
    out = {"gt": io.write_gt, "tracks": io.write_tracks, "detections": io.write_detections}
    for kind, rows, message in [
            ("gt", [[], [(True, box)]], "frame 1: bad object_id True"),
            ("gt", [[(3.0, box)]], "frame 0: bad object_id 3.0"),
            ("gt", [[(3, box), ("a", box)]], "frame 0: bad object_id 'a'"),
            # a repr past 24 characters is cut
            ("gt", [[("x" * 22, box)]], "frame 0: bad object_id '" + "x" * 22 + "'"),
            ("gt", [[("x" * 23, box)]], "frame 0: bad object_id '" + "x" * 20 + "..."),
            ("tracks", [FrameOutput(2, ((2.7, box.box7(), 0.5),))], "frame 2: bad track_id 2.7"),
            ("tracks", [FrameOutput(0, ((True, box.box7(), 0.5),))],
             "frame 0: bad track_id True"),
            ("tracks", [FrameOutput(-1, ())], "bad frame index -1"),
            ("tracks", [FrameOutput(0, ((1, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                                         0.5),))], "frame 0: track 1: 10 box values"),
            ("tracks", [FrameOutput(0, ((1, [math.nan, *box.box7()[1:]], 0.5),))],
             "non-finite field in detection: x"),
            ("tracks", [FrameOutput(0, ((1, [0, 10**400, 0, 0, 1, 1, 1], 0.5),))],
             "non-finite field in detection: y"),
            ("detections", [FrameBundle(True, {"a": [box]})], "bad frame index True"),
            ("detections", [FrameBundle(4, {"": []})], "frame 4: bad agent ''")]:
        with pytest.raises(ValueError) as caught:
            out[kind](tmp_path / "out.jsonl", rows)
        assert str(caught.value) == message
    io.write_gt(tmp_path / "gt.jsonl", [[(np.int64(3), box)]])
    io.write_tracks(tmp_path / "tracks.jsonl", [FrameOutput(np.int64(1), (
        (np.int64(7), np.array([0, 0, 0, 0, 1, 1, 1]), 1),))])
    assert io.read_gt(tmp_path / "gt.jsonl")[0][0][0] == 3
    assert (tmp_path / "tracks.jsonl").read_text() == (
        '{"frame": 1, "track_id": 7, "x": 0.0, "y": 0.0, "z": 0.0, "theta": 0.0, '
        '"h": 1.0, "w": 1.0, "l": 1.0, "score": 1.0}\n')


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


# (test id, kind, file content, the whole message after "<path>: ").
READ_ERRORS = [
    ("gt-not-utf8", "gt", b'{"frame": 0, "object_id": "\xff"}\n',
     "line 1: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 27: "
     "invalid start byte)"),
    ("det-bad-json", "detections", "{broken\n",
     "line 1: invalid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    ("tracks-extra-data", "tracks", line("tracks").strip() + "  []\n",
     "line 1: invalid JSON (Extra data: line 1 column 118 (char 117))"),
    ("gt-bom", "gt", "﻿" + line("gt"), "line 1: invalid JSON (Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0))"),
    ("tracks-bom-only", "tracks", "\ufeff\n", "line 1: invalid JSON (Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0))"),
    ("poses-bad-json-line-3", "poses", "\n  \n nul\n",
     "line 3: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    ("gt-not-object", "gt", "[1, 2]\n", "line 1: expected an object"),
    ("tracks-missing-fields", "tracks", line("tracks", h=None, frame=None),
     "line 1: missing fields ['frame', 'h']"),
    ("det-frame-negative", "detections", line("detections", frame=-1),
     "line 1: bad frame index -1"),
    ("gt-frame-bool", "gt", line("gt", frame=True), "line 1: bad frame index True"),
    ("tracks-frame-string", "tracks", line("tracks", frame="0"),
     "line 1: bad frame index '0'"),
    ("det-frame-backwards", "detections",
     line("detections", frame=2) + line("detections", frame=1), "line 2: frame 1 after frame 2"),
    ("det-agent-empty", "detections", line("detections", agent=""), "line 1: bad agent ''"),
    ("poses-agent-int", "poses", line("poses", agent=7), "line 1: bad agent 7"),
    ("gt-object-id-float", "gt", line("gt", object_id=1.0), "line 1: bad object_id 1.0"),
    ("tracks-track-id-bool", "tracks", line("tracks", track_id=False),
     "line 1: bad track_id False"),
    ("det-x-string", "detections", line("detections", x="1.0"),
     "line 1: field 'x' must be a number"),
    ("tracks-score-bool", "tracks", line("tracks", y=1, score=True),
     "line 1: field 'score' must be a number"),
    ("poses-yaw-list", "poses", line("poses", yaw=[0.0]),
     "line 1: field 'yaw' must be a number"),
    ("gt-h-zero", "gt", line("gt", h=0.0),
     "line 1: non-positive extent (h=0.0, w=1.0, l=1.0)"),
    ("det-w-zero", "detections", line("detections", w=0.0),
     "line 1: non-positive extent (h=1.0, w=0.0, l=1.0)"),
    ("tracks-l-zero", "tracks", line("tracks", l=0.0),
     "line 1: non-positive extent (h=1.0, w=1.0, l=0.0)"),
    ("det-score-above-one", "detections", line("detections", score=1.5),
     "line 1: score 1.5 outside [0, 1]"),
    ("tracks-non-finite", "tracks", line("tracks", z=math.nan, l=math.inf),
     "line 1: non-finite field in detection: z, l"),
    ("poses-yaw-inf", "poses", line("poses", yaw=-math.inf),
     "line 1: non-finite pose field: yaw"),
    ("det-y-too-large", "detections", line("detections", y=10 ** 320),
     "line 1: non-finite field in detection: y"),
]


@pytest.mark.parametrize("kind, content, message", [row[1:] for row in READ_ERRORS],
                         ids=[row[0] for row in READ_ERRORS])
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
