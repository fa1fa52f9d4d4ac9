import ast
import json
import math
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmot import assign, core, geometry, graphlap, io, kalman, metrics, sim, tracker
from coopmot.tracker import FrameOutput
from helpers import make_box, total_detections


def dump_config(cfg: core.TrackerConfig) -> str:
    """The JSON text that from_file reads back as cfg."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def from_file(path) -> core.TrackerConfig:
    """The tracker config in the file at path, read as `track --config` reads it."""
    return core.config_from_dict(core.read_config(path))


class TestValidateDetection:
    # a Detection checks itself when built: by its constructor, by
    # dataclasses.replace, and so by every reader and pipeline stage
    def test_angle_wrap(self):
        d = make_box(theta=3 * math.pi / 2)
        assert abs(d.theta - (-math.pi / 2)) < 1e-12
        assert replace(d, theta=4.0).theta == core.wrap_angle(4.0)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError, match="non-positive extent"):
            make_box(h=0.0)
        with pytest.raises(ValueError, match=re.escape("(h=1.0, w=-1.0, l=1.0)")):
            replace(make_box(), w=-1.0)

    def test_well_formed_unchanged(self):
        d = make_box(x=1.0, y=2.0, theta=0.5)
        assert (d.x, d.y, d.theta) == (1.0, 2.0, 0.5)
        assert replace(d) == d
        # an int a float holds is stored as its float; one no float holds is refused
        assert make_box(x=10**300).x == float(10**300) and type(make_box(x=10**300).x) is float
        with pytest.raises(ValueError, match="^non-finite field in detection: x$"):
            make_box(x=10**400)
        assert make_box(theta=-0.0).theta.hex() == (-0.0).hex()

    def test_non_finite_rejected(self):
        for field in ("x", "theta", "l", "score"):
            with pytest.raises(ValueError, match=f"^non-finite field in detection: {field}$"):
                make_box(**{field: float("nan")})
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="non-finite field"):
                make_box(x=bad)
            with pytest.raises(ValueError, match="non-finite field"):
                make_box(h=bad)

    def test_non_finite_message_names_fields(self):
        # the non-finite fields come first, ahead of the extent and the score
        with pytest.raises(ValueError) as info:
            make_box(x=1e308 * 10, h=-1.0, l=float("nan"), score=2.0)
        assert str(info.value) == "non-finite field in detection: x, l"
        with pytest.raises(ValueError) as info:
            make_box(x=10**400, h=-1.0, score=2.0)
        assert str(info.value) == "non-finite field in detection: x"

    def test_score_range(self):
        with pytest.raises(ValueError, match=re.escape("score 1.5 outside [0, 1]")):
            make_box(score=1.5)
        with pytest.raises(ValueError, match=re.escape("score -0.1 outside [0, 1]")):
            make_box(score=-0.1)
        assert make_box(score=0.0).score == 0.0 and make_box(score=1).score == 1

    def test_box_fields_lead_the_detection(self):
        # one field order for every box row, array and file, read by the getters
        assert core.BOX_FIELDS == tuple(f.name for f in fields(core.Detection))[:7]
        assert io.BOX_FIELDS is core.BOX_FIELDS
        d = make_box(1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0, 0.25)
        assert core.box_values(d) == (1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0)
        assert core.scored_values(d) == (1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0, 0.25)
        assert d.box7().tolist() == list(core.box_values(d))

    def test_fuzz_survivors_satisfy_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            values = dict(
                x=rng.uniform(-100, 100), y=rng.uniform(-100, 100),
                z=rng.uniform(-10, 10), theta=rng.uniform(-20, 20),
                h=rng.uniform(-1, 5), w=rng.uniform(-1, 5),
                l=rng.uniform(-1, 5), score=rng.uniform(-0.5, 1.5))
            try:
                v = make_box(**values)
            except ValueError:
                assert (min(values["h"], values["w"], values["l"]) <= 0
                        or not 0 <= values["score"] <= 1)
                continue
            assert -math.pi <= v.theta < math.pi
            assert v.theta == core.wrap_angle(values["theta"])
            assert v.h > 0 and v.w > 0 and v.l > 0
            assert 0.0 <= v.score <= 1.0


# Any number given to a box or a pose either builds or raises ValueError
# where it is built, never OverflowError; a box that builds raises nothing
# but ValueError in the pipelines and the IoU kernel. The 10**400 examples
# raised OverflowError when a Detection let a huge int in. A box or a pose
# builds from an int or a float, not a bool, and holds floats. Prediction
# scores take the same rule: TestOneNumberRule's evaluate and amota entries.
FLOAT_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324,
                               2.2250738585072014e-308, core.FLOAT_MAX, -core.FLOAT_MAX])
BIG_INTS = st.sampled_from([10**300, -10**300, 10**400, -10**400])
ANY_NUMBER = (st.floats() | FLOAT_EDGES | (st.floats() | FLOAT_EDGES).map(np.float64)
              | st.integers(-2**70, 2**70) | BIG_INTS | st.booleans())
ANY_NUMBER_RUNS = settings(max_examples=150, derandomize=True, deadline=None)


def fits_a_float(value) -> bool:
    """Whether value is a number (an int or a float, not a bool) that a finite float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int beyond the float range
        return False


def built_or_refused(build):
    """build(), or None when it raises ValueError; any other error escapes."""
    try:
        return build()
    except ValueError:
        return None


class TestAnyNumber:
    @ANY_NUMBER_RUNS
    @given(field=st.sampled_from([f.name for f in fields(core.Detection)]), value=ANY_NUMBER)
    @example(field="x", value=10**400)
    @example(field="theta", value=10**400)
    @example(field="y", value=-core.FLOAT_MAX)
    @example(field="h", value=3)
    @example(field="z", value=np.float64(0.5))
    @example(field="score", value=True)
    @example(field="x", value=np.float32(0.5))
    def test_detection_field(self, field, value):
        d = built_or_refused(lambda: make_box(**{field: value}))
        assert built_or_refused(lambda: replace(make_box(), **{field: value})) == d
        if d is not None:
            assert all(type(getattr(d, f.name)) is float for f in fields(d))
            built_or_refused(lambda: geometry.iou_matrix([d], [d, make_box()]))
            frames = [core.FrameBundle(t, {"a": [d], "b": [make_box(x=0.5)]}) for t in range(3)]
            for method in core.Method:
                cfg = core.TrackerConfig(method=method)
                built_or_refused(lambda: tracker.run_sequence(frames, cfg))
        refused = not fits_a_float(value) or (
            field in ("h", "w", "l") and value <= 0) or (field == "score" and not 0 <= value <= 1)
        assert (d is None) == refused

    @ANY_NUMBER_RUNS
    @given(field=st.sampled_from(["x", "y", "z", "yaw"]), value=ANY_NUMBER)
    @example(field="x", value=10**400)
    @example(field="y", value=10**300)
    @example(field="z", value=np.float64(-2.5))
    @example(field="yaw", value=1)
    @example(field="x", value=False)
    def test_pose_field(self, field, value):
        pose = built_or_refused(lambda: io.Pose(**{"x": 0.0, "y": 0.0, "z": 0.0, "yaw": 0.0,
                                                   field: value}))
        assert (pose is None) == (not fits_a_float(value))
        if pose is not None:
            assert all(type(getattr(pose, f.name)) is float for f in fields(pose))
            built_or_refused(lambda: io.to_global(make_box(x=1.0, y=-2.0), pose))

    def test_huge_int_message_names_the_fault(self, tmp_path, monkeypatch):
        # the message says what is wrong and spells no 401-digit value
        gt, pred = [[(1, make_box())]], [[(7, make_box(), 10**400)]]
        monkeypatch.chdir(tmp_path)  # a reader's message starts with its relative path
        for build, message in [
                *[(lambda entry=entry: INTEGER_ENTRIES[entry](10**400, Path(".")), message)
                  for entry, message in [
                      ("reader-frame", "in.jsonl: line 1: bad frame index: must be finite"),
                      ("reader-id", "in.jsonl: line 1: bad object_id: must be finite"),
                      ("writer-frame", "bad frame index: must be finite"),
                      ("writer-id", "frame 0: bad object_id: must be finite")]],
                (lambda: make_box(x=10**400), "non-finite field in detection: x"),
                (lambda: io.Pose(0, 10**400, 0, -10**400), "non-finite pose field: y, yaw"),
                (lambda: metrics.evaluate_sequence(gt, pred),
                 "frame 0: prediction score must be finite"),
                (lambda: metrics.amota_family(gt, pred),
                 "frame 0: prediction score must be finite"),
                (lambda: geometry.iou_matrix([[10**400, 0, 0, 0, 1, 1, 1]], [make_box()]),
                 "box has a non-finite value")]:
            with pytest.raises(ValueError) as caught:
                build()
            text = str(caught.value)
            assert text == message and len(text) < 60 and not re.search(r"\d{5}", text)


# The one number rule (core.real, core.integer) at every entry point that
# takes a number from outside. Each entry builds from one value and returns
# what it stores (None where nothing holds the value: evaluate_sequence).
def scored(value):
    """One frame, one ground-truth box and one prediction of score value."""
    return [[(1, make_box())]], [[(7, make_box(), value)]]


def read_line(tmp_path, read, record):
    """read(path) of a file holding the one line json.dumps(record)."""
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return read(path)


POSE_LINE = {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0, "yaw": 0.0}
GT_LINE = {"frame": 0, "object_id": 1, "x": 0.0, "y": 0.0, "z": 0.0, "theta": 0.0, "h": 1.0,
           "w": 1.0, "l": 1.0}


def written(tmp_path, write, rows, key):
    """The key field of the one line that write(path, rows) writes, as JSON reads it."""
    write(tmp_path / "out.jsonl", rows)
    return json.loads((tmp_path / "out.jsonl").read_text())[key]


def evaluated(value, _):
    metrics.evaluate_sequence(*scored(value))  # holds no score to return


REAL_ENTRIES = {
    "detection-field": lambda v, _: make_box(x=v).x,
    "pose-field": lambda v, _: io.Pose(v, 0.0, 0.0, 0.0).x,
    "tracker-threshold": lambda v, _: core.TrackerConfig(
        iou_assoc_threshold=v).iou_assoc_threshold,
    "scenario-scalar": lambda v, _: sim.ScenarioConfig(speed_max=v).speed_max,
    "scenario-list-leaf": lambda v, _: sim.ScenarioConfig(sigma=(0.3, v)).sigma[1],
    "scenario-sector-bound": lambda v, _: sim.ScenarioConfig(
        occlusion_sectors=(((0.0, v),), ())).occlusion_sectors[0][0][1],
    "evaluate-score": evaluated,
    "amota-score": lambda v, _: metrics.amota_family(*scored(v)).operating_points[0].threshold,
}
INTEGER_ENTRIES = {
    "tracker-count": lambda v, _: core.TrackerConfig(min_hits=v).min_hits,
    "scenario-integer": lambda v, _: sim.ScenarioConfig(num_frames=v).num_frames,
    # read_poses builds no dense frame list, which a huge frame would make endless
    "reader-frame": lambda v, tmp: next(iter(read_line(tmp, io.read_poses,
                                                       {**POSE_LINE, "frame": v})))[0],
    "reader-id": lambda v, tmp: read_line(tmp, io.read_gt, {**GT_LINE, "object_id": v})[0][0][0],
    "writer-frame": lambda v, tmp: written(
        tmp, io.write_tracks, [FrameOutput(v, ((1, make_box().box7(), 0.5),))], "frame"),
    "writer-id": lambda v, tmp: written(tmp, io.write_gt, [[(v, make_box())]], "object_id"),
}
REFUSED = [True, np.float32(0.5), Fraction(1, 2), "0.5", None, math.nan, math.inf, -math.inf,
           10**400]
REALS = [1, 0.5, np.float64(0.5)]  # 1, not 3: a threshold lies in (0, 1]
INTEGERS = [3, np.int64(3)]


def json_holds(value) -> bool:
    """Whether a JSON line can hold value: a reader entry sees no other."""
    try:
        json.dumps(value)
    except TypeError:
        return False
    return True


class TestOneNumberRule:
    @pytest.mark.parametrize("entry", [*REAL_ENTRIES, *INTEGER_ENTRIES])
    def test_every_entry_point(self, entry, tmp_path):
        build = REAL_ENTRIES.get(entry) or INTEGER_ENTRIES[entry]
        refused, accepted, kind = ((REFUSED, REALS, float) if entry in REAL_ENTRIES
                                   else (REFUSED + [2.5], INTEGERS, int))
        if entry.startswith("reader"):
            refused = [v for v in refused if json_holds(v)]
            accepted = [v for v in accepted if json_holds(v)]
        error = core.ConfigParse if entry.startswith("tracker") else ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.float32 once passed with a RuntimeWarning
            for value in refused:
                with pytest.raises(ValueError) as caught:
                    build(value, tmp_path)
                assert type(caught.value) is error, (entry, value)
            for value in accepted:
                stored = build(value, tmp_path)
                if stored is not None:
                    assert type(stored) is kind and stored == value, (entry, value)

    def test_the_float_range_is_closed(self):
        # the largest finite float, and the int equal to it, are numbers the rule takes
        for value in (core.FLOAT_MAX, -core.FLOAT_MAX):
            assert core.integer(int(value)) == int(value) and core.real(value) == value

    def test_configs_hold_json_types(self):
        # to_dict holds what json.dumps writes as given: no numpy scalars
        cfgs = [core.TrackerConfig(iou_assoc_threshold=np.float64(0.5), min_hits=np.int64(2)),
                sim.ScenarioConfig(num_objects=np.int64(3), speed_max=np.float64(0.5),
                                   sigma=[1, np.float64(0.5)],
                                   occlusion_sectors=[[[0, np.float64(1.5)]], []])]
        for cfg in cfgs:
            leaves = list(cfg.to_dict().values())
            while any(isinstance(v, tuple) for v in leaves):
                leaves = [x for v in leaves for x in (v if isinstance(v, tuple) else [v])]
            assert {type(v) for v in leaves} <= {str, bool, int, float}
        assert cfgs[0].min_hits == 2 and cfgs[1].sigma == (1.0, 0.5)


def test_value_types_are_frozen():
    # the pipeline's value objects are immutable; the scene runs each module that defines one
    gt, bundles = sim.generate(sim.ScenarioConfig(num_objects=2, num_frames=3))
    tracks = [[(t, make_box(*b), s) for t, b, s in out.emitted]
              for out in tracker.run_sequence(bundles, core.TrackerConfig())]
    metrics.amota_family(gt, tracks)
    io.Pose(0.0, 0.0, 0.0, 0.0)
    types = [core.Detection, core.TrackerConfig, core.FrameBundle, assign.AssociationResult,
             graphlap.Refined, io.Pose, kalman.Tracks, kalman.KalmanModel,
             metrics.OperatingPoint, metrics.MetricsReport, sim.ScenarioConfig,
             tracker.TrackSet, tracker.FrameOutput]
    assert [t.__name__ for t in types if not t.__dataclass_params__.frozen] == []


def test_only_core_states_the_number_bound():
    # core.real and core.integer are the one number rule: no other module of
    # the package names FLOAT_MAX or imports numbers, so the rule cannot split
    package = Path(core.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "core.py" and path.parent == package:
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        named = ({n.id for n in nodes if isinstance(n, ast.Name)}
                 | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                 | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
        imported = ({a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import)
                     for a in n.names}
                    | {n.module.split(".")[0] for n in nodes
                       if isinstance(n, ast.ImportFrom) and n.level == 0})
        assert "FLOAT_MAX" not in named, path
        assert "numbers" not in imported, path


class TestTrackerConfig:
    def test_empty_config_takes_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = from_file(path)
        assert cfg.min_hits == 3
        assert cfg.max_age == 2
        assert cfg.method is core.Method.TSA
        assert cfg.iou_assoc_threshold == 0.25
        assert cfg.cross_agent_iou_threshold == 0.25
        assert cfg.dedup_matched_pairs is False
        assert cfg.warm_start is True

    def test_min_hits_zero_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"min_hits": 0}')
        with pytest.raises(core.ConfigParse):
            from_file(path)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "TSA"}')
        cfg = from_file(path)
        assert cfg.method is core.Method.TSA
        assert cfg.min_hits == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"min_hitz": 3}')
        with pytest.raises(core.ConfigParse, match="unknown config keys"):
            from_file(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(core.ConfigParse):
            from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(core.ConfigParse):
            from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("field", ["iou_assoc_threshold", "cross_agent_iou_threshold"])
    def test_threshold_bounds(self, field, value):
        # TrackerConfig is the one range check of both thresholds; NaN is no
        # number a finite float holds, refused by core's rule before the range
        message = (rf"^config key '{field}' must be finite$" if math.isnan(value)
                   else rf"^{field} {value} not in \(0, 1\]$")
        with pytest.raises(core.ConfigParse, match=message):
            core.TrackerConfig(**{field: value})
        assert getattr(core.TrackerConfig(**{field: 1.0}), field) == 1.0

    @pytest.mark.parametrize("field, value", [
        ("method", 3),
        *[(f, v) for f in ("iou_assoc_threshold", "cross_agent_iou_threshold")
          for v in (True, "0.5", None)],
        *[(f, v) for f in ("min_hits", "max_age") for v in (True, 2.0, "3")],
        *[(f, v) for f in ("dedup_matched_pairs", "warm_start") for v in (1, None)],
    ])
    def test_wrong_type_rejected(self, field, value):
        # TrackerConfig checks its own field types, built from Python or a file
        with pytest.raises(core.ConfigParse, match=rf"config key '{field}' has wrong type"):
            core.TrackerConfig(**{field: value})

    @pytest.mark.parametrize("name", ["aos", "AOS", "Tsa", "baseline"])
    def test_method_name_accepted(self, name):
        # TrackerConfig turns a name into a Method, in any case, however built
        method = core.Method(name.lower())
        assert core.TrackerConfig(method=name).method is method
        assert replace(core.TrackerConfig(), method=name).method is method
        assert core.config_from_dict({"method": name}).method is method

    def test_unknown_method_rejected(self):
        with pytest.raises(core.ConfigParse, match="^unknown method 'kalman'$"):
            core.TrackerConfig(method="kalman")
        with pytest.raises(core.ConfigParse, match="^unknown method 'kalman'$"):
            replace(core.TrackerConfig(), method="kalman")

    def test_replace_is_checked(self):
        with pytest.raises(core.ConfigParse, match="min_hits 0 must be >= 1"):
            replace(core.TrackerConfig(), min_hits=0)

    def test_round_trip(self, tmp_path):
        cfg = core.TrackerConfig(method=core.Method.AOS, min_hits=4,
                                 dedup_matched_pairs=True)
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        assert from_file(path) == cfg

    def test_round_trip_fuzz(self, tmp_path):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cfg = core.TrackerConfig(
                method=rng.choice(list(core.Method)),
                iou_assoc_threshold=float(rng.uniform(0.01, 1.0)),
                cross_agent_iou_threshold=float(rng.uniform(0.01, 1.0)),
                min_hits=int(rng.integers(1, 10)),
                max_age=int(rng.integers(1, 10)),
                dedup_matched_pairs=bool(rng.integers(0, 2)),
                warm_start=bool(rng.integers(0, 2)))
            path = tmp_path / "cfg.json"
            path.write_text(dump_config(cfg))
            assert from_file(path) == cfg


class TestFrameBundle:
    def test_agents_in_insertion_order(self):
        # the pipelines stack agents in insertion order: agent b's box is
        # born first and takes track id 1
        b = core.FrameBundle(frame=0, detections_by_agent={
            "b": [make_box(x=5.0)], "a": [make_box()]})
        assert total_detections(b) == 2
        out = tracker.run_sequence([b], core.TrackerConfig(method=core.Method.BASELINE))
        assert [(tid, box[0]) for tid, box, _ in out[0].emitted] == [(1, 5.0), (2, 0.0)]
