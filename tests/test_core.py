import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from coopmot import core, tracker
from conftest import make_box, total_detections


def dump_config(cfg: core.TrackerConfig) -> str:
    """The JSON text that core.load_config reads back as cfg."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


class TestValidateDetection:
    def test_angle_wrap(self):
        d = core.validate_detection(make_box(theta=3 * math.pi / 2))
        assert abs(d.theta - (-math.pi / 2)) < 1e-12

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError, match="non-positive extent"):
            core.validate_detection(make_box(h=0.0))

    def test_well_formed_unchanged(self):
        d = make_box(x=1.0, y=2.0, theta=0.5)
        assert core.validate_detection(d) == d

    def test_non_finite_rejected(self):
        for field in ("x", "theta", "l"):
            with pytest.raises(ValueError, match="non-finite field"):
                core.validate_detection(make_box(**{field: float("nan")}))
        with pytest.raises(ValueError, match="non-finite field"):
            core.validate_detection(make_box(x=float("inf")))

    def test_non_finite_message_names_fields(self):
        with pytest.raises(ValueError) as info:
            core.validate_detection(make_box(x=1e308 * 10, l=float("nan")))
        assert str(info.value) == "non-finite field in detection: x, l"

    def test_score_range(self):
        with pytest.raises(ValueError, match=re.escape("outside [0, 1]")):
            core.validate_detection(make_box(score=1.5))
        with pytest.raises(ValueError, match=re.escape("outside [0, 1]")):
            core.validate_detection(make_box(score=-0.1))

    def test_fuzz_survivors_satisfy_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d = make_box(
                x=rng.uniform(-100, 100), y=rng.uniform(-100, 100),
                z=rng.uniform(-10, 10), theta=rng.uniform(-20, 20),
                h=rng.uniform(-1, 5), w=rng.uniform(-1, 5),
                l=rng.uniform(-1, 5), score=rng.uniform(-0.5, 1.5))
            try:
                v = core.validate_detection(d)
            except ValueError:
                assert d.h <= 0 or d.w <= 0 or d.l <= 0 or not 0 <= d.score <= 1
                continue
            assert -math.pi <= v.theta < math.pi
            assert v.h > 0 and v.w > 0 and v.l > 0
            assert 0.0 <= v.score <= 1.0


class TestTrackerConfig:
    def test_empty_config_takes_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = core.load_config(path)
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
            core.load_config(path)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "TSA"}')
        cfg = core.load_config(path)
        assert cfg.method is core.Method.TSA
        assert cfg.min_hits == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"min_hitz": 3}')
        with pytest.raises(core.ConfigParse, match="unknown config keys"):
            core.load_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(core.ConfigParse):
            core.load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(core.ConfigParse):
            core.load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("field", ["iou_assoc_threshold", "cross_agent_iou_threshold"])
    def test_threshold_bounds(self, field, value):
        # TrackerConfig is the one range check of both thresholds
        with pytest.raises(core.ConfigParse, match=rf"{field} .* not in \(0, 1\]"):
            core.TrackerConfig(**{field: value})
        assert getattr(core.TrackerConfig(**{field: 1.0}), field) == 1.0

    @pytest.mark.parametrize("field, value", [
        ("method", "tsa"),
        *[(f, v) for f in ("iou_assoc_threshold", "cross_agent_iou_threshold")
          for v in (True, "0.5", None)],
        *[(f, v) for f in ("min_hits", "max_age") for v in (True, 2.0, "3")],
        *[(f, v) for f in ("dedup_matched_pairs", "warm_start") for v in (1, None)],
    ])
    def test_wrong_type_rejected(self, field, value):
        # TrackerConfig checks its own field types, built from Python or a file
        with pytest.raises(core.ConfigParse, match=rf"config key '{field}' has wrong type"):
            core.TrackerConfig(**{field: value})

    def test_replace_is_checked(self):
        with pytest.raises(core.ConfigParse, match="min_hits 0 must be >= 1"):
            replace(core.TrackerConfig(), min_hits=0)

    def test_round_trip(self, tmp_path):
        cfg = core.TrackerConfig(method=core.Method.AOS, min_hits=4,
                                 dedup_matched_pairs=True)
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        assert core.load_config(path) == cfg

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
            assert core.load_config(path) == cfg


class TestFrameBundle:
    def test_agents_in_insertion_order(self):
        # the pipelines stack agents in insertion order: agent b's box is
        # born first and takes track id 1
        b = core.FrameBundle(frame=0, detections_by_agent={
            "b": [make_box(x=5.0)], "a": [make_box()]})
        assert total_detections(b) == 2
        out = tracker.run_sequence([b], core.TrackerConfig(method=core.Method.BASELINE))
        assert [(tid, box[0]) for tid, box, _ in out[0].emitted] == [(1, 5.0), (2, 0.0)]
