import importlib
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

import coopmot
from coopmot import cli, geometry, sim
from helpers import inverse_pose, write_poses
from test_digests import check_recorded, default_scene_files, read_recorded


def run_cli(*argv):
    return cli.main(list(argv))


def subprocess_env():
    """The environment with this coopmot first on PYTHONPATH."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(
                [os.path.dirname(os.path.dirname(coopmot.__file__)),
                 os.environ.get("PYTHONPATH", "")])}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def scenario_cfg(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "num_objects": 4, "num_frames": 15, "sigma": [0.2, 0.2],
        "speed_min": 0.05, "speed_max": 0.2, "world_extent": 60.0,
        "seed": 5,
    }))
    return str(path)


class TestSimulate:
    def test_writes_outputs(self, tmp_path, scenario_cfg):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", scenario_cfg, "--out", str(out)) == 0
        assert (out / "gt.jsonl").exists()
        assert (out / "detections_agent0.jsonl").exists()
        assert (out / "detections_agent1.jsonl").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5

    def test_manifest_duration_from_monotonic_clock(self, tmp_path, scenario_cfg,
                                                    monkeypatch):
        # the wall clock steps back an hour at every read; the duration must
        # still be a non-negative float
        wall = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(wall)))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", scenario_cfg, "--out", str(out)) == 0
        duration = json.loads((out / "run_manifest.json").read_text())["duration_sec"]
        assert isinstance(duration, float) and duration >= 0.0

    def test_manifest_records_environment(self, tmp_path, scenario_cfg):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", scenario_cfg, "--out", str(out)) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["backend"] == geometry.BACKEND
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == sys.version.split()[0]
        assert "scipy" not in manifest

    def test_defaults_without_config(self, tmp_path):
        # the files of ScenarioConfig's default scene (its world_extent,
        # counts, speeds, noise and seed) to their recorded digests
        recorded = read_recorded()
        got = default_scene_files(str(tmp_path / "sim"))
        assert sorted(got) == sorted(recorded["default_scene"])
        for name, want in recorded["default_scene"].items():
            check_recorded(recorded, got[name], want, "sha256")

    def test_world_smaller_than_one_meter(self, tmp_path):
        cfg = tmp_path / "small.json"
        cfg.write_text('{"world_extent": 0.5, "num_objects": 1}')
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_frames": 0}')
        assert run_cli("simulate", "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 2

    def test_unknown_scenario_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frames": 10}')
        assert run_cli("simulate", "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("raw, message", [
        ({"sigma": [0.3]}, "one entry per agent"),
        ({"sigma": [0.3, 0.3, 9]}, "one entry per agent"),
        ({"dropout": [0.1]}, "one entry per agent"),
        ({"occlusion_sectors": [[], [], []]}, "one entry per agent"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"num_frames": 2.5}, "num_frames must be an integer"),
        ({"occlusion_sectors": [[[1, 2, 3]], []]}, "is not a (lo, hi) pair"),
        ({"num_objects": 500}, "world too small"),
        ({"world_extent": float("nan")}, "world_extent must be finite"),
        ({"world_extent": float("inf")}, "world_extent must be finite"),
        ({"speed_max": float("inf")}, "speed_max must be finite"),
        ({"score_base": float("nan")}, "score_base must be finite"),
        ({"speed_min": float("nan")}, "speed_min must be finite"),
        ({"sigma": [0.3, float("nan")]}, "sigma must be finite"),
        ({"score_jitter": float("-inf")}, "score_jitter must be finite"),
        ({"occlusion_sectors": [[[0.0, float("inf")]], []]}, "occlusion_sectors must be finite"),
        # finite speeds whose positions overflow: no overflow warning on
        # stderr, and nothing written even when every detection is dropped
        ({"speed_max": 1e308}, "ground-truth position is not finite"),
        ({"speed_min": 1e307, "speed_max": 1e308, "num_frames": 5, "num_objects": 2,
          "dropout": [1.0, 1.0]}, "ground-truth position is not finite"),
        # finite noise whose detections overflow: the message names the frame
        # and agent, not a Detection repr
        ({"sigma": [1e308, 0.3]}, "detection position is not finite at frame 2, agent agent0"),
        # JSON booleans and other non-numbers are not scenario numbers
        ({"speed_min": True, "speed_max": True}, "speed_min must be a number"),
        ({"dropout": [True, False]}, "dropout must be a number"),
        ({"sigma": ["0.3", 0.3]}, "sigma must be a number"),
        ({"score_jitter": None}, "score_jitter must be a number"),
        ({"occlusion_sectors": [[[0.0, [1.0]]], []]}, "occlusion_sectors must be a number"),
        ({"world_extent": -60}, "world_extent must be >= 0"),
        # an int too large for a float is not finite (was an OverflowError traceback)
        ({"speed_max": 10**400}, "speed_max must be finite"),
        # the spawn buffer is bounded by the attempt limit, not by num_objects
        ({"num_objects": 10**12}, "world too small"),
        # per-agent values and sectors are lists (was "'float' object is not iterable")
        ({"sigma": 0.3}, "sigma must be a list"),
        ({"dropout": 0.1}, "dropout must be a list"),
        ({"occlusion_sectors": [[0.5], []]}, "occlusion_sectors must be a list"),
        ({"occlusion_sectors": [0.5, []]}, "occlusion_sectors must be a list"),
        ({"occlusion_sectors": None}, "occlusion_sectors must be a list"),
        ({"num_objects": -1}, "num_objects must be >= 0"),
        ({"speed_min": -0.1}, "need 0 <= speed_min <= speed_max"),
        ({"speed_min": 0.5, "speed_max": 0.1}, "need 0 <= speed_min <= speed_max"),
    ], ids=[f"raw{k}" for k in range(35)])
    def test_per_agent_list_length_exits_2(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run_cli("simulate", "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_seed_override_keeps_file_config(self, tmp_path, scenario_cfg):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", scenario_cfg, "--out", str(out),
                       "--seed", "7") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        with open(scenario_cfg, encoding="utf-8") as fh:
            expected = sim.scenario_from_dict({**json.load(fh), "seed": 7}).to_dict()
        assert manifest["config"] == json.loads(json.dumps(expected))
        assert manifest["seed"] == 7

    def test_negative_seed_override_exits_2(self, tmp_path, capsys, scenario_cfg):
        # the override is checked as a file value is
        assert run_cli("simulate", "--config", scenario_cfg, "--out", str(tmp_path / "o"),
                       "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "seed must be >= 0" in err
        assert not (tmp_path / "o").exists()


class TestTrack:
    def test_pipeline_smoke(self, tmp_path, scenario_cfg):
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        tracks = tmp_path / "tracks.jsonl"
        assert run_cli("track", "--method", "tsa", "--detections", str(sim_dir),
                       "--out", str(tracks)) == 0
        frames = [json.loads(line)["frame"] for line in tracks.read_text().splitlines()]
        assert frames == sorted(frames)
        assert len(frames) > 0

    def test_missing_detections_dir_exits_1(self, tmp_path):
        assert run_cli("track", "--method", "aos",
                       "--detections", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "t.jsonl")) == 1

    @pytest.mark.parametrize("unreadable", ["detections_zz.jsonl", "poses_a.jsonl"])
    def test_input_directory_exits_1(self, tmp_path, capsys, scenario_cfg, unreadable):
        # a directory whose name matches an input glob cannot be read as a file
        sim_dir, poses_dir = tmp_path / "sim", tmp_path / "poses"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        poses = unreadable.startswith("poses")
        os.makedirs((poses_dir if poses else sim_dir) / unreadable)
        capsys.readouterr()
        assert run_cli("track", "--detections", str(sim_dir),
                       "--out", str(tmp_path / "t.jsonl"),
                       *(["--poses", str(poses_dir)] if poses else [])) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and unreadable in err

    def test_directory_names_are_not_glob_patterns(self, tmp_path, scenario_cfg):
        # as patterns, "run[1]" and "poses[1]" match only "run1" and "poses1"
        from coopmot.io import Pose
        sim_dir, poses_dir = tmp_path / "run[1]", tmp_path / "poses[1]"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        os.makedirs(poses_dir)
        write_poses(poses_dir / "poses.jsonl", {(frame, agent): Pose(3.0, -1.0, 0.0, 0.2)
                                                for frame in range(15)
                                                for agent in ("agent0", "agent1")})
        out = tmp_path / "t.jsonl"
        assert run_cli("track", "--detections", str(sim_dir), "--poses", str(poses_dir),
                       "--out", str(out)) == 0
        assert out.read_text()

    def test_manifest_lists_each_pose_file(self, tmp_path, scenario_cfg):
        # the inputs are the files read, pose files as well as detections
        from coopmot.io import Pose
        sim_dir, poses_dir = tmp_path / "sim", tmp_path / "poses"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        os.makedirs(poses_dir)
        for agent in ("agent0", "agent1"):
            write_poses(poses_dir / f"poses_{agent}.jsonl",
                        {(frame, agent): Pose(3.0, -1.0, 0.0, 0.2) for frame in range(15)})
        out = tmp_path / "out" / "t.jsonl"
        assert run_cli("track", "--detections", str(sim_dir), "--poses", str(poses_dir),
                       "--out", str(out)) == 0
        manifest = json.loads((out.parent / "run_manifest.json").read_text())
        assert manifest["inputs"] == [str(d / f"{kind}_{agent}.jsonl")
                                      for d, kind in ((sim_dir, "detections"),
                                                      (poses_dir, "poses"))
                                      for agent in ("agent0", "agent1")]

    def test_unknown_method_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("track", "--method", "bogus",
                    "--detections", str(tmp_path), "--out", str(tmp_path / "t"))
        assert exc.value.code == 2

    def test_bad_tracker_config_exits_2(self, tmp_path, scenario_cfg):
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        cfg = tmp_path / "tracker.json"
        cfg.write_text('{"min_hits": 0}')
        assert run_cli("track", "--method", "aos", "--detections", str(sim_dir),
                       "--out", str(tmp_path / "t.jsonl"),
                       "--config", str(cfg)) == 2

    def test_method_override_keeps_file_config(self, tmp_path, scenario_cfg):
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        file_cfg = {"method": "tsa", "iou_assoc_threshold": 0.3,
                    "cross_agent_iou_threshold": 0.2, "min_hits": 2, "max_age": 4,
                    "dedup_matched_pairs": True, "warm_start": False}
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "out" / "t.jsonl"
        assert run_cli("track", "--config", str(cfg), "--method", "aos",
                       "--detections", str(sim_dir), "--out", str(out)) == 0
        manifest = json.loads((out.parent / "run_manifest.json").read_text())
        assert manifest["config"] == {**file_cfg, "method": "aos"}

    def test_poses_project_local_detections(self, tmp_path, scenario_cfg):
        # rewrite the global detections into an agent-local frame, hand the
        # pose file to the tracker, and expect the same tracks as the
        # global-frame run
        import math
        from coopmot import io as cio
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        global_tracks = tmp_path / "tracks_global.jsonl"
        run_cli("track", "--method", "aos", "--detections", str(sim_dir),
                "--out", str(global_tracks))

        pose = cio.Pose(12.0, -7.0, 0.5, math.pi / 3)
        local_dir = tmp_path / "local"
        poses_dir = tmp_path / "poses"
        os.makedirs(local_dir)
        os.makedirs(poses_dir)
        poses = {}
        for agent in ("agent0", "agent1"):
            bundles = cio.read_detections(sim_dir / f"detections_{agent}.jsonl")
            local = []
            for b in bundles:
                per = {a: [cio.to_global(d, inverse_pose(pose)) for d in dets]
                       for a, dets in b.detections_by_agent.items()}
                from coopmot.core import FrameBundle
                local.append(FrameBundle(frame=b.frame, detections_by_agent=per))
                for a in per:
                    poses[(b.frame, a)] = pose
            cio.write_detections(local_dir / f"detections_{agent}.jsonl", local)
        write_poses(poses_dir / "poses.jsonl", poses)

        local_tracks = tmp_path / "tracks_local.jsonl"
        assert run_cli("track", "--method", "aos", "--detections", str(local_dir),
                       "--out", str(local_tracks), "--poses", str(poses_dir)) == 0
        globals_ = [json.loads(l) for l in global_tracks.read_text().splitlines()]
        locals_ = [json.loads(l) for l in local_tracks.read_text().splitlines()]
        assert len(globals_) == len(locals_)
        for g, l in zip(globals_, locals_):
            assert g["frame"] == l["frame"] and g["track_id"] == l["track_id"]
            for key in ("x", "y", "z", "theta", "h", "w", "l"):
                assert abs(g[key] - l[key]) < 1e-9

    @pytest.mark.parametrize("method", ["baseline", "tsa"])
    def test_long_gap_is_stepped_without_work(self, tmp_path, method):
        # Two agents see one box at frames 0 and gap..gap+2. Its track dies
        # after max_age misses, so each empty frame of the gap has no boxes
        # and no tracks and only advances the step index. The tracks file is
        # that of the gap closed to frames 3..5, relabelled.
        gap = 100_000

        def track(frames):
            det = tmp_path / f"det{frames[1]}"
            det.mkdir()
            for agent, x in (("a", 0.0), ("b", 0.1)):
                (det / f"detections_{agent}.jsonl").write_text("".join(
                    record("detections", frame=f, agent=agent, x=x + 0.05 * k)
                    for k, f in enumerate(frames)))
            out = tmp_path / f"tracks{frames[1]}.jsonl"
            started = time.perf_counter()
            assert run_cli("track", "--method", method, "--detections", str(det),
                           "--out", str(out)) == 0
            return read_bytes(out), time.perf_counter() - started

        got, elapsed = track([0, gap, gap + 1, gap + 2])
        want, _ = track([0, 3, 4, 5])
        for k in (3, 4, 5):
            want = want.replace(b'{"frame": %d, ' % k, b'{"frame": %d, ' % (gap + k - 3))
        assert f'"frame": {gap + 2}, '.encode() in want
        assert got == want
        assert elapsed < 8.0  # stepping each empty frame in full takes about 24 s


class TestEvalAndAnalyze:
    def test_long_gap_is_scored_without_work(self, tmp_path):
        # Two objects at frames 0 and gap; object 2 changes track id across
        # the gap, and a false positive comes last. Every empty frame of the
        # gap gets no matcher, so both files equal those of the gap closed.
        gap = 100_000

        def score(last):
            run = tmp_path / f"run{last}"
            run.mkdir()
            (run / "gt.jsonl").write_text("".join(
                record("gt", frame=f, object_id=oid, x=x + dx)
                for f, dx in ((0, 0.0), (last, 0.5)) for oid, x in ((1, 0.0), (2, 10.0))))
            (run / "tracks.jsonl").write_text("".join(
                record("tracks", frame=f, track_id=tid, x=x, score=s)
                for f, tid, x, s in ((0, 1, 0.1, 0.9), (0, 2, 10.0, 0.6), (last, 1, 0.6, 0.8),
                                     (last, 3, 10.4, 0.7), (last, 4, 50.0, 0.3))))
            inputs = ["--tracks", str(run / "tracks.jsonl"), "--gt", str(run / "gt.jsonl")]
            started = time.perf_counter()
            assert run_cli("eval", *inputs, "--out", str(run / "report.json")) == 0
            assert run_cli("analyze", *inputs, "--out", str(run / "motp.csv")) == 0
            elapsed = time.perf_counter() - started
            return [read_bytes(run / name) for name in ("report.json", "motp.csv")], elapsed

        got, elapsed = score(gap)
        want, _ = score(1)
        assert json.loads(want[0])["operating_points"][-1]["idsw"] == 1
        assert got == want
        assert elapsed < 2.5  # with a matcher per empty frame it took about 5 s

    @pytest.fixture
    def tracked(self, tmp_path, scenario_cfg):
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        tracks = tmp_path / "tracks.jsonl"
        run_cli("track", "--method", "tsa", "--detections", str(sim_dir),
                "--out", str(tracks))
        return sim_dir, tracks

    def test_eval_report_fields(self, tmp_path, tracked, capsys):
        sim_dir, tracks = tracked
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--tracks", str(tracks),
                       "--gt", str(sim_dir / "gt.jsonl"),
                       "--out", str(report_path), "--table") == 0
        report = json.loads(report_path.read_text())
        for key in ("amota", "amotp", "samota", "mt", "mota", "motp"):
            assert key in report
        table = capsys.readouterr().out
        assert "AMOTA" in table and "MT" in table

    def test_perfect_tracks_score_100(self, tmp_path, scenario_cfg):
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        # use the GT itself as the tracks file
        gt_lines = (sim_dir / "gt.jsonl").read_text().splitlines()
        tracks = tmp_path / "tracks.jsonl"
        with open(tracks, "w") as fh:
            for line in gt_lines:
                rec = json.loads(line)
                rec["track_id"] = rec.pop("object_id") + 1
                rec["score"] = 0.9
                fh.write(json.dumps(rec) + "\n")
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--tracks", str(tracks),
                       "--gt", str(sim_dir / "gt.jsonl"),
                       "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["amota"] == 100.0
        assert report["samota"] == 100.0
        assert report["mt"] == 100.0

    def test_empty_tracks_amota_zero(self, tmp_path, tracked):
        sim_dir, _ = tracked
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--tracks", str(empty),
                       "--gt", str(sim_dir / "gt.jsonl"),
                       "--out", str(report_path)) == 0
        assert json.loads(report_path.read_text())["amota"] == 0.0

    def test_eval_without_gt_exits_1(self, tmp_path, tracked):
        _, tracks = tracked
        empty_gt = tmp_path / "gt_empty.jsonl"
        empty_gt.write_text("")
        assert run_cli("eval", "--tracks", str(tracks), "--gt", str(empty_gt),
                       "--out", str(tmp_path / "r.json")) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_eval_table_to_full_stdout_exits_2(self, tmp_path, tracked):
        # the failing stream is stdout, not the report: the one error line
        # names stdout, and the report and the manifest are both written.
        # With a buffered stdout the table is still in the buffer when main
        # returns, and the flush at exit must not fail a second time.
        sim_dir, tracks = tracked
        report_path = tmp_path / "r.json"
        for unbuffered in ("", "1"):
            env = {k: v for k, v in subprocess_env().items() if k != "PYTHONUNBUFFERED"}
            if unbuffered:
                env["PYTHONUNBUFFERED"] = unbuffered
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "coopmot.cli", "eval", "--tracks", str(tracks),
                     "--gt", str(sim_dir / "gt.jsonl"), "--out", str(report_path), "--table"],
                    env=env, stdout=full, stderr=subprocess.PIPE, text=True)
            assert proc.returncode == 2, (unbuffered, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and "stdout" in lines[0] and "r.json" not in lines[0]
            assert report_path.exists() and (tmp_path / "run_manifest.json").exists()

    def test_analyze_single_bin_for_uniform_scenario(self, tmp_path, scenario_cfg):
        # perfect tracks over a scenario with a constant object count give
        # a single TP-count bin
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
        tracks = tmp_path / "tracks.jsonl"
        with open(tracks, "w") as fh:
            for line in (sim_dir / "gt.jsonl").read_text().splitlines():
                rec = json.loads(line)
                rec["track_id"] = rec.pop("object_id") + 1
                rec["score"] = 0.9
                fh.write(json.dumps(rec) + "\n")
        out_csv = tmp_path / "motp.csv"
        assert run_cli("analyze", "--tracks", str(tracks),
                       "--gt", str(sim_dir / "gt.jsonl"),
                       "--out", str(out_csv)) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2  # header + one bin
        tp_count, mean_motp, freq = lines[1].split(",")
        assert tp_count == "4" and float(mean_motp) == 1.0 and freq == "15"

    def test_analyze_csv(self, tmp_path, tracked):
        sim_dir, tracks = tracked
        out_csv = tmp_path / "motp_vs_tp.csv"
        assert run_cli("analyze", "--tracks", str(tracks),
                       "--gt", str(sim_dir / "gt.jsonl"),
                       "--out", str(out_csv)) == 0
        # recount each frame's matches with track association's matcher
        from coopmot import assign, io as cio, metrics
        gt_frames = cio.read_gt(str(sim_dir / "gt.jsonl"))
        pred_frames = cio.read_tracks(str(tracks))
        n = max(len(gt_frames), len(pred_frames))
        bins = {}
        for gt, pred in zip(gt_frames + [[]] * (n - len(gt_frames)),
                            pred_frames + [[]] * (n - len(pred_frames))):
            gt_boxes, pred_boxes = [g[1] for g in gt], [p[1] for p in pred]
            result = assign.associate(gt_boxes, pred_boxes, metrics.IOU_THRESHOLD)
            if result.num_matched:
                iou = geometry.iou_matrix(gt_boxes, pred_boxes)
                iou_sum = 0.0
                for r, c in zip(result.matched_rows, result.matched_cols):
                    iou_sum += iou.item(r, c)
                bins.setdefault(result.num_matched, []).append(iou_sum / result.num_matched)
        assert bins, "expected at least one bin"
        assert out_csv.read_text().splitlines() == ["tp_count,mean_motp,frequency"] + [
            f"{tp},{sum(means) / len(means)!r},{len(means)}"
            for tp, means in sorted(bins.items())]


@pytest.mark.parametrize("command", ["simulate", "track", "eval", "analyze"])
def test_unwritable_output_exits_2(tmp_path, capsys, scenario_cfg, command):
    sim_dir, tracks = tmp_path / "sim", tmp_path / "tracks.jsonl"
    run_cli("simulate", "--config", scenario_cfg, "--out", str(sim_dir))
    run_cli("track", "--detections", str(sim_dir), "--out", str(tracks))
    capsys.readouterr()
    gt = str(sim_dir / "gt.jsonl")
    # simulate needs a directory and gets a file; the others get a directory
    argv = {"simulate": ["--config", scenario_cfg, "--out", gt],
            "track": ["--detections", str(sim_dir), "--out", str(sim_dir)],
            "eval": ["--tracks", str(tracks), "--gt", gt, "--out", str(sim_dir)],
            "analyze": ["--tracks", str(tracks), "--gt", gt, "--out", str(sim_dir)]}
    assert run_cli(command, *argv[command]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write ")


BOX = {"x": 0.0, "y": 0.0, "z": 0.0, "theta": 0.0, "h": 1.0, "w": 1.0, "l": 1.0}
GOOD = {
    "detections": {"frame": 0, "agent": "a", **BOX, "score": 0.5},
    "gt": {"frame": 0, "object_id": 1, **BOX},
    "tracks": {"frame": 0, "track_id": 1, **BOX, "score": 0.5},
    "poses": {"frame": 0, "agent": "a", "x": 0.0, "y": 0.0, "z": 0.0, "yaw": 0.0},
}
DROP = object()


def record(kind, **changes):
    """One JSONL line of kind's valid record with the changes applied; a
    change to DROP removes the field."""
    rec = {**GOOD[kind], **changes}
    return json.dumps({k: v for k, v in rec.items() if v is not DROP}) + "\n"


NOT_UTF8 = b'{"frame": 0, "agent": "\xff"}\n'
NESTED = "[" * 20000 + "\n"

# (id, command, input replaced, its content, exit code, message fragment).
# Every other input of the command is valid: one detection, one pose, one
# GT box and one track at frame 0, and empty configs.
MALFORMED = [
    ("bad-json", "track", "detections", "{broken\n", 1, "line 1: invalid JSON"),
    ("not-object", "eval", "gt", "[1, 2]\n", 1, "line 1: expected an object"),
    ("missing-field", "analyze", "tracks", record("tracks", h=DROP), 1,
     "line 1: missing fields ['h']"),
    ("string-number", "track", "detections", record("detections", x="1.0"), 1,
     "line 1: field 'x' must be a number"),
    ("bool-number", "eval", "tracks", record("tracks", score=True), 1,
     "line 1: field 'score' must be a number"),
    ("int-beyond-float", "track", "detections", record("detections", x=10 ** 320), 1,
     "line 1: non-finite field in detection: x"),
    ("frame-negative", "track", "detections", record("detections", frame=-1), 1,
     "line 1: bad frame index -1"),
    ("frame-float", "eval", "gt", record("gt", frame=1.5), 1,
     "line 1: bad frame index 1.5"),
    ("frame-string", "analyze", "tracks", record("tracks", frame="0"), 1,
     "line 1: bad frame index '0'"),
    ("frames-decreasing", "track", "detections",
     record("detections", frame=1) + record("detections"), 1,
     "line 2: frame 0 after frame 1"),
    ("empty-agent", "track", "detections", record("detections", agent=""), 1,
     "line 1: bad agent ''"),
    ("agent-not-string", "track", "poses", record("poses", agent=7), 1,
     "line 1: bad agent 7"),
    ("object-id-string", "eval", "gt", record("gt", object_id="7"), 1,
     "line 1: bad object_id '7'"),
    ("track-id-float", "analyze", "tracks", record("tracks", track_id=1.5), 1,
     "line 1: bad track_id 1.5"),
    ("zero-height", "track", "detections", record("detections", h=0.0), 1,
     "line 1: non-positive extent"),
    ("score-above-one", "eval", "tracks", record("tracks", score=1.5), 1,
     "line 1: score 1.5 outside [0, 1]"),
    ("nan-box", "eval", "gt", record("gt", z=float("nan")), 1,
     "line 1: non-finite field in detection"),
    ("pose-missing-field", "track", "poses", record("poses", yaw=DROP), 1,
     "line 1: missing fields ['yaw']"),
    ("missing-pose", "track", "poses", record("poses", agent="b"), 1,
     "missing pose for frame 0, agent a"),
    # one pose per (frame, agent), even when the repeat is equal
    ("pose-repeated", "track", "poses", record("poses") + record("poses", x=1.0), 1,
     "poses_a.jsonl: frame 0, agent a has more than one pose"),
    ("pose-repeated-across-files", "track", "poses_b", record("poses"), 1,
     "poses_b.jsonl: frame 0, agent a already has a pose in "),
    ("config-bad-json", "track", "config", "{", 2, "cannot parse config"),
    ("config-unknown-key", "track", "config", '{"gain": 1}', 2,
     "unknown config keys: ['gain']"),
    ("config-wrong-type", "track", "config", '{"min_hits": "3"}', 2,
     "config key 'min_hits' has wrong type"),
    ("config-bad-method", "track", "config", '{"method": "kalman"}', 2,
     "unknown method 'kalman'"),
    # the thresholds' range is checked where the config arrives
    ("config-threshold-zero", "track", "config", '{"iou_assoc_threshold": 0}', 2,
     "iou_assoc_threshold 0 not in (0, 1]"),
    ("config-threshold-nan", "track", "config", '{"cross_agent_iou_threshold": NaN}', 2,
     "cross_agent_iou_threshold nan not in (0, 1]"),
    ("scenario-not-utf8", "simulate", "scenario", b"\xff", 2,
     "invalid scenario config"),
    # both configs take one root and key check; a JSON boolean is not a threshold
    ("scenario-root-list", "simulate", "scenario", "[]", 2,
     "config root must be a JSON object"),
    ("scenario-root-string", "simulate", "scenario", '"seed"', 2,
     "config root must be a JSON object"),
    ("config-threshold-bool", "track", "config", '{"iou_assoc_threshold": true}', 2,
     "has wrong type: True"),
    ("config-cross-threshold-bool", "track", "config",
     '{"cross_agent_iou_threshold": true}', 2, "has wrong type: True"),
    # a file that is not UTF-8 is a data error naming the file and line, or
    # a config error
    ("detections-not-utf8", "track", "detections", NOT_UTF8, 1,
     "detections_a.jsonl: line 1: not UTF-8"),
    ("gt-not-utf8", "eval", "gt", record("gt").encode() + NOT_UTF8, 1,
     "gt.jsonl: line 2: not UTF-8"),
    ("tracks-not-utf8", "analyze", "tracks", NOT_UTF8, 1,
     "tracks.jsonl: line 1: not UTF-8"),
    ("config-not-utf8", "track", "config", b"\xff", 2, "cannot parse config"),
    # JSON booleans are not integers
    ("frame-bool", "eval", "gt", record("gt", frame=True, object_id=True), 1,
     "gt.jsonl: line 1: bad frame index True"),
    ("object-id-bool", "eval", "gt", record("gt", object_id=True), 1,
     "gt.jsonl: line 1: bad object_id True"),
    ("track-id-bool", "analyze", "tracks", record("tracks", track_id=False), 1,
     "tracks.jsonl: line 1: bad track_id False"),
    # a pose error names its file and line
    ("pose-nan-yaw", "track", "poses", record("poses", yaw=float("nan")), 1,
     "poses_a.jsonl: line 1: non-finite pose"),
    # JSON nested too deep for the decoder is invalid JSON, or a config
    # error (was a RecursionError traceback); the decoder's own text varies
    # between Python versions
    ("detections-nested", "track", "detections", NESTED, 1,
     "detections_a.jsonl: line 1: invalid JSON"),
    ("gt-nested", "eval", "gt", NESTED, 1, "gt.jsonl: line 1: invalid JSON"),
    ("tracks-nested", "analyze", "tracks", NESTED, 1,
     "tracks.jsonl: line 1: invalid JSON"),
    ("poses-nested", "track", "poses", NESTED, 1, "poses_a.jsonl: line 1: invalid JSON"),
    ("config-nested", "track", "config", NESTED, 2, "cannot parse config"),
    ("scenario-nested", "simulate", "scenario", NESTED, 2, "invalid scenario config"),
    # an id names one object or track within a frame
    ("track-id-repeated-eval", "eval", "tracks", record("tracks") * 2, 1,
     "frame 0: track id 1 appears twice"),
    ("track-id-repeated-analyze", "analyze", "tracks", record("tracks") * 2, 1,
     "frame 0: track id 1 appears twice"),
    ("object-id-repeated-eval", "eval", "gt", record("gt") * 2, 1,
     "frame 0: object id 1 appears twice"),
    ("object-id-repeated-analyze", "analyze", "gt", record("gt") * 2, 1,
     "frame 0: object id 1 appears twice"),
    # a score needs ground truth
    ("gt-empty-eval", "eval", "gt", "", 1, "sequence has no ground-truth boxes"),
    ("gt-empty-analyze", "analyze", "gt", "", 1, "sequence has no ground-truth boxes"),
]


def run_malformed(tmp_path, command, kind, content):
    """Run command on valid inputs with the kind input replaced by content;
    return its exit code. The kind poses_b is a second pose file, beside a
    valid poses_a.jsonl."""
    paths = {"detections": tmp_path / "det" / "detections_a.jsonl",
             "poses": tmp_path / "poses" / "poses_a.jsonl",
             "gt": tmp_path / "gt.jsonl", "tracks": tmp_path / "tracks.jsonl",
             "config": tmp_path / "tracker.json",
             "scenario": tmp_path / "scenario.json"}
    if kind == "poses_b":
        paths[kind] = tmp_path / "poses" / "poses_b.jsonl"
    for name, path in paths.items():
        os.makedirs(path.parent, exist_ok=True)
        data = content if name == kind else (record(name) if name in GOOD else "{}")
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    out = str(tmp_path / "out" / "result")
    argv = {"simulate": ["--config", str(paths["scenario"]), "--out", out],
            "track": ["--detections", str(paths["detections"].parent), "--out", out,
                      "--poses", str(paths["poses"].parent),
                      "--config", str(paths["config"])],
            "eval": ["--tracks", str(paths["tracks"]), "--gt", str(paths["gt"]),
                     "--out", out],
            "analyze": ["--tracks", str(paths["tracks"]), "--gt", str(paths["gt"]),
                        "--out", out]}[command]
    return run_cli(command, *argv)


@pytest.mark.parametrize("command, kind, content, code, fragment",
                         [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED])
def test_malformed_input_one_line_error(tmp_path, capsys, command, kind, content,
                                        code, fragment):
    assert run_malformed(tmp_path, command, kind, content) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_no_ground_truth_and_a_repeated_id(tmp_path, capsys, command):
    # both commands match every frame before they refuse an empty ground truth
    (tmp_path / "gt.jsonl").write_text("")
    (tmp_path / "tracks.jsonl").write_text(record("tracks", track_id=7) * 2)
    assert run_cli(command, "--tracks", str(tmp_path / "tracks.jsonl"),
                   "--gt", str(tmp_path / "gt.jsonl"), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: frame 0: track id 7 appears twice\n"


def test_only_exit_code_exceptions():
    # main tells failures apart by these two types (exit 2); every other
    # failure is a ValueError, an OSError or a MemoryError (exit 1)
    found = {obj for name in ("assign", "cli", "core", "geometry", "graphlap", "io",
                              "kalman", "metrics", "sim", "tracker")
             for obj in vars(importlib.import_module(f"coopmot.{name}")).values()
             if isinstance(obj, type) and issubclass(obj, BaseException)
             and obj.__module__.startswith("coopmot")}
    assert found == {coopmot.core.ConfigParse, cli.CannotWrite}


@pytest.mark.parametrize("method", ["baseline", "aos", "tsa"])
def test_huge_finite_boxes_no_warning(tmp_path, capsys, method):
    # finite but huge: the IoU gate squares distances and radii to inf
    det = tmp_path / "det"
    det.mkdir()
    for agent, changes in (("a", {"x": 1e308}),
                           ("b", {"h": 1e308, "w": 1e308, "l": 1e308})):
        (det / f"detections_{agent}.jsonl").write_text("".join(
            record("detections", frame=f, agent=agent, **changes) for f in range(3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("track", "--method", method, "--detections", str(det),
                       "--out", str(tmp_path / "tracks.jsonl"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and err == "error: cost matrix has non-finite entries\n"


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_huge_finite_boxes_eval_one_line(tmp_path, capsys, command):
    # the same rule as for track: scoring boxes whose extents square to inf
    # ends in one line, not a traceback
    huge = {"h": 1e308, "w": 1e308, "l": 1e308}
    gt, tracks = tmp_path / "gt.jsonl", tmp_path / "tracks.jsonl"
    gt.write_text("".join(record("gt", frame=f, **huge) for f in range(3)))
    tracks.write_text("".join(record("tracks", frame=f, **huge) for f in range(3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(command, "--tracks", str(tracks), "--gt", str(gt),
                       "--out", str(tmp_path / "out"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and err == "error: cost matrix has non-finite entries\n"


CAPPED = textwrap.dedent("""
    import resource
    import sys

    resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
    from coopmot import cli
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_out_of_memory_one_line(tmp_path):
    # two boxes a million frames apart, tracked in a process capped at 200 MB
    # of address space: exit 0 if the frames fit, else one line, not a traceback
    det = tmp_path / "det"
    det.mkdir()
    (det / "detections_a.jsonl").write_text(
        record("detections", frame=0) + record("detections", frame=10**6))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED, "track", "--detections", str(det),
         "--out", str(tmp_path / "tracks.jsonl")],
        env={**subprocess_env(), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
    assert proc.stderr == "" or proc.stderr.startswith("error: ")


NO_SCIPY = textwrap.dedent("""
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")
            return None

    sys.meta_path.insert(0, NoScipy())
    from coopmot import cli
    assert "scipy" not in sys.modules
    config, out = sys.argv[1:3]
    assert cli.main(["simulate", "--config", config, "--out", out + "/sim"]) == 0
    assert cli.main(["track", "--method", "tsa", "--detections", out + "/sim",
                     "--out", out + "/tracks.jsonl"]) == 0
    assert cli.main(["analyze", "--tracks", out + "/tracks.jsonl",
                     "--gt", out + "/sim/gt.jsonl", "--out", out + "/motp.csv"]) == 0
    assert "scipy" not in sys.modules
""")


def test_runs_without_scipy(tmp_path, scenario_cfg):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, scenario_cfg, str(tmp_path)],
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "motp.csv").exists()
