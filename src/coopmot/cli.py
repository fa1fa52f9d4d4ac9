"""Command-line entry point: simulate -> track -> eval -> analyze.

Exit codes: 0 success, 1 data error, 2 usage or config error or an
output path that cannot be written. Every command writes a
run_manifest.json beside its outputs with enough information to
reproduce the run.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys
import time

import numpy as np

from . import __version__, core, geometry, io, metrics, sim, tracker


def _manifest(out_dir: str, command: str, config: dict, inputs: list,
              outputs: list, seed, started: float) -> None:
    manifest = {
        "tool": "coopmot",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [os.path.abspath(p) for p in inputs],
        "outputs": [os.path.abspath(p) for p in outputs],
        "duration_sec": time.perf_counter() - started,
        "backend": geometry.BACKEND,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _cannot_write(path, exc) -> int:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            cfg = sim.scenario_from_dict(raw)
        else:
            cfg = sim.ScenarioConfig()
        if args.seed is not None:
            cfg = sim.scenario_from_dict({**cfg.to_dict(), "seed": args.seed})
        gt_frames, bundles = sim.generate(cfg)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: invalid scenario config: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        gt_path = os.path.join(args.out, "gt.jsonl")
        io.write_gt(gt_path, gt_frames)
        outputs = [gt_path]
        for agent in sim.AGENTS:
            agent_bundles = [
                core.FrameBundle(frame=b.frame, detections_by_agent={
                    agent: b.detections_by_agent.get(agent, [])})
                for b in bundles]
            path = os.path.join(args.out, f"detections_{agent}.jsonl")
            io.write_detections(path, agent_bundles)
            outputs.append(path)
        _manifest(args.out, "simulate", cfg.to_dict(),
                  [args.config] if args.config else [], outputs, cfg.seed, started)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return 0


def cmd_track(args) -> int:
    started = time.perf_counter()
    try:
        cfg = core.load_config(args.config) if args.config else core.TrackerConfig()
        if args.method:
            cfg = core.config_from_dict({**cfg.to_dict(), "method": args.method})
    except core.ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    det_paths = sorted(glob.glob(os.path.join(args.detections, "detections*.jsonl")))
    if not det_paths:
        print(f"error: no detections*.jsonl files in {args.detections}",
              file=sys.stderr)
        return 1
    try:
        bundles = io.merge_detection_files(det_paths)
        if args.poses:
            pose_paths = sorted(glob.glob(os.path.join(args.poses, "poses*.jsonl")))
            if not pose_paths:
                print(f"error: no poses*.jsonl files in {args.poses}", file=sys.stderr)
                return 1
            poses = {}
            for p in pose_paths:
                poses.update(io.read_poses(p))
            bundles = io.apply_poses(bundles, poses)
        outputs = tracker.run_sequence(bundles, cfg)
    except (OSError, io.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        io.write_tracks(args.out, outputs)
        _manifest(out_dir, "track", cfg.to_dict(),
                  det_paths + ([args.poses] if args.poses else []),
                  [args.out], None, started)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    try:
        gt_frames, pred_frames = io.read_gt(args.gt), io.read_tracks(args.tracks)
        report = metrics.amota_family(gt_frames, pred_frames)
    except (OSError, io.ParseError, metrics.NoGroundTruth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        if args.table:
            print(report.format_table(args.label))
        _manifest(out_dir, "eval", {}, [args.tracks, args.gt], [args.out],
                  None, started)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return 0


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    try:
        gt_frames, pred_frames = io.read_gt(args.gt), io.read_tracks(args.tracks)
        if sum(len(f) for f in gt_frames) == 0:
            raise metrics.NoGroundTruth("sequence has no ground-truth boxes")
        tally = metrics.evaluate_sequence(gt_frames, pred_frames)
    except (OSError, io.ParseError, metrics.NoGroundTruth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bins = {}
    for counts in tally.per_frame:
        if counts.tp < 1:
            continue
        bins.setdefault(counts.tp, []).append(counts.matched_iou_sum / counts.tp)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tp_count", "mean_motp", "frequency"])
            for tp_count in sorted(bins):
                vals = bins[tp_count]
                writer.writerow([tp_count, repr(sum(vals) / len(vals)), len(vals)])
        _manifest(out_dir, "analyze", {}, [args.tracks, args.gt], [args.out],
                  None, started)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopmot",
        description="Cooperative 3D multi-object tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run a tracking pipeline")
    p.add_argument("--method", choices=["baseline", "aos", "tsa"])
    p.add_argument("--detections", required=True,
                   help="directory with detections*.jsonl files")
    p.add_argument("--out", required=True, help="output tracks.jsonl path")
    p.add_argument("--poses", help="directory with poses*.jsonl files")
    p.add_argument("--config", help="tracker config JSON")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score tracks against ground truth")
    p.add_argument("--tracks", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="output report.json path")
    p.add_argument("--table", action="store_true",
                   help="also print an aligned summary table")
    p.add_argument("--label", default="run", help="row label for the table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="bin per-frame precision by TP count")
    p.add_argument("--tracks", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
