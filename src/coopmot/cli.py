"""Command-line entry point: simulate -> track -> eval -> analyze.

Exit codes: 0 success, 1 data error, 2 usage or config error or an
output path that cannot be written. The commands raise; ``main`` is the
one error boundary that turns an exception into a one-line
``error: <message>`` and an exit code. A data error (exit 1) is an
OSError or ValueError from reading, tracking or scoring, such as a bad
or nested-too-deep JSON line or a non-finite IoU cost, and so is running
out of memory. The same faults in a tracker or scenario config file are
config errors (exit 2). Every
command writes a run_manifest.json beside its outputs with enough
information to reproduce the run.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, core, geometry, io, metrics, sim, tracker


class CannotWrite(Exception):
    """An output path cannot be written (exit 2)."""


def _write_outputs(args, write, config: dict, inputs: list, outputs: list,
                   seed, started: float) -> None:
    """Make the directory of outputs[0], run write(), then write
    run_manifest.json into that directory. An OSError on the way is a
    CannotWrite naming args.out."""
    out_dir = os.path.dirname(os.path.abspath(outputs[0]))
    try:
        os.makedirs(out_dir, exist_ok=True)
        write()
        manifest = {
            "tool": "coopmot",
            "version": __version__,
            "command": args.command,
            "config": config,
            "seed": seed,
            "inputs": [os.path.abspath(p) for p in inputs],
            "outputs": [os.path.abspath(p) for p in outputs],
            "duration_sec": time.perf_counter() - started,
            "backend": geometry.BACKEND,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        }
        with open(os.path.join(out_dir, "run_manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CannotWrite(f"cannot write {args.out}: {exc}") from exc


def _input_files(directory: str, kind: str) -> list:
    paths = sorted(glob.glob(os.path.join(glob.escape(directory), f"{kind}*.jsonl")))
    if not paths:
        raise OSError(f"no {kind}*.jsonl files in {directory}")
    return paths


def cmd_simulate(args) -> None:
    started = time.perf_counter()
    try:
        cfg = (sim.scenario_from_dict(core.read_config(args.config)) if args.config
               else sim.ScenarioConfig())
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        gt_frames, bundles = sim.generate(cfg)
    except ValueError as exc:
        raise core.ConfigParse(f"invalid scenario config: {exc}") from exc

    gt_path = os.path.join(args.out, "gt.jsonl")
    det_paths = {agent: os.path.join(args.out, f"detections_{agent}.jsonl")
                 for agent in sim.AGENTS}

    def write():
        io.write_gt(gt_path, gt_frames)
        for agent, path in det_paths.items():
            io.write_detections(path, [
                core.FrameBundle(frame=b.frame, detections_by_agent={
                    agent: b.detections_by_agent.get(agent, [])})
                for b in bundles])

    _write_outputs(args, write, cfg.to_dict(),
                   [args.config] if args.config else [],
                   [gt_path, *det_paths.values()], cfg.seed, started)


def cmd_track(args) -> None:
    started = time.perf_counter()
    cfg = core.config_from_dict(core.read_config(args.config) if args.config else {})
    if args.method:
        cfg = replace(cfg, method=args.method)
    det_paths = _input_files(args.detections, "detections")
    bundles = io.merge_detection_files(det_paths)
    pose_paths = _input_files(args.poses, "poses") if args.poses else []
    if pose_paths:
        bundles = io.apply_poses(bundles, io.read_poses(*pose_paths))
    outputs = tracker.run_sequence(bundles, cfg)
    _write_outputs(args, lambda: io.write_tracks(args.out, outputs), cfg.to_dict(),
                   det_paths + pose_paths, [args.out], None, started)


def cmd_eval(args) -> None:
    started = time.perf_counter()
    report = metrics.amota_family(io.read_gt(args.gt), io.read_tracks(args.tracks))

    def write():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")

    _write_outputs(args, write, {}, [args.tracks, args.gt], [args.out], None, started)
    if args.table:
        try:
            print(report.format_table(args.label), flush=True)
        except OSError as exc:
            # point stdout at devnull so that the flush at exit drops the buffered table
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CannotWrite(f"cannot write the table to stdout: {exc}") from exc


def cmd_analyze(args) -> None:
    started = time.perf_counter()
    gt_frames, pred_frames = io.read_gt(args.gt), io.read_tracks(args.tracks)
    tally = metrics.evaluate_sequence(gt_frames, pred_frames)
    metrics.mota_motp(tally.totals)  # refuses a sequence with no ground truth, as eval does

    bins = {}
    for pairs in tally.matches:
        if pairs:
            iou_sum = 0.0  # pair by pair, as _tally adds (sum() compensates from 3.12)
            for _, _, overlap in pairs:
                iou_sum += overlap
            bins.setdefault(len(pairs), []).append(iou_sum / len(pairs))

    def write():
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tp_count", "mean_motp", "frequency"])
            for tp_count in sorted(bins):
                vals = bins[tp_count]
                writer.writerow([tp_count, repr(sum(vals) / len(vals)), len(vals)])

    _write_outputs(args, write, {}, [args.tracks, args.gt], [args.out], None, started)


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
    p.add_argument("--method", choices=[m.value for m in core.Method])
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
    try:
        args.func(args)
    except (core.ConfigParse, CannotWrite) as exc:
        error, code = exc, 2
    except (OSError, ValueError) as exc:
        error, code = exc, 1
    except MemoryError:  # its message is empty
        error, code = f"out of memory in {args.command}", 1
    else:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
