"""The benchmark workloads: inputs made from a seed, timed work, output checks.

Each workload has three parts:

* ``prepare(seed, tiny)`` builds the inputs (this is what ``setup_s`` times,
  together with importing coopmot);
* ``unit(inp, tally, tracer, workdir)`` does one unit of timed work through
  coopmot's public API and returns its outputs;
* ``verify(inp, outs, tally)`` checks those outputs, untimed and with tracing
  off, so that the checks' own calls into coopmot are never measured.

An operation is a frame step, an evaluation or a CLI command. It fails if it
raises, exits nonzero or fails its check; ``tally`` counts both. Each timed
segment is measured twice: raw seconds and reference-speed seconds (see
speed.py); ``wall_s`` is the sum of a unit's segments in reference seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from coopmot import cli, core, io, metrics, sim, tracker
from coopmot.core import FrameBundle, Method, wrap_angle
from test_acceptance import directional_scenario, directional_tracker_config

GOLDEN_SEED = 4
GOLDEN_KEYS = ("amota", "amotp", "samota", "mota", "motp", "mt")
METHODS = (Method.BASELINE, Method.AOS, Method.TSA)
# The cli check compares this many leading frames of the tracks file with an
# in-memory run; tracking is causal, so a prefix has an exact reference.
CLI_PREFIX_FRAMES = 100


class Tally:
    """Operation counts, per-unit samples and per-frame latencies of a run."""

    def __init__(self, speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.frame_s = []
        self.track_frames = 0
        self.track_raw_s = 0.0
        self.track_ref_s = 0.0
        self.info = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def add_unit(self, timers):
        """Record a unit's wall time from the timers of its segments."""
        self.add("wall_raw_s", sum(t.raw for t in timers))
        self.add("wall_s", sum(t.ref for t in timers))

    def tracked(self, frames, timer):
        """Record the frames one tracking segment stepped through."""
        self.track_frames += frames
        self.track_raw_s += timer.raw
        self.track_ref_s += timer.ref

    def fail(self, n, problem):
        self.failed += n
        self.problems.append(problem)

    def crashed(self, n, what):
        """An operation raised: count it failed and show the traceback."""
        traceback.print_exc()
        self.fail(n, f"{what} raised")


def _stamped(bundles, lat, speed, tracer, label):
    """Yield frames to run_sequence, timing each step from outside (raw
    seconds, with the speed kernel's own time taken out)."""
    for b in bundles:
        if tracer is not None:
            tracer.op = f"{label}:{b.frame}"
        k0 = speed.kernel_s
        t = perf_counter()
        yield b
        lat.append(perf_counter() - t - (speed.kernel_s - k0))


def _track(tally, bundles, cfg, tracer, label):
    """One timed run_sequence; returns (outputs or None, its Timer)."""
    lat = []
    with tally.speed.timer() as timer:
        try:
            outs = tracker.run_sequence(
                _stamped(bundles, lat, tally.speed, tracer, label), cfg)
        except Exception:
            tally.crashed(len(bundles), f"{label} tracking")
            return None, timer
    tally.frame_s += lat
    tally.tracked(len(bundles), timer)
    return outs, timer


def bad_frames(frames):
    """Indices of frames whose track ids repeat or whose boxes are not finite.

    ``frames`` holds per-frame lists of (track_id, box, score).
    """
    bad = []
    for k, rows in enumerate(frames):
        ids = [r[0] for r in rows]
        finite = all(np.all(np.isfinite(_box7(r[1]))) and math.isfinite(r[2])
                     for r in rows)
        if len(set(ids)) != len(ids) or not finite:
            bad.append(k)
    return bad


def _box7(box):
    return box.box7() if hasattr(box, "box7") else np.asarray(box, dtype=float)


def _check_frames(tally, outs, label):
    bad = bad_frames([o.emitted for o in outs])
    if bad:
        tally.fail(len(bad), f"{label}: {len(bad)} frames with repeated ids "
                             f"or non-finite boxes (first {bad[0]})")


def digest(outs) -> str:
    """sha256 of every emitted row, so runs can be compared by eye."""
    h = hashlib.sha256()
    for o in outs:
        for tid, box, score in o.emitted:
            h.update(repr((o.frame, tid, tuple(map(float, box)),
                           float(score))).encode())
    return h.hexdigest()[:16]


def _pct(tally):
    m, p = metrics.mota_motp(tally.totals)
    mt = metrics.mostly_tracked(tally.frames_present, tally.frames_matched)
    return {"mota": 100.0 * m, "motp": 100.0 * p, "mt": 100.0 * mt}


def _root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------- directional

@dataclass
class DirectionalInputs:
    gt: list
    bundles: list
    golden: dict | None


def _place(d, c, s, phi, dx, dy):
    return replace(d, x=c * d.x - s * d.y + dx, y=s * d.x + c * d.y + dy,
                   theta=wrap_angle(d.theta + phi))


class Directional:
    """The frozen c08 scenario, tracked by all three methods and scored.

    The scene is always the golden one (scenario seed 4); the workload seed
    picks a rigid placement of it in the plane (identity at seed 4). IoU,
    the Kalman filter and the graph solve are invariant under a rigid
    motion, so every seed does the same work up to rounding, while the
    numbers the program sees differ per seed. (Changing the scenario seed
    instead moves one amota_family call between 27 s and 48 s.)
    """

    name = "directional"

    def prepare(self, seed, tiny=False):
        cfg = directional_scenario()
        if tiny:
            cfg = replace(cfg, num_frames=12)
        gt, bundles = sim.generate(cfg)
        golden = None
        if seed == GOLDEN_SEED:
            if not tiny:
                path = os.path.join(_root(), "tests", "data",
                                    "golden_directional.json")
                with open(path, encoding="utf-8") as fh:
                    golden = json.load(fh)
        else:
            rng = np.random.default_rng(seed)
            phi = float(rng.uniform(-math.pi, math.pi))
            dx, dy = (float(v) for v in rng.uniform(-50.0, 50.0, 2))
            c, s = math.cos(phi), math.sin(phi)
            gt = [[(oid, _place(d, c, s, phi, dx, dy)) for oid, d in row]
                  for row in gt]
            bundles = [FrameBundle(frame=b.frame, detections_by_agent={
                agent: [_place(d, c, s, phi, dx, dy) for d in dets]
                for agent, dets in b.detections_by_agent.items()})
                for b in bundles]
        return DirectionalInputs(gt=gt, bundles=bundles, golden=golden)

    def unit(self, inp, tally, tracer, workdir):
        timers, outs = [], {}
        for method in METHODS:
            label = method.value
            tally.attempted += len(inp.bundles) + 1
            frames, timer = _track(tally, inp.bundles,
                                   directional_tracker_config(method), tracer, label)
            timers.append(timer)
            if frames is None:
                tally.fail(1, f"{label}: not evaluated")
                continue
            preds = [list(o.emitted) for o in frames]
            if tracer is not None:
                tracer.op = f"eval:{label}"
            result = None
            with tally.speed.timer() as timer:
                try:
                    if method is Method.TSA:
                        result = metrics.amota_family(inp.gt, preds)
                    else:
                        result = metrics.evaluate_sequence(inp.gt, preds)
                except Exception:
                    tally.crashed(1, f"{label} evaluation")
            timers.append(timer)
            if method is Method.TSA:
                tally.add("eval_s", timer.raw)
            outs[label] = (frames, preds, result)
        tally.add_unit(timers)
        return outs

    def verify(self, inp, outs, tally):
        gt_rows = sum(len(r) for r in inp.gt)
        for label, (frames, preds, result) in outs.items():
            _check_frames(tally, frames, label)
            if result is None:
                continue
            problem = self._check_eval(inp, label, preds, result, gt_rows)
            if problem:
                tally.fail(1, f"{label}: {problem}")
        if "tsa" in outs:
            tally.info["tsa_digest"] = digest(outs["tsa"][0])

    @staticmethod
    def _check_eval(inp, label, preds, result, gt_rows):
        if label == "tsa":
            got = {k: getattr(result, k) for k in GOLDEN_KEYS}
            full = metrics.evaluate_sequence(inp.gt, preds)
            ref = _pct(full)
            if any(got[k] != ref[k] for k in ref):
                return f"amota_family mota/motp/mt {got} != evaluate_sequence {ref}"
        else:
            totals = result.totals
            pred_rows = sum(len(r) for r in preds)
            if (totals.tp + totals.fn != gt_rows or totals.gt_count != gt_rows
                    or totals.tp + totals.fp != pred_rows):
                return "tp/fp/fn do not add up to the row counts"
            got = _pct(result)
        if inp.golden is not None:
            want = inp.golden[label]
            off = {k: got[k] - want[k] for k in got if abs(got[k] - want[k]) > 1e-6}
            if off:
                return f"drifted from golden: {off}"
        return None


# --------------------------------------------------------------------- dense

class Dense:
    """Many detections per frame: tsa tracking only, no metrics, no files."""

    name = "dense"

    def prepare(self, seed, tiny=False):
        cfg = sim.ScenarioConfig(
            num_objects=12 if tiny else 120, num_frames=10 if tiny else 100,
            world_extent=80.0 if tiny else 200.0,
            sigma=(0.4, 0.4), dropout=(0.3, 0.3), seed=seed)
        return sim.generate(cfg)[1]

    def unit(self, bundles, tally, tracer, workdir):
        tally.attempted += len(bundles)
        frames, timer = _track(tally, bundles,
                               directional_tracker_config(Method.TSA), tracer, "tsa")
        tally.add_unit([timer])
        return frames

    def verify(self, bundles, frames, tally):
        if frames is not None:
            _check_frames(tally, frames, "tsa")
            tally.info["digest"] = digest(frames)


# ----------------------------------------------------------------------- cli

@dataclass
class CliInputs:
    scenario: dict
    gt: list
    bundles: list
    prefix: list | None = None


class Cli:
    """simulate -> track --method aos -> analyze through cli.main, on files."""

    name = "cli"
    commands = ("simulate", "track", "analyze")

    def prepare(self, seed, tiny=False):
        scenario = {"num_objects": 4 if tiny else 12,
                    "num_frames": 30 if tiny else 1000,
                    "world_extent": 80.0, "sigma": [0.4, 0.4],
                    "dropout": [0.3, 0.3], "seed": seed}
        gt, bundles = sim.generate(sim.scenario_from_dict(scenario))
        return CliInputs(scenario=scenario, gt=gt, bundles=bundles)

    def unit(self, inp, tally, tracer, workdir):
        os.makedirs(workdir)
        scen = os.path.join(workdir, "scenario.json")
        with open(scen, "w", encoding="utf-8") as fh:
            json.dump(inp.scenario, fh)
        paths = {"dir": workdir, "sim": os.path.join(workdir, "sim"),
                 "tracks": os.path.join(workdir, "tracks.jsonl"),
                 "csv": os.path.join(workdir, "motp_vs_tp.csv")}
        gt = os.path.join(paths["sim"], "gt.jsonl")
        argvs = {
            "simulate": ["simulate", "--config", scen, "--out", paths["sim"],
                         "--seed", str(inp.scenario["seed"])],
            "track": ["track", "--method", "aos", "--detections", paths["sim"],
                      "--out", paths["tracks"]],
            "analyze": ["analyze", "--tracks", paths["tracks"], "--gt", gt,
                        "--out", paths["csv"]],
        }
        codes, timers = {}, []
        for name in self.commands:
            tally.attempted += 1
            if tracer is not None:
                tracer.op = f"cli:{name}"
            with tally.speed.timer() as timer:
                try:
                    codes[name] = cli.main(argvs[name])
                except SystemExit as exc:
                    codes[name] = exc.code
                except Exception:
                    tally.crashed(1, f"cli {name}")
            timers.append(timer)
            tally.add(f"cli_{name}_s", timer.raw)
            if name == "track":
                tally.tracked(len(inp.bundles), timer)
        tally.add_unit(timers)
        return codes, paths

    def verify(self, inp, outs, tally):
        codes, paths = outs
        checks = {"simulate": self._check_simulate, "track": self._check_track,
                  "analyze": self._check_analyze}
        for name, code in codes.items():
            try:
                problem = f"exit code {code}" if code != 0 else checks[name](inp, paths)
            except (OSError, ValueError) as exc:
                problem = f"output unreadable: {exc}"
            if problem:
                tally.fail(1, f"cli {name}: {problem}")

    @staticmethod
    def _check_simulate(inp, paths):
        got = io.read_gt(os.path.join(paths["sim"], "gt.jsonl"))
        want = inp.gt

        def rows(frames):
            return [[(oid, tuple(d.box7())) for oid, d in row] for row in frames]
        if rows(got) != rows(want):
            return "gt.jsonl read back differs from sim.generate"
        return None

    @staticmethod
    def _check_track(inp, paths):
        with open(paths["tracks"], encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        frames = io.read_tracks(paths["tracks"])
        rows = sum(len(f) for f in frames)
        if rows != lines:
            return f"{lines} lines but {rows} rows read back"
        bad = bad_frames(frames)
        if bad:
            return f"{len(bad)} frames with repeated ids or non-finite boxes"
        n = min(CLI_PREFIX_FRAMES, len(inp.bundles))
        if inp.prefix is None:
            cfg = core.config_from_dict({**core.TrackerConfig().to_dict(),
                                         "method": "aos"})
            inp.prefix = tracker.run_sequence(inp.bundles[:n], cfg)
        want = [[(tid, tuple(map(float, box)), float(s)) for tid, box, s in o.emitted]
                for o in inp.prefix]
        got = [[(tid, tuple(d.box7()), s) for tid, d, s in f] for f in frames[:n]]
        got += [[] for _ in range(n - len(got))]
        if got != want:
            return f"first {n} frames differ from an in-memory run_sequence"
        return None

    @staticmethod
    def _check_analyze(inp, paths):
        with open(paths["csv"], encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        if not table or table[0] != ["tp_count", "mean_motp", "frequency"]:
            return "bad CSV header"
        freq = sum(int(r[2]) for r in table[1:])
        if not 0 < freq <= len(inp.gt):
            return f"frequencies sum to {freq} over {len(inp.gt)} frames"
        return None


WORKLOADS = {w.name: w for w in (Directional(), Dense(), Cli())}
