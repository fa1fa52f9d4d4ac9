#!/usr/bin/env python3
"""coopmot benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload directional|dense|cli \\
        --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):

* directional - the frozen c08 scenario tracked with baseline, aos and tsa;
  tsa scored with amota_family, the others with evaluate_sequence.
* dense - 120 objects, 100 frames, tsa tracking only.
* cli - ``coopmot simulate``, ``track --method aos`` and ``analyze`` on a
  12-object, 1000-frame scenario, through files.

Load model: one client in a closed loop, one process, no extra threads.
Each frame step starts when the previous one has returned. Units of work
are repeated until ``--seconds`` have passed (at least one unit).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced unit, then one unit with every layer function wrapped, and
reports per-layer metrics plus the tracing overhead (traced minus untraced
``wall_s``). Spans are written to ``bench_out/``.

``setup_s`` (importing coopmot and making the inputs, median of five fresh
interpreters), ``wall_s`` (the timed work of a unit, median over units) and
``track_fps`` (frames over the time spent in run_sequence, or in the track
command on cli) are at reference speed: on shared hardware a core's speed
can swing by 2x within a minute, so timings are rescaled by a fixed speed
kernel timed alongside them (speed.py; set-up by the square root of the
kernel's slowdown, see SETUP_SPEED_EXPONENT). The raw values are printed
beside them as ``setup_raw_s``, ``wall_raw_s`` and ``track_fps_raw``.
Everything else is raw: ``eval_s`` (the amota_family call),
``cli_simulate_s``, ``cli_track_s``, ``cli_analyze_s`` and the per-frame
step latencies ``track_frame_ms_p50``/``_p90``.

Every metric is printed with its unit. The last line of standard output
is the JSON result. The exit code is 1 if any output check failed and 2 if
the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "bench_out")
SETUP_PROBES = 5

# Runs in a fresh interpreter: times importing coopmot plus making the
# workload's inputs, then the speed kernel, and prints both in seconds.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:4]
import coopmot.cli
t_import = time.perf_counter() - t0
import speed, workloads
t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[4]].prepare(int(sys.argv[5]), sys.argv[6] == "1")
print(repr(t_import + time.perf_counter() - t1), repr(speed.kernel_seconds()))
"""
# Set-up time grows with the square root of the kernel's slowdown: over 192
# fresh interpreters on a 2-vCPU shared host, log set-up time against log
# kernel time had slope 0.45-0.51 (r = 0.8). Set-up is part file reading
# and part computation, so rescaling by the full slowdown over-corrects.
SETUP_SPEED_EXPONENT = 0.5


def _load_package():
    """Import coopmot from this checkout's src/, or fail."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), HERE]
    import coopmot
    if os.path.dirname(os.path.dirname(os.path.abspath(coopmot.__file__))) != src:
        raise ImportError(f"coopmot imported from {coopmot.__file__}, not {src}")


def setup_seconds(workload, seed, tiny):
    """Import plus input generation in fresh interpreters: the medians of
    reference-speed and raw seconds."""
    import speed
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *paths, workload, str(seed),
             "1" if tiny else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, kernel = map(float, proc.stdout.split()[-2:])
        raw.append(setup)
        ref.append(setup * (speed.REFERENCE_KERNEL_S / kernel) ** SETUP_SPEED_EXPONENT)
    return statistics.median(ref), statistics.median(raw)


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, elapsed, units):
    import numpy
    import scipy
    from coopmot import geometry
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": geometry.BACKEND, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "run_seconds": args.seconds, "elapsed_s": elapsed,
        "units": units,
    }


def percentile(values, q):
    """Nearest-rank percentile: with 100 samples, p90 has 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(tally, setup):
    """Every end-to-end metric this workload defines, with units. setup_s,
    wall_s and track_fps are at reference speed, everything else raw."""
    out = {"setup_s": (setup[0], "s"), "setup_raw_s": (setup[1], "s")}
    for name, values in tally.samples.items():
        out[name] = (statistics.median(values), "s")
    if tally.track_frames:
        out["track_fps"] = (tally.track_frames / tally.track_ref_s, "frames/s")
        out["track_fps_raw"] = (tally.track_frames / tally.track_raw_s, "frames/s")
    if tally.frame_s:
        ms = [1000.0 * s for s in tally.frame_s]
        out["track_frame_ms_p50"] = (statistics.median(ms), "ms")
        out["track_frame_ms_p90"] = (percentile(ms, 0.9), "ms")
        out["track_frame_samples"] = (len(ms), "count")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    out["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return out


def run_units(wl, inp, tally, seconds, workdir, tracer=None):
    """Repeat timed units until `seconds` pass; verify each with tracing off."""
    started = time.perf_counter()
    units = 0
    while True:
        unit_dir = os.path.join(workdir, f"unit{units}")
        if tracer is not None:
            tracer.install()
        try:
            with tally.speed:
                outs = wl.unit(inp, tally, tracer, unit_dir)
        finally:
            if tracer is not None:
                tracer.restore()
        wl.verify(inp, outs, tally)
        shutil.rmtree(unit_dir, ignore_errors=True)
        units += 1
        if time.perf_counter() - started >= seconds:
            break
    return units


def _warm_up(inp):
    """One tiny pass so lazy imports and first-call costs are not timed."""
    from coopmot import metrics, tracker
    from workloads import METHODS, directional_tracker_config
    bundles = inp if isinstance(inp, list) else inp.bundles
    for method in METHODS:
        outs = tracker.run_sequence(bundles[:2], directional_tracker_config(method))
    gt = getattr(inp, "gt", None)
    if gt is not None:
        metrics.evaluate_sequence(gt[:2], [list(o.emitted) for o in outs])


def benchmark(args, tiny=False):
    """Run one workload; returns (result dict, report lines, exit code)."""
    import speed
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    bench = _benchmark_spec()
    tally = workloads.Tally(speed.Sampler())
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    lines = []
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer:
                inp = wl.prepare(args.seed, tiny)
        else:
            inp = wl.prepare(args.seed, tiny)
        _warm_up(inp)
        if tracer is None:
            setup = setup_seconds(args.workload, args.seed, tiny)
            units = run_units(wl, inp, tally, args.seconds, workdir)
            values = end_to_end(tally, setup)
            declared = bench["end_to_end"]
        else:
            run_units(wl, inp, tally, 0, workdir)
            untraced_wall = tally.samples["wall_s"][-1]
            units = 1 + run_units(wl, inp, tally, 0, workdir, tracer)
            layer = tracing.aggregate(tracer.spans)
            layer["trace.overhead_s"] = tally.samples["wall_s"][-1] - untraced_wall
            units_by_name = dict(tracing.per_layer_names())
            values = {k: (v, units_by_name[k]) for k, v in layer.items()}
            declared = bench["per_layer"]
            leftover = tracing.installed_wrappers()
            if leftover:
                tally.fail(1, f"wrappers left installed: {leftover}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started

    man = manifest(args, elapsed, units)
    lines.append("manifest " + json.dumps(man, sort_keys=True))
    for key, value in sorted(tally.info.items()):
        lines.append(f"info {key} {value}")
    for problem in tally.problems:
        lines.append(f"FAILED {problem}")
    lines.append(f"ops attempted={tally.attempted} failed={tally.failed}")
    for name, (value, unit) in values.items():
        lines.append(f"metric {name} {value!r} {unit}")
    if tracer is not None:
        lines.append("counts " + " ".join(
            f"{k}={values[k][0]}" for k in tracing.EXACT_COUNTS))
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    if not tiny:
        lines += compare_with_baseline(man, values)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"declared metrics not produced: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    if not tiny:
        path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-"
                                     f"trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"manifest": man, "result": result,
                       "all_metrics": {k: {"value": v, "unit": u}
                                       for k, (v, u) in values.items()},
                       "info": tally.info, "problems": tally.problems}, fh, indent=1)
    return result, lines, 0 if result["correct"] else 1


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare_with_baseline(man, values):
    """Lines comparing this run with baseline.json; a backend change is only
    flagged, because pure and native differ by 10-100x."""
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    if base["manifest"]["backend"] != man["backend"]:
        return [f"baseline NOT COMPARED: backend {man['backend']} here, "
                f"{base['manifest']['backend']} in baseline.json"]
    rows = base["workloads"].get(man["workload"], {})
    return [f"baseline {name} median {rows[name]['median']!r} "
            f"ratio {value / rows[name]['median']:.3f}"
            for name, (value, _) in values.items()
            if name in rows and rows[name]["median"]]


def main(argv=None, tiny=False):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["directional", "dense", "cli"])
    parser.add_argument("--seed", type=int, default=4,
                        help="workload seed (4, the default, is the golden one)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time; whole units are repeated")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _load_package()
        result, lines, code = benchmark(args, tiny)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
