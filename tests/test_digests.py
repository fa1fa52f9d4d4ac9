"""Every pinned output held to its record: the emitted rows of the pinned
scenes and the files of the CLI runs to recorded digests, and c08's golden
averaged metrics to the golden file. The files of `simulate` without
--config (default_scene_files) are checked in test_cli.py, by the same rule.

A scene's digest is the first 16 hex characters of the sha256 over
``repr((frame, track_id, box, score))`` of every emitted row, with the box
and score as Python floats, so one changed bit in any output fails the
test. A file's digest is the sha256 of its bytes. Batched LAPACK/BLAS
rounding is host-specific: the digests are compared only where numpy and
its BLAS are the ones that recorded them. Elsewhere the test compares the
row count exactly and the sum of every emitted float (every number of a
file) to 1e-9 relative, and each golden value to 1e-9 relative, and says
so in a warning.

Regenerate tests/data/digests.json and tests/data/golden_directional.json
after an intentional behavior change:
    python3 tests/data/make_digests.py
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings
from functools import partial

import numpy as np
import pytest

from coopmot import cli, core, metrics, sim, tracker
from coopmot.core import Method
from test_acceptance import directional_scenario, directional_tracker_config

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA_DIR, "digests.json")
GOLDEN = os.path.join(DATA_DIR, "golden_directional.json")


def _golden(method, dedup=True):
    return directional_scenario(), dataclasses.replace(
        directional_tracker_config(method), dedup_matched_pairs=dedup)


def _directional(seed):
    return (dataclasses.replace(directional_scenario(), seed=seed),
            directional_tracker_config(Method.TSA))


def _dense(seed):
    return (sim.ScenarioConfig(num_objects=120, num_frames=100, world_extent=200.0,
                               sigma=(0.4, 0.4), dropout=(0.3, 0.3), seed=seed),
            directional_tracker_config(Method.TSA))


def _cli():
    # the scene and tracker of the cli benchmark: `coopmot track --method aos`
    return (sim.scenario_from_dict({"num_objects": 12, "num_frames": 1000,
                                    "world_extent": 80.0, "sigma": [0.4, 0.4],
                                    "dropout": [0.3, 0.3], "seed": 4}),
            core.config_from_dict({"method": "aos"}))


# name -> () -> (scenario config, tracker config)
SCENES = {
    "golden-baseline": partial(_golden, Method.BASELINE),
    "golden-aos": partial(_golden, Method.AOS),
    "golden-tsa": partial(_golden, Method.TSA),
    "golden-aos-nodedup": partial(_golden, Method.AOS, False),
    "golden-tsa-nodedup": partial(_golden, Method.TSA, False),
    # seed 4 is golden-tsa
    **{f"directional-{seed}-tsa": partial(_directional, seed)
       for seed in range(10) if seed != 4},
    "dense-4-tsa": partial(_dense, 4),
    "dense-11-tsa": partial(_dense, 11),
    "dense-12-tsa": partial(_dense, 12),
    "cli-aos": _cli,
}


def blas_name():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def emitted(name):
    """(frame, track_id, box, score) of every row the scene's tracker emits."""
    scenario, config = SCENES[name]()
    outs = tracker.run_sequence(sim.generate(scenario)[1], config)
    return [(o.frame, tid, tuple(map(float, box)), float(score))
            for o in outs for tid, box, score in o.emitted]


def summary(rows):
    """The digest, the row count and the sum of every emitted float."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return {"digest": h.hexdigest()[:16], "rows": len(rows),
            "sum": math.fsum(v for _, _, box, score in rows for v in (*box, score))}


def golden_values():
    """c08's averaged metrics of baseline, aos and tsa on the golden scene,
    by method name."""
    gt_frames, bundles = sim.generate(directional_scenario())
    golden = {}
    for method in (Method.BASELINE, Method.AOS, Method.TSA):
        outs = tracker.run_sequence(bundles, directional_tracker_config(method))
        rep = metrics.amota_family(gt_frames, [list(o.emitted) for o in outs])
        golden[method.value] = {key: getattr(rep, key) for key in
                                ("amota", "amotp", "samota", "mota", "motp", "mt")}
    return golden


def cli_files(out_dir):
    """simulate, track --method tsa with the directional tracker config,
    then eval and analyze, on the golden scene, into out_dir; the summary
    of each output file by name."""
    outputs = ("sim/gt.jsonl", "sim/detections_agent0.jsonl", "sim/detections_agent1.jsonl",
               "tracks.jsonl", "report.json", "motp_vs_tp.csv")
    paths = {name: os.path.join(out_dir, name)
             for name in ("scenario.json", "tracker.json", *outputs)}
    for name, config in (("scenario.json", directional_scenario().to_dict()),
                         ("tracker.json", directional_tracker_config(Method.TSA).to_dict())):
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    sim_dir = os.path.join(out_dir, "sim")
    scored = ["--tracks", paths["tracks.jsonl"], "--gt", os.path.join(sim_dir, "gt.jsonl")]
    for argv in (["simulate", "--config", paths["scenario.json"], "--out", sim_dir],
                 ["track", "--method", "tsa", "--config", paths["tracker.json"],
                  "--detections", sim_dir, "--out", paths["tracks.jsonl"]],
                 ["eval", *scored, "--out", paths["report.json"]],
                 ["analyze", *scored, "--out", paths["motp_vs_tp.csv"]]):
        assert cli.main(argv) == 0
    return {name: file_summary(paths[name]) for name in outputs}


def default_scene_files(out_dir):
    """simulate without --config into out_dir (ScenarioConfig's default
    scene); the summary of each file it writes, by name."""
    assert cli.main(["simulate", "--out", out_dir]) == 0
    return {name: file_summary(os.path.join(out_dir, name))
            for name in ("gt.jsonl", "detections_agent0.jsonl", "detections_agent1.jsonl")}


def numbers(value):
    """Every int and float in a parsed JSON value, depth first."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [v for item in value for v in numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


def file_summary(path):
    """The sha256 of a JSONL, JSON report or CSV file, its row count and
    the sum of its numbers. A report's rows are its operating points; a
    CSV's first row is its header."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    if path.endswith(".json"):
        report = json.loads(data)
        count, values = len(report["operating_points"]), numbers(report)
    else:
        if path.endswith(".jsonl"):
            rows = [numbers(json.loads(line)) for line in lines]
        else:
            rows = [list(map(float, row)) for row in csv.reader(lines[1:])]
        count, values = len(rows), [v for row in rows for v in row]
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": count,
            "sum": math.fsum(values)}


def read_recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def recorded():
    return read_recorded()


def on_recording_host(recorded, compared):
    """Whether numpy and its BLAS are the ones that recorded the digests;
    if not, warns that only `compared` is compared."""
    host = (np.__version__, blas_name())
    if host == (recorded["numpy"], recorded["blas"]):
        return True
    warnings.warn(f"numpy {host[0]} with {host[1]} is not the recording host's "
                  f"numpy {recorded['numpy']} with {recorded['blas']}: compared "
                  f"{compared}")
    return False


def check_recorded(recorded, got, want, digest):
    """got == want on the recording host; elsewhere the row count and the
    sum to 1e-9, with a warning."""
    if on_recording_host(recorded, f"the row count and the float sum to 1e-9, not the {digest}"):
        assert got == want
    else:
        assert got["rows"] == want["rows"]
        assert got["sum"] == pytest.approx(want["sum"], rel=1e-9)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_emitted_rows_match_recorded(recorded, name):
    check_recorded(recorded, summary(emitted(name)), recorded["scenes"][name], "digest")


def test_cli_files_match_recorded(recorded, tmp_path):
    got = cli_files(str(tmp_path))
    assert sorted(got) == sorted(recorded["files"])
    for name, want in recorded["files"].items():
        check_recorded(recorded, got[name], want, "sha256")


def test_golden_file_matches_recorded(recorded):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden_values()
    if on_recording_host(recorded, "each golden value to 1e-9, not exactly"):
        assert got == want
    else:
        assert sorted(got) == sorted(want)
        for method, values in want.items():
            assert got[method] == pytest.approx(values, rel=1e-9)
