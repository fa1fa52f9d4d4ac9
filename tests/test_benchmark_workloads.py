"""Each benchmark workload, run once at its tiny size and checked.

perfbench/run.py times the workloads of perfbench/workloads.py; this runs
each one's prepare, unit and verify once, in-process and untimed, so that a
change to coopmot's API that the benchmark relies on fails the suite.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_verifies(tmp_path, name):
    # seed 3, not the golden seed 4, so directional places its scene by replace
    wl = workloads.WORKLOADS[name]
    inp = wl.prepare(3, tiny=True)
    tally = workloads.Tally(speed.Sampler())
    with tally.speed:
        outs = wl.unit(inp, tally, None, str(tmp_path / name))
    wl.verify(inp, outs, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems


def test_benchmark_process_loads_no_test_runner():
    # workloads imports test_acceptance and, through it, helpers; the
    # benchmark's peak_rss_mb must not carry pytest, the fixtures or an
    # oracle library
    path = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
    code = (f"import json, sys; sys.path[:0] = {path!r}; import workloads; "
            "print(json.dumps(sorted(set(sys.modules) & {'pytest', '_pytest', "
            "'conftest', 'hypothesis', 'scipy'})))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


def test_selftest_passes():
    # the benchmark's own self-test, run as its docstring says, unedited
    run = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                         capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert run.stdout.splitlines()[-1] == "all passed"
