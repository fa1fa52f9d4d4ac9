"""Each benchmark workload, run once at its tiny size and checked.

perfbench/run.py times the workloads of perfbench/workloads.py; this runs
each one's prepare, unit and verify once, in-process and untimed, so that a
change to coopmot's API that the benchmark relies on fails the suite.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

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
