"""The emitted rows of the pinned scenes, held to recorded digests.

A digest is the first 16 hex characters of the sha256 over
``repr((frame, track_id, box, score))`` of every emitted row, with the box
and score as Python floats, so one changed bit in any output fails the
test. Batched LAPACK/BLAS rounding is host-specific: the digests are
compared only where numpy and its BLAS are the ones that recorded them.
Elsewhere the test compares the row count exactly and the sum of every
emitted float to 1e-9 relative, and says so in a warning.

Regenerate tests/data/digests.json after an intentional behavior change:
    python3 tests/data/make_digests.py
"""

import hashlib
import json
import math
import os
import warnings
from functools import partial

import numpy as np
import pytest

from coopmot import core, sim, tracker
from coopmot.core import Method
from test_acceptance import directional_scenario, directional_tracker_config

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "digests.json")


def _golden(method):
    return directional_scenario(), directional_tracker_config(method)


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


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_emitted_rows_match_recorded(recorded, name):
    got, want = summary(emitted(name)), recorded["scenes"][name]
    host = (np.__version__, blas_name())
    if host == (recorded["numpy"], recorded["blas"]):
        assert got == want
        return
    warnings.warn(f"numpy {host[0]} with {host[1]} is not the recording host's "
                  f"numpy {recorded['numpy']} with {recorded['blas']}: compared "
                  "the row count and the float sum to 1e-9, not the digest")
    assert got["rows"] == want["rows"]
    assert got["sum"] == pytest.approx(want["sum"], rel=1e-9)
