#!/usr/bin/env python3
"""Regenerate golden_directional.json from the frozen scenario.

Run from the repository root after an intentional behavior change:
    python3 tests/data/make_golden.py
Review the diff before committing; the acceptance suite pins these values.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_acceptance import directional_scenario, directional_tracker_config  # noqa: E402

from coopmot import metrics, sim, tracker  # noqa: E402
from coopmot.core import Method  # noqa: E402


def main():
    cfg_s = directional_scenario()
    gt_frames, bundles = sim.generate(cfg_s)
    gtf = [[(oid, d) for oid, d in row] for row in gt_frames]
    golden = {}
    for method in (Method.BASELINE, Method.AOS, Method.TSA):
        outs = tracker.run_sequence(bundles, directional_tracker_config(method))
        preds = [list(o.emitted) for o in outs]
        rep = metrics.amota_family(gtf, preds)
        golden[method.value] = {
            "amota": rep.amota, "amotp": rep.amotp, "samota": rep.samota,
            "mota": rep.mota, "motp": rep.motp, "mt": rep.mt,
        }
    out_path = os.path.join(os.path.dirname(__file__), "golden_directional.json")
    with open(out_path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
