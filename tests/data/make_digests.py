#!/usr/bin/env python3
"""Regenerate digests.json from the scenes and the CLI run in
tests/test_digests.py.

Run from the repository root after an intentional behavior change:
    python3 tests/data/make_digests.py
Review the diff before committing; tests/test_digests.py pins these values.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from test_digests import SCENES, blas_name, cli_files, emitted, summary  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        files = cli_files(out_dir)
    recorded = {"numpy": np.__version__, "blas": blas_name(), "files": files,
                "scenes": {name: summary(emitted(name)) for name in sorted(SCENES)}}
    out_path = os.path.join(os.path.dirname(__file__), "digests.json")
    with open(out_path, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(recorded, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
