#!/usr/bin/env python3
"""Regenerate digests.json and golden_directional.json from the scenes,
the CLI runs and the golden values in tests/test_digests.py.

Run from the repository root after an intentional behavior change:
    python3 tests/data/make_digests.py
Review the diff before committing; tests/test_digests.py pins both files,
tests/test_cli.py reads the default scene's digests, and the acceptance
suite's c08 reads the golden file.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from test_digests import (DIGESTS, GOLDEN, SCENES, blas_name, cli_files,  # noqa: E402
                          default_scene_files, emitted, golden_values, summary)


def write(path, value):
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        files = cli_files(out_dir)
        default_scene = default_scene_files(os.path.join(out_dir, "default"))
    write(DIGESTS, {"numpy": np.__version__, "blas": blas_name(), "files": files,
                    "default_scene": default_scene,
                    "scenes": {name: summary(emitted(name)) for name in sorted(SCENES)}})
    write(GOLDEN, golden_values())


if __name__ == "__main__":
    main()
