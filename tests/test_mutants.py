"""studies/mutants.py end to end on a two-function package and its three tests."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE = {
    "src/tiny/__init__.py": """
        def count_down(n):
            while n > 0:
                n -= 1
            return n


        def is_big(x):
            text = str(x)[:40]
            text = text.strip()
            del text
            return x >= 100
        """,
    "tests/test_tiny.py": """
        from tiny import count_down, is_big


        def test_count_down():
            assert count_down(3) == 0


        def test_count_down_twice():
            assert count_down(count_down(2) + 1) == 0


        def test_is_big():
            assert is_big(100) and not is_big(99)
        """,
}


def digests(tree):
    return {os.path.relpath(os.path.join(d, f), tree):
            hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
            for d, _, files in os.walk(tree) for f in files}


def test_kill_matrix_of_a_tiny_package(tmp_path):
    for name, text in TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(textwrap.dedent(text).lstrip())
    out = tmp_path / "studies" / "MUTANTS.json"
    out.parent.mkdir()
    shutil.copy(os.path.join(ROOT, "studies", "mutants.py"), out.parent)
    # a survivor's reason is kept when the matrix is rebuilt
    out.write_text(json.dumps({"mutants": [
        {"module": "tiny/__init__.py", "function": "is_big", "operator": "constant",
         "source": "40", "mutant": "41", "occurrence": 0, "reason": "equivalent: kept"}]}))
    before = digests(tmp_path / "src") | digests(tmp_path / "tests")
    # test_is_big executes 4 of the 7 lines run: the one broad test
    run = subprocess.run([sys.executable, "-c", "import sys, mutants; mutants.PACKAGE = "
                          "'src/tiny'; mutants.BROAD, mutants.SLACK, mutants.GRACE = 0.5, 2, 0.2; "
                          "sys.exit(mutants.main())"], cwd=out.parent,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert digests(tmp_path / "src") | digests(tmp_path / "tests") == before
    assert not os.listdir(tmp_path / "bench_out")  # the copies are gone

    matrix = json.loads(out.read_text())
    assert matrix["tests"] == ["tests/test_tiny.py::test_count_down",
                               "tests/test_tiny.py::test_count_down_twice",
                               "tests/test_tiny.py::test_is_big"]
    assert matrix["broad"] == [2]
    found = {(m["line"], m["source"], m["mutant"]): m for m in matrix["mutants"]}
    assert sorted(found) == [(2, "0", "1"), (2, ">", ">="), (3, "-=", "+="), (3, "1", "0"),
                             (8, "40", "41"), (11, "100", "101"), (11, ">=", ">")]
    killed = found[(2, ">", ">=")]  # by both narrow tests
    assert {k: v for k, v in killed.items() if k != "seconds"} == {
        "module": "tiny/__init__.py", "function": "count_down", "line": 2, "col": 12,
        "operator": "compare", "source": ">", "mutant": ">=", "occurrence": 0, "ran": 2,
        "killed_by": [0, 1], "limits": {}}
    assert killed["seconds"] > 0
    # n += 1 never ends: each count-down test is stopped and counts as a kill
    assert found[(3, "-=", "+=")]["limits"] == {"0": "timeout", "1": "timeout"}
    assert found[(3, "-=", "+=")]["killed_by"] == [0, 1]
    assert found[(11, ">=", ">")]["killed_by"] == [2]  # no narrow test runs it
    assert found[(8, "40", "41")]["killed_by"] == [] and found[(8, "40", "41")]["ran"] == 1
    assert found[(8, "40", "41")]["reason"] == "equivalent: kept"
    assert "6 of 7 mutants killed; 1 survive, 0 without a reason" in run.stdout
