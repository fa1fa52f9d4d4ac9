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
                n -= 2
            return n


        def is_big(x):
            text = str(x)[:40]
            text = text.strip()[:50]
            del text
            return x >= 100
        """,
    "tests/test_tiny.py": """
        from tiny import count_down, is_big


        def test_count_down():
            assert count_down(4) == 0


        def test_count_down_twice():
            assert count_down(count_down(3) + 2) == -1


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
    # a survivor's reason is kept when the matrix is rebuilt; a survivor
    # that the old matrix records as killed is a lost kill
    old = {"module": "tiny/__init__.py", "function": "is_big", "operator": "constant"}
    out.write_text(json.dumps({"mutants": [
        {**old, "source": "40", "mutant": "41", "occurrence": 0, "reason": "equivalent: kept"},
        {**old, "source": "50", "mutant": "51", "occurrence": 0, "killed_by": [2]}]}))
    before = digests(tmp_path / "src") | digests(tmp_path / "tests")
    # test_is_big executes 4 of the 7 lines run: the one broad test
    run = subprocess.run([sys.executable, "-c", "import sys, mutants; mutants.PACKAGE = "
                          "'src/tiny'; mutants.BROAD, mutants.SLACK, mutants.GRACE = 0.5, 2, 0.2; "
                          "sys.exit(mutants.main())"], cwd=out.parent,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stdout + run.stderr
    assert digests(tmp_path / "src") | digests(tmp_path / "tests") == before
    assert not os.listdir(tmp_path / "bench_out")  # the copies are gone

    matrix = json.loads(out.read_text())
    assert matrix["tests"] == ["tests/test_tiny.py::test_count_down",
                               "tests/test_tiny.py::test_count_down_twice",
                               "tests/test_tiny.py::test_is_big"]
    assert matrix["broad"] == [2]
    found = {(m["line"], m["source"], m["mutant"]): m for m in matrix["mutants"]}
    assert sorted(found) == [(2, "0", "1"), (2, ">", ">="), (3, "-=", "+="), (3, "2", "3"),
                             (8, "40", "41"), (9, "50", "51"), (11, "100", "101"),
                             (11, ">=", ">")]
    killed = found[(2, ">", ">=")]  # by the first narrow test; both ran
    assert {k: v for k, v in killed.items() if k != "seconds"} == {
        "module": "tiny/__init__.py", "function": "count_down", "line": 2, "col": 12,
        "operator": "compare", "source": ">", "mutant": ">=", "occurrence": 0, "ran": 2,
        "killed_by": [0], "limits": {}}
    assert killed["seconds"] > 0
    assert found[(2, "0", "1")]["killed_by"] == [1] and found[(3, "2", "3")]["killed_by"] == [0]
    # n += 2, the one mutant that never ends: each count-down test is stopped and counts as a kill
    assert found[(3, "-=", "+=")]["limits"] == {"0": "timeout", "1": "timeout"}
    assert found[(3, "-=", "+=")]["killed_by"] == [0, 1]
    assert found[(11, ">=", ">")]["killed_by"] == [2]  # no narrow test runs it
    assert found[(8, "40", "41")]["killed_by"] == [] and found[(8, "40", "41")]["ran"] == 1
    assert found[(8, "40", "41")]["reason"] == "equivalent: kept"
    assert "reason" not in found[(9, "50", "51")]
    assert "6 of 8 mutants killed; 2 survive, 1 without a reason, 1 killed before" in run.stdout
    assert "lost kill tiny/__init__.py:9:25 is_big '50' -> '51'\n" in run.stdout
