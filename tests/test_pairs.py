"""studies/pairs.py's statistics and --native wiring, on canned run.py outputs (no
benchmark runs, no compiler)."""

import importlib.util
import json
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "studies", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "track_fps": "higher"}


def canned(units, wall, rss, fps, eval_s, failed=0, problems=()):
    """The standard output of one run.py --trace 0 run."""
    return "\n".join([
        "manifest " + json.dumps({"workload": "directional", "units": units}),
        "info speed 1.0",
        *(f"FAILED {problem}" for problem in problems),
        f"ops attempted=10 failed={failed}",
        f"metric wall_s {wall!r} s",
        f"metric eval_s {eval_s!r} s",
        f"metric track_fps {fps!r} frames/s",
        f"metric peak_rss_mb {rss!r} MB",
        json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed}),
    ]) + "\n"


def test_parse_run():
    run = pairs.parse_run(canned(12, 0.45, 42.9, 880.5, 0.03, failed=1))
    assert run["units"] == 12 and run["failed"] == 1 and run["problems"] == []
    assert run["metrics"] == {"wall_s": 0.45, "eval_s": 0.03, "track_fps": 880.5,
                              "peak_rss_mb": 42.9}
    assert run["units_of"]["track_fps"] == "frames/s"


def test_quartiles_interpolate():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_wins_gain_and_equal_units():
    base_wall = [0.40, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48, 0.49]
    runs = []
    for k, wall in enumerate(base_wall):
        # the change is 0.05 s faster in nine pairs and slower in the last;
        # its fps is tied in every pair; its peak RSS is 0.4 MB lower, and
        # pairs 0-2 ran a different number of units on each side
        change_wall = wall + (0.01 if k == 9 else -0.05)
        runs.append((pairs.parse_run(canned(10, wall, 43.0 + k / 100, 900.0, 0.03)),
                     pairs.parse_run(canned(10 + (k < 3), change_wall, 42.6 + k / 100,
                                            900.0, 0.02))))
    rows = {row[0]: row for row in pairs.summarize(runs, BETTER)}
    assert list(rows) == ["wall_s", "eval_s", "track_fps", "peak_rss_mb"]

    name, unit, used, (q1, median, q3), change, wins, gain = rows["wall_s"]
    assert (unit, used, wins, gain) == ("s", 10, 9, True)
    assert (q1, median, q3) == pairs.quartiles(base_wall)
    assert abs(median - 0.445) < 1e-12 and abs(q3 - q1 - 0.045) < 1e-12
    assert abs(change - 0.395) < 1e-12  # medians differ by 0.05 > IQR 0.045

    assert rows["track_fps"][5:] == (0, False)  # ties count for neither side
    assert rows["eval_s"][5:] == (None, False)  # undeclared: no direction

    _, _, used, (_, median, _), change, wins, gain = rows["peak_rss_mb"]
    assert (used, wins, gain) == (7, 7, False)  # seven pairs claim no gain
    assert abs(median - 43.06) < 1e-12 and abs(change - 42.66) < 1e-12


def test_summarize_no_gain_inside_the_spread():
    # the change wins every pair by 0.01 s, less than the base's IQR
    base_wall = [0.40, 0.42, 0.44, 0.46, 0.48, 0.50, 0.52, 0.54, 0.56, 0.58]
    runs = [(pairs.parse_run(canned(10, w, 43.0, 900.0, 0.03)),
             pairs.parse_run(canned(10, w - 0.01, 43.0, 900.0, 0.03))) for w in base_wall]
    row = next(r for r in pairs.summarize(runs, BETTER) if r[0] == "wall_s")
    assert row[5:] == (10, False)


def test_format_rows_names_unequal_units():
    # one pair: wins are counted, but fewer than ten pairs claim no gain
    runs = [(pairs.parse_run(canned(10, 0.4, 43.0, 900.0, 0.03)),
             pairs.parse_run(canned(11, 0.3, 42.0, 900.0, 0.03)))]
    text = pairs.format_rows(pairs.summarize(runs, BETTER), 1)
    assert "peak_rss_mb" in text and "no pair with equal units" in text
    line = next(li for li in text.splitlines() if li.startswith("wall_s"))
    assert line.split()[-1] == "1/1"


def test_sign_test_p_on_canned_runs():
    # the change's wall_s wins k of ten pairs and loses the rest; its fps
    # is tied in the first pair, which the sign test drops
    def runs(k):
        return [(pairs.parse_run(canned(10, 0.4, 43.0, 900.0, 0.03)),
                 pairs.parse_run(canned(10, 0.3 if j < k else 0.5, 43.0,
                                        900.0 if j == 0 else 901.0, 0.03)))
                for j in range(10)]

    for k, want in ((9, 0.0215), (10, 0.00195), (5, 1.0)):
        ps = pairs.sign_tests(runs(k), BETTER)
        assert float(f"{ps['wall_s']:.3g}") == want, k
        assert ps["track_fps"] == 2 / 2**9  # 9 of 9
        assert "eval_s" not in ps  # undeclared: no direction
    assert pairs.sign_p(9, 1) == pairs.sign_p(1, 9) == 22 / 1024
    assert pairs.sign_p(0, 0) == 1.0

    nine = runs(9)
    text = pairs.format_rows(pairs.summarize(nine, BETTER), 10, pairs.sign_tests(nine, BETTER))
    line = next(li for li in text.splitlines() if li.startswith("wall_s"))
    assert line.split()[-3:] == ["9/10", "p=0.0215", "gain"]


def test_format_line_pins_the_quoted_form():
    # the change is 0.02 s slower in pairs 0-5 and 0.02 s faster in 6-9;
    # pairs 0-2 ran a different number of units on each side
    runs = [(pairs.parse_run(canned(10, 0.40 + k / 100, 43.0 + k / 100, 900.0, 0.03)),
             pairs.parse_run(canned(10 + (k < 3), 0.40 + k / 100 + (0.02 if k < 6 else -0.02),
                                    42.9 + k / 100, 900.0, 0.02)))
            for k in range(10)]
    line = pairs.format_line("directional", pairs.summarize(runs, BETTER), 10,
                             ["setup_s", "wall_s", "peak_rss_mb"])
    assert line == ("directional: wall_s 0.445 [0.4225, 0.4675] → 0.45 (4/10), "
                    "peak_rss_mb 43.06 [43.05, 43.08] → 42.96 (7/7 equal-unit pairs)")

    one = [(pairs.parse_run(canned(10, 0.4, 43.0, 900.0, 0.03)),
            pairs.parse_run(canned(11, 0.3, 42.0, 900.0, 0.03)))]
    line = pairs.format_line("cli", pairs.summarize(one, BETTER), 1, ["wall_s", "peak_rss_mb"])
    assert line == "cli: wall_s 0.4 [0.4, 0.4] → 0.3 (1/1), peak_rss_mb no pair with equal units"


def fake_tree(path, setup_body):
    """A tree whose setup.py runs setup_body after noting its arguments, and
    whose BENCHMARK.json pairs.main reads."""
    path.mkdir()
    (path / "setup.py").write_text("import pathlib, sys\n"
                                   "pathlib.Path('argv.txt').write_text(' '.join(sys.argv[1:]))\n"
                                   + setup_body)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}],
        "per_layer": []}))
    return str(path)


BUILDS = ("import importlib.machinery\n"
          "module = pathlib.Path('src/coopmot/geometry/_native'"
          " + importlib.machinery.EXTENSION_SUFFIXES[0])\n"
          "module.parent.mkdir(parents=True)\n"
          "module.write_text('')\n")


def native_main(tmp_path, monkeypatch, setup_body):
    """pairs.main with --native over two fake trees; (exit code, the trees'
    state at each run)."""
    trees = {side: fake_tree(tmp_path / side, setup_body) for side in ("base", "change")}
    monkeypatch.setattr(pairs, "extract", lambda side, rev: trees[side])
    monkeypatch.setattr(pairs, "PAIRS_DIR", str(tmp_path))
    seen = []

    def run_tree(tree, workload, seconds):
        seen.append(sorted(os.listdir(tree)))
        return pairs.parse_run(canned(10, 0.4, 43.0, 900.0, 0.03))
    monkeypatch.setattr(pairs, "run_tree", run_tree)
    code = pairs.main(["--base", "HEAD", "--pairs", "1", "--workload", "cli", "--native"])
    return code, trees, seen


def test_native_builds_both_trees_before_the_first_run(tmp_path, monkeypatch):
    code, trees, seen = native_main(tmp_path, monkeypatch, BUILDS)
    assert code == 0
    assert seen == [["BENCHMARK.json", "argv.txt", "setup.py", "src"]] * 2
    for tree in trees.values():
        with open(os.path.join(tree, "argv.txt"), encoding="utf-8") as fh:
            assert fh.read() == "build_ext --inplace"


def test_native_build_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    for setup_body, reason in [("print('cc: not found', file=sys.stderr)\nsys.exit(1)\n",
                                "(exit 1): cc: not found"),
                               ("print('building extension failed')\n", "(exit 0): building "
                                "extension failed")]:
        for side in ("base", "change"):
            shutil.rmtree(tmp_path / side, ignore_errors=True)
        code, trees, seen = native_main(tmp_path, monkeypatch, setup_body)
        err = capsys.readouterr().err
        assert (code, seen) == (2, [])
        assert err == f"error: native build failed in {trees['base']} {reason}\n"


def test_failed_lines_kept_and_printed(tmp_path, monkeypatch, capsys):
    # the base's second run holds two FAILED lines; the change fails none
    problems = ["cli: digest 1a2b != 3c4d", "cli: 12 lines but 11 rows read back"]
    outputs = {("base", 1): canned(10, 0.4, 43.0, 900.0, 0.03, failed=3, problems=problems)}
    trees = {side: fake_tree(tmp_path / side, "") for side in ("base", "change")}
    monkeypatch.setattr(pairs, "extract", lambda side, rev: trees[side])
    monkeypatch.setattr(pairs, "PAIRS_DIR", str(tmp_path))
    calls = []

    def run_tree(tree, workload, seconds):
        side = "base" if tree == trees["base"] else "change"
        calls.append(side)
        k = calls.count(side) - 1
        return pairs.parse_run(outputs.get((side, k), canned(10, 0.4, 43.0, 900.0, 0.03)))
    monkeypatch.setattr(pairs, "run_tree", run_tree)
    assert pairs.main(["--base", "HEAD", "--pairs", "2", "--workload", "cli"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("failed operations 3 / 0")
    assert lines[1:3] == [f"base pair 2: FAILED {problem}" for problem in problems]
    assert lines[3].startswith("metric ")
    with open(tmp_path / "runs-cli.json", encoding="utf-8") as fh:
        saved = json.load(fh)
    assert [[run["problems"] for run in pair] for pair in saved] == [[[], []], [problems, []]]
