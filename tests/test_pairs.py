"""studies/pairs.py's statistics, on canned run.py outputs (no benchmark runs)."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "studies", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "track_fps": "higher"}


def canned(units, wall, rss, fps, eval_s, failed=0):
    """The standard output of one run.py --trace 0 run."""
    return "\n".join([
        "manifest " + json.dumps({"workload": "directional", "units": units}),
        "info speed 1.0",
        f"ops attempted=10 failed={failed}",
        f"metric wall_s {wall!r} s",
        f"metric eval_s {eval_s!r} s",
        f"metric track_fps {fps!r} frames/s",
        f"metric peak_rss_mb {rss!r} MB",
        json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed}),
    ]) + "\n"


def test_parse_run():
    run = pairs.parse_run(canned(12, 0.45, 42.9, 880.5, 0.03, failed=1))
    assert run["units"] == 12 and run["failed"] == 1
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
