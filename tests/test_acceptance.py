"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 compares against the golden values frozen in
tests/data/golden_directional.json (regenerate with
`python3 tests/data/make_digests.py` after an intentional behavior change).

Import rule: perfbench/workloads.py imports this module for
directional_scenario and directional_tracker_config, so the benchmark's
process loads it and helpers.py. Neither may import pytest (or conftest.py)
at module level: a test that needs pytest imports it in its body. Their
import chain holds only numpy, coopmot and helpers.py; a reference pipeline
of the tracker (scipy per component) stays out of it.
"""

import json
import math
import os
import time

import numpy as np

from coopmot import assign, cli, geometry, graphlap, kalman, metrics, sim, tracker
from coopmot.core import Method, TrackerConfig
from helpers import (H, VARIANTS, born, brute_min_cost, by_key, iou3d, make_box, mc_iou,
                     node_keys, oracle_centroids, permuted, rand_box7,
                     random_graph_frame, refined_centroids, stacked, track_store,
                     translated, unpermuted)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

CAR = dict(h=1.6, w=1.8, l=4.5)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_laplacian_solver_matches_pinv_oracle(rng):
    """200 random frames, N <= 50, every anchor variant: relative error
    < 1e-8 vs the pseudo-inverse of the explicit stacked [L; I] system. The
    solver's own calls take under 1 s in all; the oracle is not timed."""
    elapsed = 0.0
    worst = 0.0
    for _ in range(200):
        frame = random_graph_frame(rng, n_max=50)
        keys = node_keys(*frame[:2])
        for variant in VARIANTS:
            started = time.perf_counter()
            refined = refined_centroids(*frame, variant)
            elapsed += time.perf_counter() - started
            v = by_key(refined, keys)
            expected = by_key(oracle_centroids(*frame, variant), keys)
            rel = np.linalg.norm(v - expected) / max(np.linalg.norm(expected), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-8
    assert elapsed < 1.0
    _report(1, f"worst rel err {worst:.2e}, solver {elapsed:.2f}s")


def test_c02_closed_form_pair_solves():
    """N=2 matched pair reproduces the derived closed forms to 1e-12."""
    d_i = [make_box(x=0.0, h=2.0, w=2.0, l=2.0)]
    d_j = [make_box(x=1.0, h=2.0, w=2.0, l=2.0)]
    (aos,) = graphlap.refine(*stacked(d_i, d_j), TrackerConfig(method=Method.AOS)).boxes
    assert abs(aos[0, 0] - 0.2) < 1e-12
    assert abs(aos[1, 0] - 0.8) < 1e-12
    g_ij, g_ji = graphlap.refine(*stacked(d_i, d_j), TrackerConfig(method=Method.TSA)).boxes
    assert abs(g_ij[0, 0] - 0.6) < 1e-12
    assert abs(g_ij[1, 0] - 1.4) < 1e-12
    assert abs(g_ji[0, 0] - (-0.4)) < 1e-12
    assert abs(g_ji[1, 0] - 0.4) < 1e-12
    _report(2, "AOS (0.2, 0.8); TSA (0.6, 1.4) / (-0.4, 0.4)")


def test_c03_solver_invariants_fuzzed(rng):
    """Fixed point, translation and permutation equivariance, 1000 each."""
    for _ in range(1000):
        # coincident partners: every anchor equals its node's centroid
        frame = random_graph_frame(rng, n_max=12, coincident=True)
        for variant in VARIANTS:
            v = refined_centroids(*frame, variant)
            for key, d in zip(node_keys(*frame[:2]), frame[0] + frame[1]):
                assert np.max(np.abs(v[key] - [d.x, d.y, d.z])) < 1e-9
    for _ in range(1000):
        dets_i, dets_j, match = random_graph_frame(rng, n_max=12)
        c = rng.uniform(-100, 100, 3)
        for variant in VARIANTS:
            v0 = refined_centroids(dets_i, dets_j, match, variant)
            v1 = refined_centroids(translated(dets_i, c), translated(dets_j, c),
                                   match, variant)
            assert max(np.max(np.abs(v1[k] - (v0[k] + c))) for k in v0) < 1e-9
    for _ in range(1000):
        dets_i, dets_j, match = random_graph_frame(rng, n_max=12)
        perm_i, perm_j = rng.permutation(len(dets_i)), rng.permutation(len(dets_j))
        moved = permuted(dets_i, dets_j, match, perm_i, perm_j)
        for variant in VARIANTS:
            v0 = refined_centroids(dets_i, dets_j, match, variant)
            v1 = unpermuted(refined_centroids(*moved, variant), perm_i, perm_j)
            # 1e-12 at coordinate scale (absolute 1e-12 is finer than float
            # rounding can promise for ~50 m coordinates)
            scale = max(1.0, max(float(np.max(np.abs(v))) for v in v0.values()))
            assert max(np.max(np.abs(v1[k] - v0[k])) for k in v0) < 1e-12 * scale
    _report(3, "3000 fuzzed frames, three anchor variants each")


def test_c04_hungarian_brute_force_optimality(rng):
    """500 random matrices up to 7x7: total cost equals brute-force minimum."""
    for _ in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(-10, 10, size=(n, m))
        pairs = assign.hungarian_min_cost(cost)
        total = sum(cost[r, c] for r, c in pairs)
        best, _ = brute_min_cost(cost)
        assert abs(total - best) < 1e-9
    _report(4, "500 matrices vs permutation minimum")


def test_c05_iou_monte_carlo_oracle(rng):
    """100 random oriented box pairs vs 100k-point membership estimate."""
    worst = 0.0
    for _ in range(100):
        a = rand_box7(rng, center_scale=1.5)
        b = rand_box7(rng, center_scale=1.5)
        err = abs(iou3d(a, b) - mc_iou(a, b, rng, n=100_000))
        worst = max(worst, err)
        assert err < 0.02
    _report(5, f"worst abs err {worst:.4f} (backend: {geometry.BACKEND})")


def test_c06_kalman_checks(rng):
    """Zero innovation, large-R discounting, covariance health, Joseph form."""
    model = kalman.default_model()
    t = born(make_box(x=1.0, y=-2.0, theta=0.4, **CAR), model)
    u = kalman.update(t, [0], [H @ t.states[0]], t.scores, model)
    assert np.allclose(u.states, t.states, atol=1e-12)

    big_r = kalman.KalmanModel(Q=model.Q, R=1e12 * np.eye(7), P0=model.P0)
    t2 = born(make_box(**CAR), big_r)
    z = t2.states[0, :7] + np.array([3.0, -2.0, 1.0, 0.3, 0.2, 0.1, 0.2])
    u2 = kalman.update(t2, [0], [z], t2.scores, big_r)
    assert np.max(np.abs(u2.states - t2.states)) <= 1e-6

    t3 = born(make_box(**CAR), model)
    for _ in range(1000):
        t3 = kalman.predict(t3, model)
        z = t3.states[0, :7] + 0.2 * rng.normal(size=7)
        z[4:] = np.abs(z[4:]) + 0.05
        t3 = kalman.update(t3, [0], [z], t3.scores, model)
        assert np.array_equal(t3.covariances[0], t3.covariances[0].T)
        assert np.all(np.diag(t3.covariances[0]) >= 0)

    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(10, 10))
        cov = a @ a.T + 10 * np.eye(10)
        tr = track_store(rng.normal(size=10), cov)
        z = H @ tr.states[0] + rng.normal(size=7)
        upd = kalman.update(tr, [0], [z], tr.scores, model)
        k = cov @ H.T @ np.linalg.inv(H @ cov @ H.T + model.R)
        ikh = np.eye(10) - k @ H
        joseph = ikh @ cov @ ikh.T + k @ model.R @ k.T
        worst = max(worst, float(np.max(np.abs(upd.covariances[0] - joseph))))
        assert worst < 1e-8
    _report(6, f"1000 cycles healthy; Joseph deviation {worst:.2e}")


def test_c07_matched_pair_noise_reduction(rng):
    """10k matched pairs at sigma=0.5: per-node MSE within 5% of 0.68 s^2."""
    sigma = 0.5
    trials = 10_000
    sq = 0.0
    count = 0
    cfg = TrackerConfig(method=Method.AOS, cross_agent_iou_threshold=0.05)
    for _ in range(trials):
        mu = rng.uniform(-20, 20, 3)
        noisy = mu + sigma * rng.normal(size=(2, 3))
        d_i = make_box(x=noisy[0, 0], y=noisy[0, 1], z=noisy[0, 2],
                       h=6.0, w=8.0, l=8.0)
        d_j = make_box(x=noisy[1, 0], y=noisy[1, 1], z=noisy[1, 2],
                       h=6.0, w=8.0, l=8.0)
        refined = graphlap.refine(*stacked([d_i], [d_j]), cfg)
        assert refined.num_cross == 2
        for bx in refined.boxes[0]:
            err = bx[:3] - mu
            sq += float(err @ err)
            count += 3
    mse = sq / count
    target = 0.68 * sigma ** 2
    assert abs(mse - target) < 0.05 * target
    assert mse < sigma ** 2  # strictly below the raw noise floor
    _report(7, f"refined MSE {mse:.4f} vs 0.68 s^2 = {target:.4f}")


def directional_scenario():
    deg = math.pi / 180
    return sim.ScenarioConfig(
        num_objects=10, num_frames=100,
        speed_min=0.05, speed_max=0.2, world_extent=70.0,
        sigma=(0.4, 0.4), dropout=(0.3, 0.3),
        occlusion_sectors=(((140 * deg, 180 * deg),),
                           ((180 * deg, 220 * deg),)),
        seed=4)


def directional_tracker_config(method):
    return TrackerConfig(method=method, dedup_matched_pairs=True,
                         cross_agent_iou_threshold=0.1,
                         iou_assoc_threshold=0.15)


def test_c08_directional_tracking_claim():
    """TSA >= AOS >= baseline on MOTA and MT; TSA MOTP >= baseline + 2."""
    import pytest
    started = time.time()
    cfg_s = directional_scenario()
    gt_frames, bundles = sim.generate(cfg_s)
    gtf = [[(oid, d) for oid, d in row] for row in gt_frames]
    reports = {}
    for method in (Method.BASELINE, Method.AOS, Method.TSA):
        outs = tracker.run_sequence(bundles, directional_tracker_config(method))
        preds = [list(o.emitted) for o in outs]
        reports[method.value] = metrics.amota_family(gtf, preds)
    elapsed = time.time() - started
    b, a, t = reports["baseline"], reports["aos"], reports["tsa"]

    assert t.mota >= a.mota >= b.mota
    assert t.mt >= a.mt >= b.mt
    assert t.motp >= b.motp + 2.0
    assert elapsed < 1.0  # on either backend

    golden_path = os.path.join(DATA_DIR, "golden_directional.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    for method, rep in reports.items():
        for key in ("amota", "amotp", "samota", "mota", "motp", "mt"):
            assert getattr(rep, key) == pytest.approx(golden[method][key], abs=1e-6), \
                f"{method}.{key} drifted from golden"
    _report(8, f"mota {b.mota:.1f}/{a.mota:.1f}/{t.mota:.1f}, "
               f"mt {b.mt:.0f}/{a.mt:.0f}/{t.mt:.0f}, "
               f"motp gap {t.motp - b.motp:+.2f}, {elapsed:.1f}s")


def test_c09_metrics_oracle_exact():
    """Averaged metrics equal an exhaustive hand sweep on a 10-frame trace."""
    import pytest
    from test_metrics import dropout_sequence, oracle_amota_family
    gt_frames, pred_frames = dropout_sequence()
    report = metrics.amota_family(gt_frames, pred_frames)
    amota, amotp, samota = oracle_amota_family(gt_frames, pred_frames)
    assert report.amota == amota == pytest.approx(56.5)
    assert report.amotp == amotp == pytest.approx(90.0)
    assert report.samota == samota
    _report(9, f"amota {report.amota}, amotp {report.amotp}, "
               f"samota {report.samota:.6f}")


def test_c10_lifecycle_conformance():
    """Confirmation at exactly hits=3; termination at exactly age=2."""
    cfg = TrackerConfig(method=Method.BASELINE, warm_start=False)

    def frame(t, present):
        dets = {"a": [make_box(**CAR)] if present else []}
        from coopmot.core import FrameBundle
        return FrameBundle(frame=t, detections_by_agent=dets)

    # confirmation timing: statuses after each of 4 matched frames
    ts = tracker.new_trackset()
    statuses = []
    for t in range(4):
        ts, _ = tracker.step(ts, frame(t, True), cfg)
        statuses.append(ts.tracks.confirmed.tolist())
    assert statuses[0] == [False]  # tentative
    assert statuses[1] == [False]
    assert statuses[2] == [True]  # confirmed exactly at hits=3
    assert statuses[3] == [True]

    # termination timing: alive after 1 miss, dead after the 2nd
    for misses_before_death in (1, 2):
        ts = tracker.new_trackset()
        t_abs = 0
        for _ in range(3):
            ts, _ = tracker.step(ts, frame(t_abs, True), cfg)
            t_abs += 1
        for _ in range(misses_before_death):
            ts, _ = tracker.step(ts, frame(t_abs, False), cfg)
            t_abs += 1
        assert len(ts.tracks) == (1 if misses_before_death < 2 else 0)

    # a match between misses resets the countdown
    ts = tracker.new_trackset()
    pattern = [True, True, True, False, True, False, True]
    for t, present in enumerate(pattern):
        ts, _ = tracker.step(ts, frame(t, present), cfg)
    assert len(ts.tracks) == 1
    _report(10, "hits=3 confirmation, age=2 termination")


def test_c11_cli_determinism(tmp_path):
    """simulate + track + eval + analyze twice: byte-identical primary outputs."""
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "num_objects": 6, "num_frames": 25, "sigma": [0.3, 0.3],
        "dropout": [0.1, 0.1], "speed_min": 0.05, "speed_max": 0.2,
        "world_extent": 60.0, "seed": 42,
    }))

    def one_run(tag):
        base = tmp_path / tag
        sim_dir = base / "sim"
        assert cli.main(["simulate", "--config", str(scen),
                         "--out", str(sim_dir), "--seed", "42"]) == 0
        tracks = base / "tracks.jsonl"
        assert cli.main(["track", "--method", "tsa", "--detections",
                         str(sim_dir), "--out", str(tracks)]) == 0
        scored = ["--tracks", str(tracks), "--gt", str(sim_dir / "gt.jsonl")]
        assert cli.main(["eval", *scored, "--out", str(base / "report.json")]) == 0
        assert cli.main(["analyze", *scored, "--out", str(base / "motp_vs_tp.csv")]) == 0
        names = ["sim/gt.jsonl", "sim/detections_agent0.jsonl",
                 "sim/detections_agent1.jsonl", "tracks.jsonl", "report.json",
                 "motp_vs_tp.csv"]
        return {n: (base / n).read_bytes() for n in names}

    assert one_run("run1") == one_run("run2")
    _report(11, "byte-identical across two runs")
