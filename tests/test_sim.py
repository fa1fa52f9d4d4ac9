import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmot import core, sim
from helpers import reference_generate

FIELDS = ("x", "y", "z", "theta", "h", "w", "l", "score")


def hexed(gt_frames, bundles):
    """Every frame, agent, object id and box field, fields as float.hex, in
    emitted order."""
    def box(d):
        return tuple(float(getattr(d, f)).hex() for f in FIELDS)
    return ([[(oid, box(d)) for oid, d in row] for row in gt_frames],
            [(b.frame, [(agent, [box(d) for d in dets])
                        for agent, dets in b.detections_by_agent.items()])
             for b in bundles])


def generated(generate, cfg):
    """hexed(generate(cfg)), or the ValueError message it raised."""
    try:
        return hexed(*generate(cfg))
    except ValueError as exc:
        return str(exc)


# bearings on both sides of [-pi, pi), so sectors wrap and get wrapped
bounds = st.floats(-7.0, 7.0)
sigmas = st.one_of(st.sampled_from([0.0, 0]), st.floats(0.0, 3.0))
dropouts = st.one_of(st.sampled_from([0.0, 1.0, 0, 1]), st.floats(0.0, 1.0))
agent_sectors = st.lists(st.tuples(bounds, bounds), max_size=3)


@st.composite
def scenarios(draw):
    speed_min = draw(st.floats(0.0, 2.0))
    return sim.ScenarioConfig(
        num_objects=draw(st.integers(0, 15)), num_frames=draw(st.integers(1, 30)),
        speed_min=speed_min, speed_max=speed_min + draw(st.floats(0.0, 2.0)),
        world_extent=draw(st.floats(30.0, 300.0)),
        sigma=(draw(sigmas), draw(sigmas)), dropout=(draw(dropouts), draw(dropouts)),
        occlusion_sectors=(tuple(draw(agent_sectors)), tuple(draw(agent_sectors))),
        score_base=draw(st.floats(0.0, 1.0)),
        # 5 clamps many scores at 0 and at 1
        score_jitter=draw(st.one_of(st.floats(0.0, 0.3), st.just(5.0))),
        seed=draw(st.integers(0, 2**32)))


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    @example(sim.ScenarioConfig(num_objects=15, num_frames=30, world_extent=200.0,
                                sigma=(0, 0.5), dropout=(0.0, 1.0),
                                occlusion_sectors=(((3.0, -3.0), (0.5, 1.0)), ((-6.0, 6.5),)),
                                score_base=0.5, score_jitter=5.0, seed=7))
    @example(sim.ScenarioConfig(num_objects=0, num_frames=1))
    def test_bit_identical(self, cfg):
        assert generated(sim.generate, cfg) == generated(reference_generate, cfg)

    def test_clamped_scores_bit_identical(self):
        cfg = sim.ScenarioConfig(num_objects=10, num_frames=20, world_extent=150.0,
                                 score_base=0.5, score_jitter=5.0, seed=3)
        _, bundles = sim.generate(cfg)
        scores = {d.score for b in bundles for dets in b.detections_by_agent.values()
                  for d in dets}
        assert {0.0, 1.0} <= scores
        assert generated(sim.generate, cfg) == generated(reference_generate, cfg)


class TestGenerate:
    def test_noiseless_matches_gt_exactly(self):
        cfg = sim.ScenarioConfig(num_objects=4, num_frames=10, sigma=(0.0, 0.0))
        gt_frames, bundles = sim.generate(cfg)
        for gt_row, bundle in zip(gt_frames, bundles):
            gt_by_pos = {(d.x, d.y, d.z) for _, d in gt_row}
            for dets in bundle.detections_by_agent.values():
                assert len(dets) == len(gt_row)
                for d in dets:
                    assert (d.x, d.y, d.z) in gt_by_pos

    def test_full_dropout_silences_agent(self):
        cfg = sim.ScenarioConfig(num_objects=3, num_frames=5, dropout=(0.0, 1.0))
        _, bundles = sim.generate(cfg)
        for b in bundles:
            assert b.detections_by_agent["agent1"] == []
            assert len(b.detections_by_agent["agent0"]) == 3

    def test_constant_velocity_gt(self):
        cfg = sim.ScenarioConfig(num_objects=3, num_frames=12)
        gt_frames, _ = sim.generate(cfg)
        for oid in range(3):
            xs = np.array([[d.x, d.y, d.z] for row in gt_frames
                           for o, d in row if o == oid])
            second_diff = np.diff(xs, n=2, axis=0)
            assert np.max(np.abs(second_diff)) < 1e-9

    def test_detections_pass_validation(self):
        cfg = sim.ScenarioConfig(num_objects=5, num_frames=5, sigma=(0.5, 0.5))
        _, bundles = sim.generate(cfg)
        for b in bundles:
            for dets in b.detections_by_agent.values():
                for d in dets:  # rebuilt, each checks itself again and keeps every field
                    assert replace(d) == d

    def test_occluded_objects_never_observed(self):
        sector = ((0.0, math.pi),)  # agent0 blind to the upper half plane
        cfg = sim.ScenarioConfig(num_objects=8, num_frames=10, sigma=(0.0, 0.0),
                                 occlusion_sectors=(sector, ()), seed=3)
        gt_frames, bundles = sim.generate(cfg)
        seen_any_upper = False
        for gt_row, b in zip(gt_frames, bundles):
            upper = {(d.x, d.y) for _, d in gt_row if math.atan2(d.y, d.x) >= 0.0}
            for d in b.detections_by_agent["agent0"]:
                assert (d.x, d.y) not in upper
            for d in b.detections_by_agent["agent1"]:
                if (d.x, d.y) in upper:
                    seen_any_upper = True
        assert seen_any_upper  # the other agent still covers that region
        # a sector holds its lower bound and not its upper, also when it wraps past pi
        assert sim._in_sector(0.0, 0.0, 1.0) and not sim._in_sector(1.0, 0.0, 1.0)
        assert sim._in_sector(3.0, 3.0, -3.0) and not sim._in_sector(-3.0, 3.0, -3.0)

    def test_spawn_separation(self):
        cfg = sim.ScenarioConfig(num_objects=6, num_frames=1, world_extent=80.0)
        gt_frames, _ = sim.generate(cfg)
        pts = np.array([[d.x, d.y] for _, d in gt_frames[0]])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.hypot(*(pts[i] - pts[j])) >= sim.MIN_SPAWN_SEPARATION

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig(num_frames=0)
        with pytest.raises(ValueError):
            sim.ScenarioConfig(sigma=(-0.1, 0.2))
        with pytest.raises(ValueError):
            sim.ScenarioConfig(dropout=(0.0, 1.5))
        with pytest.raises(ValueError):
            sim.scenario_from_dict({"bogus_key": 1})

    def test_per_agent_lists_checked(self):
        # built in Python or by replace, a config is checked as a file's values are
        with pytest.raises(ValueError, match="^sigma must be a list$"):
            sim.ScenarioConfig(sigma=0.3)
        with pytest.raises(ValueError, match="^occlusion_sectors must be a list$"):
            sim.ScenarioConfig(occlusion_sectors=((), (0.5,)))
        with pytest.raises(ValueError, match="^dropout must be a list$"):
            replace(sim.ScenarioConfig(), dropout=0.5)
        assert sim.ScenarioConfig(sigma=[0.1, 0.2]).sigma == (0.1, 0.2)

    @pytest.mark.parametrize("raw", [[], "seed", None])
    def test_config_root_must_be_object(self, raw):
        with pytest.raises(core.ConfigParse, match="config root must be a JSON object"):
            sim.scenario_from_dict(raw)


class FixedDraws:
    """An rng whose spawn positions cycle through `spots`; every other uniform
    draw is its lower bound, random() is `u` and normals are 0."""

    def __init__(self, spots, u=0.0):
        self.spots, self.u, self.positions = itertools.cycle(spots), u, 0

    def uniform(self, lo, hi, size=None):
        if size is None:
            return lo
        self.positions += 1
        return np.array(next(self.spots), dtype=float)

    def random(self):
        return self.u

    def normal(self, loc, scale, size):
        return np.zeros(size)


def test_spawn_and_dropout_edges(monkeypatch):
    cfg = sim.ScenarioConfig(num_objects=2, num_frames=1, dropout=(0.5, 0.5))
    # centres exactly MIN_SPAWN_SEPARATION apart are both placed
    spawned = sim._spawn_objects(cfg, FixedDraws([(0, 0), (8, 0)]))
    assert [(x, y) for x, y, *_ in spawned] == [(0.0, 0.0), (8.0, 0.0)]
    rng = FixedDraws([(0, 0)])
    with pytest.raises(ValueError, match="world too small"):
        sim._spawn_objects(cfg, rng)
    assert rng.positions == 10_000  # the last position tried is the 10 000th
    # a uniform draw equal to the dropout rate keeps the detection
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws([(0, 0), (8, 0)], 0.5))
    _, bundles = sim.generate(cfg)
    assert [len(d) for d in bundles[0].detections_by_agent.values()] == [2, 2]


def centroid_errors(gt_frames, bundles, agent):
    """(K, 3) detection-minus-truth centroids of one agent. With no dropout
    and no occlusion, an agent's k-th detection in a frame is object k."""
    return np.array([[d.x - g.x, d.y - g.y, d.z - g.z]
                     for gt_row, b in zip(gt_frames, bundles)
                     for (_, g), d in zip(gt_row, b.detections_by_agent[agent], strict=True)])


def rmse(errors, axis=None):
    return np.sqrt(np.mean(errors ** 2, axis=axis))


class TestNoiseStats:
    def test_zero_noise_zero_rmse(self):
        cfg = sim.ScenarioConfig(num_objects=4, num_frames=5, sigma=(0.0, 0.0))
        gt_frames, bundles = sim.generate(cfg)
        for agent in sim.AGENTS:
            assert rmse(centroid_errors(gt_frames, bundles, agent)) == 0.0

    def test_recovers_sigma_half(self):
        # 10 static objects x 1000 frames = 10k samples per agent
        cfg = sim.ScenarioConfig(num_objects=10, num_frames=1000,
                                 speed_min=0.0, speed_max=0.0,
                                 sigma=(0.5, 0.5), world_extent=200.0, seed=17)
        gt_frames, bundles = sim.generate(cfg)
        for agent in sim.AGENTS:
            errors = centroid_errors(gt_frames, bundles, agent)
            assert len(errors) == 10_000
            assert np.all(np.abs(rmse(errors, axis=0) - 0.5) < 0.05 * 0.5)

    def test_per_agent_rmse_ordering(self):
        cfg = sim.ScenarioConfig(num_objects=6, num_frames=200,
                                 speed_min=0.0, speed_max=0.0,
                                 sigma=(0.2, 0.6), world_extent=150.0, seed=5)
        gt_frames, bundles = sim.generate(cfg)
        assert (rmse(centroid_errors(gt_frames, bundles, "agent0"))
                < rmse(centroid_errors(gt_frames, bundles, "agent1")))
