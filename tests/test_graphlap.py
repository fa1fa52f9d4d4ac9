from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopmot import assign, graphlap
from coopmot.core import Method, TrackerConfig
from helpers import (VARIANTS, by_key, differential_coords, graph_frame,
                     laplacian_complete, make_box, matching, oracle_centroids,
                     oracle_system, permuted, random_graph_frame, refined_centroids,
                     stacked, translated, unpermuted)


AOS, TSA = TrackerConfig(method=Method.AOS), TrackerConfig(method=Method.TSA)


def cross_matched_pair(x_i=0.0, x_j=1.0):
    a = make_box(x=x_i, h=2.0, w=2.0, l=2.0)
    b = make_box(x=x_j, h=2.0, w=2.0, l=2.0)
    return [a], [b]


def centroids(refined, variant=0):
    """Refined centroids (N, 3) of one anchor variant, in node order."""
    return refined.boxes[variant, :, :3]


def node_positions(refined, dets_i, dets_j):
    """Raw centroids (N, 3) of the refined nodes, in node order."""
    return stacked(dets_i, dets_j)[0][refined.node_map, :3]


def implied_anchors(positions, refined):
    """The anchors a for which the refined centroids solve the stacked
    system: its normal equations (L^2 + I) v = L^2 p + a, solved for a."""
    lap2 = laplacian_complete(len(positions)) @ laplacian_complete(len(positions))
    return (lap2 + np.eye(len(positions))) @ refined - lap2 @ positions


def anchors_of(refined, variant, dets_i, dets_j):
    return implied_anchors(node_positions(refined, dets_i, dets_j),
                           centroids(refined, variant))


class TestNodeLayout:
    """The node layout refine reports in node_map and num_cross."""

    def test_two_node_matched(self):
        dets_i, dets_j = cross_matched_pair()
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        node_map = refined.node_map
        assert node_map.size == 2
        assert refined.num_cross == 2
        assert node_map.tolist() == [0, 1]
        assert np.array_equal(laplacian_complete(node_map.size), [[1.0, -1.0], [-1.0, 1.0]])

    def test_three_nodes_no_matches(self):
        dets_i = [make_box(x=0.0), make_box(x=50.0)]
        dets_j = [make_box(x=100.0)]
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        node_map = refined.node_map
        assert refined.num_cross == 0
        assert node_map.tolist() == [0, 1, 2]
        lap = laplacian_complete(node_map.size)
        assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        off = lap[~np.eye(3, dtype=bool)]
        assert np.all(off == -1.0)

    def test_row_sums_zero(self, rng):
        for n in (1, 2, 5, 17, 40):
            lap = laplacian_complete(n)
            assert np.allclose(lap.sum(axis=1), 0.0)
            assert np.array_equal(lap, lap.T)

    def test_block_ordering(self):
        # two matched pairs plus one unmatched on each side
        dets_i = [make_box(x=0.0), make_box(x=50.0), make_box(x=200.0)]
        dets_j = [make_box(x=50.2), make_box(x=0.1), make_box(x=300.0)]
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        node_map = refined.node_map
        assert refined.num_cross == 4
        m = refined.num_cross // 2
        # pair alignment: node k and node m+k are partners, pairs by row
        # stacked rows: agent i's 0-2, then agent j's 3-5
        assert node_map[:2 * m].tolist() == [0, 1, 4, 3]
        assert node_map[2 * m:].tolist() == [2, 5]
        dets = dets_i + dets_j
        for k in range(m):
            r, c = node_map[k], node_map[m + k]
            assert r < 3 <= c
            assert abs(dets[r].x - dets[c].x) < 0.5

    def test_empty_frame_gives_empty_layout(self):
        """A frame without detections raises nothing: its graph has no
        nodes and no cross-matched boxes, under every method and dedup."""
        for method in (Method.AOS, Method.TSA):
            for dedup in (False, True):
                cfg = TrackerConfig(method=method, dedup_matched_pairs=dedup)
                refined = graphlap.refine(*stacked([], []), cfg)
                assert refined.node_map.size == 0
                assert refined.num_cross == 0

    def test_spectrum_of_complete_graph(self):
        for n in (2, 3, 7, 25):
            eig = np.linalg.eigvalsh(laplacian_complete(n))
            assert abs(eig[0]) < 1e-8
            assert np.max(np.abs(eig[1:] - n)) < 1e-8


class TestDifferentialCoords:
    """The oracle's right-hand side L p, by direct summation."""

    def test_constant_vector_in_kernel(self):
        assert np.allclose(differential_coords(np.full(5, 3.7)), 0.0)

    def test_two_node_example(self):
        delta = differential_coords([0.0, 1.0])
        assert np.array_equal(delta, [-1.0, 1.0])
        assert np.array_equal(delta, laplacian_complete(2) @ [0.0, 1.0])

    def test_translation_invariance(self, rng):
        v = rng.normal(size=(7, 3))
        d0 = differential_coords(v)
        d1 = differential_coords(v + 123.456)
        assert np.allclose(d0, d1, atol=1e-9)

    def test_equals_laplacian_product(self, rng):
        for n in (1, 3, 9):
            v = rng.normal(size=(n, 3))
            assert np.allclose(differential_coords(v), laplacian_complete(n) @ v,
                               rtol=0.0, atol=1e-12)


class TestAnchors:
    """Anchors recovered from refine's output through the normal equations."""

    def test_aos_matched_pair_swaps(self):
        dets_i, dets_j = cross_matched_pair(0.0, 1.0)
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        assert np.allclose(anchors_of(refined, 0, dets_i, dets_j)[:, 0], [1.0, 0.0],
                           rtol=0.0, atol=1e-12)

    def test_aos_all_unmatched_self_anchors(self):
        dets_i = [make_box(x=0.0), make_box(x=50.0)]
        dets_j = [make_box(x=100.0)]
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        assert np.allclose(anchors_of(refined, 0, dets_i, dets_j)[:, 0],
                           [0.0, 50.0, 100.0], rtol=0.0, atol=1e-12)
        # with every node self-anchored the output is the input, exactly
        assert np.array_equal(centroids(refined), node_positions(refined, dets_i, dets_j))

    def test_aos_coincident_pair(self):
        dets_i, dets_j = cross_matched_pair(4.2, 4.2)
        refined = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        assert refined.num_cross == 2
        assert np.array_equal(centroids(refined)[:, 0], [4.2, 4.2])

    def test_tsa_matched_pair(self):
        dets_i, dets_j = cross_matched_pair(0.0, 1.0)
        refined = graphlap.refine(*stacked(dets_i, dets_j), TSA)
        assert np.allclose(anchors_of(refined, 0, dets_i, dets_j)[:, 0], [1.0, 1.0],
                           rtol=0.0, atol=1e-12)
        assert np.allclose(anchors_of(refined, 1, dets_i, dets_j)[:, 0], [0.0, 0.0],
                           rtol=0.0, atol=1e-12)

    def test_tsa_no_matches_degenerates(self):
        dets_i = [make_box(x=0.0)]
        dets_j = [make_box(x=100.0)]
        tsa = graphlap.refine(*stacked(dets_i, dets_j), TSA)
        aos = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        assert np.array_equal(centroids(tsa, 0)[:, 0], [0.0, 100.0])
        assert np.array_equal(centroids(tsa, 0), centroids(tsa, 1))
        assert np.array_equal(centroids(tsa, 0), centroids(aos))

    def test_tsa_coincident_pair_equal(self):
        dets_i, dets_j = cross_matched_pair(-3.0, -3.0)
        refined = graphlap.refine(*stacked(dets_i, dets_j), TSA)
        assert np.array_equal(centroids(refined, 0)[:, 1], centroids(refined, 1)[:, 1])


class TestSolve:
    """The closed form against the explicit stacked system."""

    def test_single_node_returns_anchor(self):
        d = make_box(x=7.5, y=-1.25, z=0.5)
        for variant in VARIANTS:
            out = refined_centroids([], [d], matching(0, 1, []), variant)
            assert np.array_equal(out[(1, 0)], [7.5, -1.25, 0.5])

    def test_fixed_point(self, rng):
        # coincident partners anchor every node at its own centroid
        for _ in range(50):
            dets_i, dets_j, match = random_graph_frame(rng, 24, coincident=True)
            keys, p, _ = oracle_system(dets_i, dets_j, match, "aos")
            for variant in VARIANTS:
                v = by_key(refined_centroids(dets_i, dets_j, match, variant), keys)
                assert np.max(np.abs(v - p)) < 1e-9

    def test_two_node_closed_form(self):
        d_i = make_box(x=0.0, y=0.0, z=0.0)
        d_j = make_box(x=1.0, y=2.0, z=-0.5)
        out = refined_centroids([d_i], [d_j], matching(1, 1, [(0, 0)]), "aos")
        gap = np.array([1.0, 2.0, -0.5])
        assert np.max(np.abs(out[(0, 0)] - 0.2 * gap)) < 1e-12
        assert np.max(np.abs(out[(1, 0)] - 0.8 * gap)) < 1e-12

    def test_normal_equation_residual(self, rng):
        for _ in range(100):
            dets_i, dets_j, match = random_graph_frame(rng, 50)
            for variant in VARIANTS:
                keys, p, a = oracle_system(dets_i, dets_j, match, variant)
                v = by_key(refined_centroids(dets_i, dets_j, match, variant), keys)
                lap2 = laplacian_complete(len(p)) @ laplacian_complete(len(p))
                rhs = lap2 @ p + a
                resid = np.linalg.norm((lap2 + np.eye(len(p))) @ v - rhs)
                assert resid / max(np.linalg.norm(rhs), 1e-30) < 1e-9

    def test_shape_validation(self, rng):
        # one refined box per detection, each detection exactly once
        for _ in range(20):
            dets_i, dets_j, match = random_graph_frame(rng, 20)
            n = len(dets_i) + len(dets_j)
            for cfg, variants in ((AOS, 1), (TSA, 2)):
                with mock.patch.object(assign, "associate", return_value=match):
                    refined = graphlap.refine(*stacked(dets_i, dets_j), cfg)
                assert refined.node_map.size == n
                assert refined.num_cross == 2 * match.num_matched
                assert refined.boxes.shape == (variants, n, 7)
                assert refined.scores.shape == (n,)
                assert sorted(refined.node_map.tolist()) == list(range(n))


def max_gap(a, b, shift=0.0):
    return max(float(np.max(np.abs(a[k] - (b[k] + shift)))) for k in a)


@st.composite
def frames(draw):
    """A frame of 1 <= N <= 60 detections over two agents with 0 <= m
    cross-agent pairs, at coordinate scales from a millimetre to 10 km."""
    n = draw(st.integers(1, 60))
    n_i = draw(st.integers(0, n))
    m = draw(st.integers(0, min(n_i, n - n_i)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return graph_frame(rng, n_i, n - n_i, m, scale=scale, spread=0.05 * scale)


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestRefineProperties:
    @PROPERTY
    @given(frames(), st.sampled_from(VARIANTS))
    def test_matches_pinv_of_stacked_system(self, frame, variant):
        keys = oracle_system(*frame, variant)[0]
        v = by_key(refined_centroids(*frame, variant), keys)
        expected = by_key(oracle_centroids(*frame, variant), keys)
        assert np.linalg.norm(v - expected) <= 1e-9 * np.linalg.norm(expected)

    @PROPERTY
    @given(frames(), st.sampled_from(VARIANTS),
           st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_translation_equivariance(self, frame, variant, shift):
        dets_i, dets_j, match = frame
        c = np.array(shift)
        v0 = refined_centroids(dets_i, dets_j, match, variant)
        v1 = refined_centroids(translated(dets_i, c), translated(dets_j, c), match, variant)
        scale = max(1.0, float(np.max(np.abs(c))),
                    max(float(np.max(np.abs(v))) for v in v0.values()))
        assert max_gap(v1, v0, c) <= 1e-12 * scale

    @PROPERTY
    @given(frames(), st.sampled_from(VARIANTS), st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, frame, variant, seed):
        dets_i, dets_j, match = frame
        rng = np.random.default_rng(seed)
        perm_i, perm_j = rng.permutation(len(dets_i)), rng.permutation(len(dets_j))
        moved = permuted(dets_i, dets_j, match, perm_i, perm_j)
        v0 = refined_centroids(dets_i, dets_j, match, variant)
        v1 = unpermuted(refined_centroids(*moved, variant), perm_i, perm_j)
        scale = max(1.0, max(float(np.max(np.abs(v))) for v in v0.values()))
        assert max_gap(v1, v0) <= 1e-12 * scale


class TestRefine:
    def test_single_detection_identity(self):
        d = make_box(x=3.0, y=-2.0, z=1.0, theta=0.4, score=0.9)
        refined = graphlap.refine(*stacked([d], []), AOS)
        assert refined.boxes.shape == (1, 1, 7)
        out = refined.boxes[0, 0]
        assert tuple(out[:3]) == (3.0, -2.0, 1.0)
        assert out[3] == d.theta and refined.scores[0] == d.score

    def test_non_centroid_attributes_copied(self, rng):
        dets_i = [make_box(x=0.0, theta=0.3, h=1.5, w=1.7, l=4.1, score=0.65)]
        dets_j = [make_box(x=0.5, theta=-0.2, h=1.4, w=1.9, l=4.3, score=0.75)]
        for cfg in (AOS, TSA):
            refined = graphlap.refine(*stacked(dets_i, dets_j), cfg)
            src = [(dets_i + dets_j)[k] for k in refined.node_map]
            assert refined.scores.tolist() == [d.score for d in src]
            for boxes in refined.boxes:
                assert boxes[:, 3:].tolist() == [[d.theta, d.h, d.w, d.l] for d in src]

    def test_collapse_matched_merges_pairs(self):
        # one pair (the j member scores higher) plus one unmatched box per agent
        dets_i = [make_box(x=0.0, theta=0.1, l=4.0, score=0.5),
                  make_box(x=60.0, score=0.3)]
        dets_j = [make_box(x=0.4, theta=0.2, l=4.2, score=0.8),
                  make_box(x=-60.0, score=0.4)]
        for method in (Method.AOS, Method.TSA):
            refined = graphlap.refine(*stacked(dets_i, dets_j), TrackerConfig(method=method))
            dedup = graphlap.refine(*stacked(dets_i, dets_j),
                                    TrackerConfig(method=method, dedup_matched_pairs=True))
            assert refined.num_cross == 2 and dedup.num_cross == 1
            assert np.array_equal(dedup.node_map, refined.node_map)
            assert dedup.boxes.shape == (len(refined.boxes), 3, 7)
            assert dedup.scores.tolist() == [0.8, 0.3, 0.4]
            for merged, full in zip(dedup.boxes, refined.boxes):
                assert np.array_equal(merged[0, :3], 0.5 * (full[0, :3] + full[1, :3]))
                assert np.array_equal(merged[0, 3:], full[1, 3:])  # higher score: j
                assert np.array_equal(merged[1:], full[2:])
        # on equal scores agent i's member keeps its columns
        tied = graphlap.refine(*stacked(dets_i, [replace(dets_j[0], score=0.5), dets_j[1]]),
                               TrackerConfig(method=Method.TSA, dedup_matched_pairs=True))
        assert tied.boxes[0, 0, 3] == refined.boxes[0, 0, 3] and tied.scores[0] == 0.5

    def test_zero_boxes_give_empty_arrays(self):
        refined = graphlap.refine(*stacked([], []), AOS)
        assert refined.boxes.shape == (1, 0, 7)
        assert refined.scores.shape == (0,)
        assert refined.num_cross == 0 and refined.node_map.size == 0

    def test_empty_frame_gives_empty_variants(self):
        """refine on an empty frame raises nothing and gives one empty box
        array per anchor variant, with or without merging pairs."""
        for dedup in (False, True):
            cfg = TrackerConfig(method=Method.TSA, dedup_matched_pairs=dedup)
            refined = graphlap.refine(*stacked([], []), cfg)
            assert refined.boxes.shape == (2, 0, 7)
            assert refined.scores.shape == (0,)

    def test_permutation_of_inputs_permutes_outputs(self, rng):
        dets_i = [make_box(x=float(x), y=float(y))
                  for k, (x, y) in enumerate(rng.uniform(-40, 40, (5, 2)))]
        dets_j = [make_box(x=d.x + rng.uniform(-0.3, 0.3), y=d.y) for d in dets_i[:3]]
        base = graphlap.refine(*stacked(dets_i, dets_j), AOS)
        perm = rng.permutation(len(dets_i))
        shuffled = [dets_i[p] for p in perm]
        other = graphlap.refine(*stacked(shuffled, dets_j), AOS)

        def keys(refined):
            # rounded centroid and agent slot of every refined box
            return sorted((round(box[0], 8), round(box[1], 8), round(box[2], 8),
                           node >= len(dets_i))
                          for node, box in zip(refined.node_map.tolist(),
                                               refined.boxes[0].tolist()))

        assert keys(base) == keys(other)
