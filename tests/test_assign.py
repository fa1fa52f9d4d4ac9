import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from coopmot import assign, geometry
from helpers import (brute_max_gated_matching, brute_min_cost, make_box, matched_pairs,
                     rand_box7)


class TestHungarian:
    def test_two_by_two(self):
        pairs = assign.hungarian_min_cost([[1.0, 2.0], [2.0, 4.0]])
        assert pairs == [(0, 1), (1, 0)]  # brute force: 5 vs 4

    def test_dominant_diagonal(self):
        assert assign.hungarian_min_cost([[0.0, 9.0], [9.0, 0.0]]) == [(0, 0), (1, 1)]
        # an entry in (0, 1) is positive: the whole matrix is one problem
        assert assign.hungarian_min_cost([[0.5, 0.0], [0.0, 0.5]]) == [(0, 1), (1, 0)]

    def test_rectangular(self):
        pairs = assign.hungarian_min_cost([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0]])
        assert pairs == [(0, 0), (1, 1)]

    def test_empty(self):
        assert assign.hungarian_min_cost(np.zeros((0, 3))) == []
        assert assign.hungarian_min_cost(np.zeros((3, 0))) == []

    def test_cost_must_be_two_dimensional(self):
        for cost in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="cost must be a 2-D matrix"):
                assign.hungarian_min_cost(cost)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="cost matrix has non-finite entries"):
            assign.hungarian_min_cost([[np.nan, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="cost matrix has non-finite entries"):
            assign.hungarian_min_cost([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="cost matrix has non-finite entries"):
            assign.hungarian_min_cost([[-np.inf, -1.0]])  # no positive entry

    def test_optimal_on_random_matrices(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(-5, 5, size=(n, m))
            pairs = assign.hungarian_min_cost(cost)
            assert len(pairs) == min(n, m)
            total = sum(cost[r, c] for r, c in pairs)
            best, _ = brute_min_cost(cost)
            assert abs(total - best) < 1e-9

    def test_deterministic(self, rng):
        cost = rng.uniform(0, 1, size=(5, 6))
        assert assign.hungarian_min_cost(cost) == assign.hungarian_min_cost(cost)


def scipy_pairs(cost):
    """scipy's (row, col) pairs of cost, sorted by row."""
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def nonzero(cost, pairs):
    return [(r, c) for r, c in pairs if cost[r, c] != 0.0]


def per_component_scipy_pairs(cost):
    """scipy run on each connected component of the nonzero entries alone
    (rows and columns in ascending order), zero-cost pairs dropped."""
    n, m = cost.shape
    ii, jj = np.nonzero(cost)
    graph = coo_matrix((np.ones(len(ii)), (ii, n + jj)), shape=(n + m, n + m))
    labels = connected_components(graph, directed=False)[1]
    pairs = []
    for label in np.unique(labels[ii]):
        rows = np.flatnonzero(labels[:n] == label)
        cols = np.flatnonzero(labels[n:] == label)
        sub = cost[np.ix_(rows, cols)]
        pairs += [(int(rows[a]), int(cols[b])) for a, b in nonzero(sub, scipy_pairs(sub))]
    return sorted(pairs)


@st.composite
def sparse_costs(draw, continuous):
    """A -IoU-like matrix: a random pattern of negative entries in each of
    a few diagonal blocks (empty, 1 x k, k x 1 and blocks with no nonzero
    entry included), then rows and columns shuffled so the blocks
    interleave. Continuous values have no ties; integer values force them."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4))
    n, m = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    cost = np.zeros((n, m))
    r0 = c0 = 0
    for r, c in shapes:
        mask = draw(arrays(bool, (r, c)))
        if continuous:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            values = rng.uniform(0.01, 1.0, (r, c))
        else:
            values = draw(arrays(float, (r, c), elements=st.integers(1, 3).map(float)))
        cost[r0:r0 + r, c0:c0 + c] = np.where(mask, -values, 0.0)
        r0, c0 = r0 + r, c0 + c
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(m)))
    return cost[np.ix_(rows, cols)]


def integer_grids(lo, hi):
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(float, shape, elements=st.integers(lo, hi).map(float)))


ORACLE = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


class TestHungarianAgainstScipy:
    @ORACLE
    @given(sparse_costs(continuous=True))
    def test_continuous_nonzero_pairs_equal_scipy(self, cost):
        pairs = assign.hungarian_min_cost(cost)
        assert pairs == nonzero(cost, pairs)  # no zero-cost filler pairs
        assert pairs == nonzero(cost, scipy_pairs(cost))

    @ORACLE
    @given(sparse_costs(continuous=False))
    def test_integer_ties_broken_as_scipy_per_component(self, cost):
        assert assign.hungarian_min_cost(cost) == per_component_scipy_pairs(cost)

    @ORACLE
    @given(integer_grids(-2, 2))
    def test_positive_entry_ties_broken_as_scipy(self, cost):
        # with a positive entry the whole matrix is one problem
        assume((cost > 0).any())
        assert assign.hungarian_min_cost(cost) == scipy_pairs(cost)

    @ORACLE
    @given(integer_grids(-3, -1))
    def test_all_negative_ties_broken_as_scipy(self, cost):
        # every entry nonzero: one component, solved as scipy solves it
        assert assign.hungarian_min_cost(cost) == scipy_pairs(cost)


class TestAssociate:
    def test_identical_singletons_match(self):
        res = assign.associate([make_box()], [make_box()], 0.25)
        assert matched_pairs(res) == [(0, 0)]
        assert res.unmatched_rows.tolist() == []
        assert res.unmatched_cols.tolist() == []

    def test_disjoint_singletons_unmatched(self):
        res = assign.associate([make_box()], [make_box(x=10.0)], 0.25)
        assert matched_pairs(res) == []
        assert res.unmatched_rows.tolist() == [0]
        assert res.unmatched_cols.tolist() == [0]

    def test_gate_keeps_an_iou_equal_to_the_threshold(self):
        assert assign.gated_pairs(np.array([[0.25, 0.0]]), 0.25) == [(0, 0)]

    def test_three_by_three_two_gated_pairs(self):
        rows = [make_box(x=0.0), make_box(x=50.0), make_box(x=100.0)]
        cols = [make_box(x=0.2), make_box(x=50.3), make_box(x=200.0)]
        iou = geometry.iou_matrix(rows, cols)
        assert np.count_nonzero(iou >= 0.25) == 2
        res = assign.associate(rows, cols, 0.25)
        assert set(matched_pairs(res)) == {(0, 0), (1, 1)}
        assert res.unmatched_rows.tolist() == [2]
        assert res.unmatched_cols.tolist() == [2]

    def test_matched_pairs_all_gated(self, rng):
        for _ in range(50):
            rows = [rand_box7(rng, center_scale=3) for _ in range(int(rng.integers(0, 6)))]
            cols = [rand_box7(rng, center_scale=3) for _ in range(int(rng.integers(0, 6)))]
            res = assign.associate(rows, cols, 0.25)
            iou = geometry.iou_matrix(rows, cols)
            for r, c in matched_pairs(res):
                assert iou[r, c] >= 0.25

    def test_partition_invariant(self, rng):
        for _ in range(100):
            rows = [rand_box7(rng, center_scale=3) for _ in range(int(rng.integers(0, 7)))]
            cols = [rand_box7(rng, center_scale=3) for _ in range(int(rng.integers(0, 7)))]
            res = assign.associate(rows, cols, 0.25)
            used_r = res.matched_rows.tolist()
            used_c = res.matched_cols.tolist()
            assert len(set(used_r)) == len(used_r)
            assert len(set(used_c)) == len(used_c)
            assert sorted(used_r + res.unmatched_rows.tolist()) == list(range(len(rows)))
            assert sorted(used_c + res.unmatched_cols.tolist()) == list(range(len(cols)))

    def test_global_optimum_dominates_gated_matchings(self, rng):
        # The ungated assignment maximizes total IoU over every matching,
        # so its total is at least that of the best threshold-respecting one.
        # (Post-assignment gating can drop below it; see the 2x2 example.)
        for _ in range(30):
            rows = [rand_box7(rng, center_scale=2) for _ in range(int(rng.integers(1, 6)))]
            cols = [rand_box7(rng, center_scale=2) for _ in range(int(rng.integers(1, 6)))]
            iou = geometry.iou_matrix(rows, cols)
            pairs = assign.hungarian_min_cost(-iou)
            ungated_total = sum(iou[r, c] for r, c in pairs)
            assert ungated_total >= brute_max_gated_matching(iou, 0.25) - 1e-9

    def test_post_gating_can_lose_total_iou(self):
        # Documents why the dominance above is asserted pre-gating: the
        # global optimum may spend a row on a sub-threshold pair.
        iou = np.array([[0.24, 0.26], [0.26, 0.30]])
        pairs = assign.hungarian_min_cost(-iou)
        assert pairs == [(0, 0), (1, 1)]
        gated = [(r, c) for r, c in pairs if iou[r, c] >= 0.25]
        assert sum(iou[r, c] for r, c in gated) < brute_max_gated_matching(iou, 0.25)
