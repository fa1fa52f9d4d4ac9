"""Optimal one-to-one assignment and IoU-gated association.

The assignment is exact and written in numpy and Python: the shortest
augmenting path method of Crouse, "On implementing 2D rectangular
assignment algorithms" (IEEE TAES 2016). Association costs are -IoU, whose
nonzero entries fall into small connected components (a few boxes that
overlap one another), so each component is solved on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass(frozen=True)
class AssociationResult:
    """One-to-one matching between two index sets, as int index arrays.

    Row matched_rows[k] pairs with column matched_cols[k], in ascending
    row order. The matched and unmatched rows (and columns) partition each
    index set exactly; unmatched indices are ascending.
    """

    matched_rows: np.ndarray
    matched_cols: np.ndarray
    unmatched_rows: np.ndarray
    unmatched_cols: np.ndarray

    @property
    def num_matched(self) -> int:
        return len(self.matched_rows)


def _shortest_path_lsap(cost: list) -> list:
    """col4row of a min-cost assignment of a list-of-rows cost matrix with
    no more rows than columns; every row is assigned.

    Rows are added in order, each by one shortest augmenting path search.
    Tie rule: a search scans the remaining columns from the last one down,
    keeps the first column of the lowest reduced cost, and moves to a
    later column of equal reduced cost only when that column is free.
    tests/test_assign.py holds the pairs, ties included, to a reference
    implementation of the same method.
    """
    nr, nc = len(cost), len(cost[0])
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        spc = [math.inf] * nc  # shortest path cost to each column
        remaining = list(range(nc - 1, -1, -1))
        visited, tree = [], []
        i, min_val = cur, 0.0
        while True:
            visited.append(i)
            ci, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                if r < lowest or (r == lowest and row4col[j] < 0):
                    lowest, index = r, it
            min_val = lowest
            j = remaining[index]
            tree.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in visited:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for t in tree:
            v[t] -= min_val - spc[t]
        while True:  # augment along the path back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _dense_pairs(cost: list) -> list:
    """(row, col) pairs of a min-cost assignment of a list-of-rows matrix,
    min(n_rows, n_cols) of them sorted by row. A tall matrix is solved
    transposed. A 2 x 2 matrix takes the branch that the solver's two
    searches would take, decided by the same sums."""
    if len(cost) == len(cost[0]) == 2:
        (a, b), (c, d) = cost
        if a <= b:
            straight = not (c < d and c + b - a < d)
        else:
            straight = c > d and d + a - b < c
        return [(0, 0), (1, 1)] if straight else [(0, 1), (1, 0)]
    if len(cost) <= len(cost[0]):
        return list(enumerate(_shortest_path_lsap(cost)))
    col4row = _shortest_path_lsap([list(col) for col in zip(*cost)])
    return sorted((r, c) for c, r in enumerate(col4row))


def _component_pairs(rows: list, cols: list, vals: list) -> list:
    """Min-cost pairs of a matrix whose only nonzero entries are the
    negative vals[e] at (rows[e], cols[e]), given in row-major order. Each
    connected component of those entries is solved on its own, and
    zero-cost pairs are omitted."""
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
        return list(zip(rows, cols))  # every component is one entry
    by_row, by_col = {}, {}
    for i, j, x in zip(rows, cols, vals):
        by_row.setdefault(i, {})[j] = x
        by_col.setdefault(j, []).append(i)
    pairs = []
    seen_rows, seen_cols = set(), set()
    for i0, line in by_row.items():
        if i0 in seen_rows:
            continue
        if len(line) == 1:
            (j,) = line
            if len(by_col[j]) == 1:  # a component of one entry
                pairs.append((i0, j))
                continue
        comp_rows, comp_cols = [i0], []
        seen_rows.add(i0)
        for i in comp_rows:  # grows while it is walked: breadth-first
            for j in by_row[i]:
                if j not in seen_cols:
                    seen_cols.add(j)
                    comp_cols.append(j)
                    for r in by_col[j]:
                        if r not in seen_rows:
                            seen_rows.add(r)
                            comp_rows.append(r)
        # one row or one column: its first cheapest entry
        if len(comp_rows) == 1:
            pairs.append((i0, min(line, key=line.__getitem__)))
        elif len(comp_cols) == 1:
            j = comp_cols[0]
            pairs.append((min(by_col[j], key=lambda r: by_row[r][j]), j))
        else:
            comp_rows.sort()
            comp_cols.sort()
            sub = [[by_row[i].get(j, 0.0) for j in comp_cols] for i in comp_rows]
            pairs += [(comp_rows[a], comp_cols[b]) for a, b in _dense_pairs(sub)
                      if sub[a][b] != 0.0]
    pairs.sort()
    return pairs


def hungarian_min_cost(cost) -> list:
    """Min-cost one-to-one assignment of a rectangular cost matrix.

    Returns (row, col) pairs sorted by row. The solver is exact and
    deterministic; see _shortest_path_lsap for its tie rule.

    When no entry is positive, as for the -IoU costs of association, a zero
    entry cannot lower the total. The matrix then splits into the connected
    components of its nonzero entries, and each is solved on its own: a
    component of one row or one column takes its first cheapest entry (the
    lowest index), a larger one goes to the solver with its rows and
    columns in ascending order. Zero-cost filler pairs are omitted, so
    fewer than min(n_rows, n_cols) pairs may come back. When an entry is
    positive the whole matrix is one problem, and all min(n_rows, n_cols)
    pairs are returned.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    rows, cols = cost.nonzero()  # in row-major order
    vals = cost[rows, cols].tolist()
    if all(-math.inf < x < 0.0 for x in vals):
        return _component_pairs(rows.tolist(), cols.tolist(), vals)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has non-finite entries")
    return _dense_pairs(cost.tolist())


def gated_pairs(iou, iou_threshold: float) -> list:
    """(row, col) pairs, by row, of the Hungarian matching on -IoU whose IoU
    reaches iou_threshold: the one gate of tracking and of scoring."""
    return [(r, c) for r, c in hungarian_min_cost(-iou) if iou.item(r, c) >= iou_threshold]


def associate(rows, cols, iou_threshold: float) -> AssociationResult:
    """Match two box lists by maximum IoU, gated at iou_threshold.

    Rows and cols may be Detection lists or (N, 7) box arrays, such as the
    track store's states[:, :7]. The matched pairs are those of gated_pairs.
    """
    iou = geometry.iou_matrix(rows, cols)
    pairs = gated_pairs(iou, iou_threshold) if iou.size else []
    matched_rows = np.array([r for r, _ in pairs], dtype=int)
    matched_cols = np.array([c for _, c in pairs], dtype=int)
    n_rows, n_cols = iou.shape
    free_rows, free_cols = np.ones(n_rows, dtype=bool), np.ones(n_cols, dtype=bool)
    free_rows[matched_rows] = False
    free_cols[matched_cols] = False
    return AssociationResult(matched_rows, matched_cols, free_rows.nonzero()[0],
                             free_cols.nonzero()[0])
