"""Optimal one-to-one assignment and IoU-gated association."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import geometry


class NonFiniteCost(ValueError):
    """Cost matrix contains NaN or infinity."""


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


def hungarian_min_cost(cost) -> list:
    """Min-cost one-to-one assignment of a rectangular cost matrix.

    Returns min(n_rows, n_cols) (row, col) pairs sorted by row. Solved by
    scipy's Jonker-Volgenant implementation, which is deterministic for a
    fixed input.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    if cost.size == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise NonFiniteCost("cost matrix has non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def associate(rows, cols, iou_threshold: float) -> AssociationResult:
    """Match two box lists by maximum IoU, gated at iou_threshold.

    Rows and cols may be Detection lists or (N, 7) box arrays, such as the
    track store's states[:, :7]. Hungarian runs on cost = -IoU; matched pairs
    whose IoU falls below the threshold are demoted to unmatched.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} not in (0, 1]")
    iou = geometry.iou_matrix(rows, cols)
    pairs = np.array(hungarian_min_cost(-iou) if iou.size else [], dtype=int).reshape(-1, 2)
    matched_rows, matched_cols = pairs[iou[pairs[:, 0], pairs[:, 1]] >= iou_threshold].T
    free_rows = np.ones(iou.shape[0], dtype=bool)
    free_rows[matched_rows] = False
    free_cols = np.ones(iou.shape[1], dtype=bool)
    free_cols[matched_cols] = False
    return AssociationResult(matched_rows, matched_cols,
                             np.flatnonzero(free_rows), np.flatnonzero(free_cols))
