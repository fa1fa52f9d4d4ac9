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
    """One-to-one matching between two index sets.

    matched_pairs, unmatched_rows and unmatched_cols partition both index
    sets exactly; no index appears twice.
    """

    matched_pairs: tuple
    unmatched_rows: tuple
    unmatched_cols: tuple

    @property
    def num_matched(self) -> int:
        return len(self.matched_pairs)


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
    pairs = hungarian_min_cost(-iou) if iou.size else []
    matched = [(r, c) for r, c in pairs if iou[r, c] >= iou_threshold]
    matched_rows = {r for r, _ in matched}
    matched_cols = {c for _, c in matched}
    return AssociationResult(
        matched_pairs=tuple(matched),
        unmatched_rows=tuple(r for r in range(len(rows)) if r not in matched_rows),
        unmatched_cols=tuple(c for c in range(len(cols)) if c not in matched_cols),
    )
