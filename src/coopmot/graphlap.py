"""Detection-graph least-squares smoothing of box centroids.

The detections of one frame form a complete graph, Laplacian L = nI - 11^T.
Refined centroids v solve [L; I] v = [L p; a] by least squares: L p keeps
the relative geometry of the raw centroids p, the anchors a add absolute
positions. As L^2 = nL, v = p + (r + n^2 mean(r)) / (n^2 + 1), r = a - p.
One-shot anchors ("aos") cross-swap matched coordinates; two-stage anchors
("tsa") are one vector per agent, anchoring both matched blocks with it.

tsa treats the first agent as agent i (in the CLI, the first name in sort
order, as io sorts agents). Its anchors do not cancel over a pair, so each
variant is shifted frame-wide by about +-(m/n) mean(p_j - p_i) over the m
matched pairs; reversing the agents flips that shift and can move MOTA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assign
from .core import Method, TrackerConfig


@dataclass(frozen=True)
class Refined:
    """The boxes one frame offers the tracks.

    boxes is (variants, K, 7): one variant for aos, (ij, ji) for tsa; the
    centroid columns are solved, the others copied from the detection.
    scores is (K,). The first num_cross boxes come from cross-matched
    detections. node_map holds each graph node's stacked row, in blocks
    matched-i, matched-j, unmatched-i, unmatched-j; of m matched pairs,
    node k pairs with node m + k.
    """

    boxes: np.ndarray
    scores: np.ndarray
    num_cross: int
    node_map: np.ndarray


def refine(boxes, scores, num_i: int, cfg: TrackerConfig) -> Refined:
    """Cross-associate agent i's num_i rows of boxes (N, 7) and scores (N,)
    with agent j's rest, smooth every centroid under the anchors of
    cfg.method and, with cfg.dedup_matched_pairs, merge each matched pair
    into one box at its mean centroid, the other columns and the score from
    the higher-score member."""
    match = assign.associate(boxes[:num_i], boxes[num_i:], cfg.cross_agent_iou_threshold)
    nodes = np.concatenate([match.matched_rows, num_i + match.matched_cols,
                            match.unmatched_rows, num_i + match.unmatched_cols])
    raw, scores = boxes[nodes], scores[nodes]
    p = raw[:, :3]
    n, m = len(nodes), match.num_matched
    # anchors per variant: aos swaps the matched blocks; tsa gives a_ij, a_ji
    a = np.repeat(p[None], 1 if cfg.method is Method.AOS else 2, axis=0)
    a[0, :m] = p[m:2 * m]
    a[-1, m:2 * m] = p[:m]
    r = a - p
    refined = np.repeat(raw[None], len(a), axis=0)
    refined[..., :3] = p + (r + n * r.sum(axis=1, keepdims=True)) / (n * n + 1)
    if not cfg.dedup_matched_pairs:
        return Refined(refined, scores, 2 * m, nodes)
    first = scores[:m] >= scores[m:2 * m]
    merged = np.where(first[:, None], refined[:, :m], refined[:, m:2 * m])
    merged[..., :3] = 0.5 * (refined[:, :m, :3] + refined[:, m:2 * m, :3])
    return Refined(np.concatenate([merged, refined[:, 2 * m:]], axis=1),
                   np.concatenate([np.where(first, scores[:m], scores[m:2 * m]),
                                   scores[2 * m:]]), m, nodes)
