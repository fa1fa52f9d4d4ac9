"""Detection-graph least-squares smoothing of box centroids.

The detections of one frame form a complete graph, Laplacian L = nI - 11^T.
Refined centroids v solve [L; I] v = [L p; a] by least squares: L p keeps
the relative geometry of the raw centroids p, the anchors a add absolute
positions. As L^2 = nL, v = p + (r + n^2 mean(r)) / (n^2 + 1), r = a - p.
One-shot anchors ("aos") cross-swap matched coordinates; two-stage anchors
("tsa") are one vector per agent, anchoring both matched blocks with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assign

SCHEME_AOS = "aos"
SCHEME_TSA = "tsa"


class EmptyGraph(ValueError):
    """Refinement requested with no detections at all."""


@dataclass(frozen=True)
class NodeIndexMap:
    """Row per node into the stacked [agent i; agent j] boxes, in blocks
    matched-i, matched-j, unmatched-i, unmatched-j; node k pairs with node
    num_matched + k."""

    nodes: np.ndarray
    num_matched: int

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_graph(num_i: int, num_j: int, cross_match: assign.AssociationResult) -> NodeIndexMap:
    """Node order for one frame of num_i + num_j stacked boxes from the
    cross-agent association of agent i's rows with agent j's. Raises
    EmptyGraph when both agents have no detections."""
    if num_i == 0 and num_j == 0:
        raise EmptyGraph("no detections from any agent")
    nodes = np.concatenate([cross_match.matched_rows, num_i + cross_match.matched_cols,
                            cross_match.unmatched_rows, num_i + cross_match.unmatched_cols])
    return NodeIndexMap(nodes, cross_match.num_matched)


@dataclass(frozen=True)
class Refined:
    """Smoothed boxes of one frame in node order.

    boxes is (variants, N, 7): one variant for "aos", (ij, ji) for "tsa";
    the centroid columns are solved, the others copied from the detection.
    scores is (N,), the detection scores.
    """

    boxes: np.ndarray
    scores: np.ndarray
    node_map: NodeIndexMap


def refine(boxes, scores, num_i: int, scheme: str, cross_iou_threshold: float,
           cross_match: assign.AssociationResult | None = None) -> Refined:
    """Cross-associate, build the graph and smooth every centroid under one
    anchor variant ("aos") or two ("tsa"). boxes (N, 7) and scores (N,) stack
    agent i's num_i detections over agent j's. Raises EmptyGraph when there
    is nothing to refine."""
    if scheme not in (SCHEME_AOS, SCHEME_TSA):
        raise ValueError(f"unknown refinement scheme {scheme!r}")
    if cross_match is None:
        cross_match = assign.associate(boxes[:num_i], boxes[num_i:], cross_iou_threshold)
    node_map = build_graph(num_i, len(boxes) - num_i, cross_match)
    raw = boxes[node_map.nodes]
    p = raw[:, :3]
    n, m = node_map.size, node_map.num_matched
    # anchors per variant: aos swaps the matched blocks; tsa gives a_ij, a_ji
    a = np.repeat(p[None], 1 if scheme == SCHEME_AOS else 2, axis=0)
    a[0, :m] = p[m:2 * m]
    a[-1, m:2 * m] = p[:m]
    r = a - p
    refined = np.repeat(raw[None], len(a), axis=0)
    refined[..., :3] = p + (r + n * r.sum(axis=1, keepdims=True)) / (n * n + 1)
    return Refined(refined, scores[node_map.nodes], node_map)


def collapse_matched(refined: Refined):
    """Merge each matched pair into one box at its mean refined centroid, the
    other columns and the score from the higher-score member (for
    dedup_matched_pairs). Returns (variants, N - m, 7) boxes, the m merged
    ones first, and their (N - m,) scores."""
    m, boxes, scores = refined.node_map.num_matched, refined.boxes, refined.scores
    first = scores[:m] >= scores[m:2 * m]
    merged = np.where(first[:, None], boxes[:, :m], boxes[:, m:2 * m])
    merged[..., :3] = 0.5 * (boxes[:, :m, :3] + boxes[:, m:2 * m, :3])
    return (np.concatenate([merged, boxes[:, 2 * m:]], axis=1),
            np.concatenate([np.where(first, scores[:m], scores[m:2 * m]), scores[2 * m:]]))
