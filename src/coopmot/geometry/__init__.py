"""Oriented 3D bounding-box overlap.

The IoU kernel has two interchangeable backends: a compiled Cython module
(built by setup.py) and a pure-numpy fallback. The compiled one is chosen
at import when available; set COOPMOT_PURE=1 to force the fallback.
benchmarks/bench_iou.py compares the two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .. import core
from . import _pure

if os.environ.get("COOPMOT_PURE"):
    _kernel = _pure
    BACKEND = "pure"
else:
    try:
        from . import _native as _kernel  # type: ignore[no-redef]
        BACKEND = "native"
    except ImportError:
        _kernel = _pure
        BACKEND = "pure"


def as_box7(obj) -> np.ndarray:
    """Coerce a Detection, TrackState, or array-like to a box 7-vector."""
    if isinstance(obj, core.Detection):
        return obj.box7()
    if isinstance(obj, core.TrackState):
        return obj.box7()
    arr = np.asarray(obj, dtype=float).reshape(-1)
    if arr.shape[0] < 7:
        raise ValueError(f"expected a 7-vector box, got shape {arr.shape}")
    return arr[:7]


def as_box7_array(objs) -> np.ndarray:
    """Stack boxes into an (N, 7) float array (N may be 0).

    A float (N, 7) ndarray is already in that form and is returned as is.
    """
    if isinstance(objs, np.ndarray) and objs.dtype == float and objs.ndim == 2 \
            and objs.shape[1] == 7:
        return objs
    if len(objs) == 0:
        return np.zeros((0, 7), dtype=float)
    return np.stack([as_box7(o) for o in objs])


@dataclass(frozen=True)
class BevPolygon:
    """Convex birds-eye-view quad, counter-clockwise corners (4, 2)."""

    corners: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError(f"BEV polygon needs 4 corners, got {c.shape}")
        if self.signed_area_of(c) <= 0.0:
            raise ValueError("BEV polygon must be counter-clockwise with non-zero area")
        edges = np.roll(c, -1, axis=0) - c
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
            - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("BEV polygon must be convex")
        object.__setattr__(self, "corners", c)

    @staticmethod
    def signed_area_of(corners) -> float:
        x, y = corners[:, 0], corners[:, 1]
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    @property
    def area(self) -> float:
        return self.signed_area_of(self.corners)


def box_to_bev(d) -> BevPolygon:
    """BEV rectangle of a detection: extent l x w at (x, y), rotated by theta."""
    return BevPolygon(_pure.bev_corners(as_box7(d)))


def iou3d(a, b) -> float:
    """3D IoU of two boxes (Detections, TrackStates, or 7-vectors)."""
    return float(_kernel.iou3d_pair(as_box7(a), as_box7(b)))


def iou_matrix(rows, cols) -> np.ndarray:
    """Entry (r, c) is iou3d(rows[r], cols[c]); shape (len(rows), len(cols))."""
    return _kernel.iou3d_matrix(as_box7_array(rows), as_box7_array(cols))
