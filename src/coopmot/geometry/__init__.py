"""Oriented 3D bounding-box overlap.

The IoU kernel has two interchangeable backends: a compiled Cython module
(built by setup.py) and a pure-numpy fallback. The compiled one is chosen
at import when available; set COOPMOT_PURE=1 to force the fallback.
"""

from __future__ import annotations

import os

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


def _box7(obj) -> np.ndarray:
    if isinstance(obj, core.Detection):
        return obj.box7()
    arr = np.asarray(obj, dtype=float).reshape(-1)
    if arr.shape[0] < 7:
        raise ValueError(f"expected a 7-vector box, got shape {arr.shape}")
    return arr[:7]


def _finite(boxes: np.ndarray) -> np.ndarray:
    if not np.isfinite(boxes).all():
        raise ValueError("box has a non-finite value")
    return boxes


def as_box7(obj) -> np.ndarray:
    """Coerce a Detection or array-like to a box 7-vector (the first seven
    entries, so a 10-entry track state gives its box).

    Raises ValueError when a box value is NaN or infinite.
    """
    return _finite(_box7(obj))


def as_box7_array(objs) -> np.ndarray:
    """Stack boxes into an (N, 7) float array (N may be 0).

    A float (N, 7) ndarray is already in that form and is returned as is.
    Raises ValueError when a box value is NaN or infinite.
    """
    if isinstance(objs, np.ndarray) and objs.dtype == float and objs.ndim == 2 \
            and objs.shape[1] == 7:
        return _finite(objs)
    if len(objs) == 0:
        return np.zeros((0, 7), dtype=float)
    return _finite(np.stack([_box7(o) for o in objs]))


def iou3d(a, b) -> float:
    """3D IoU of two boxes (Detections or 7-vectors)."""
    return float(_kernel.iou3d_pair(as_box7(a), as_box7(b)))


def iou_matrix(rows, cols) -> np.ndarray:
    """Entry (r, c) is iou3d(rows[r], cols[c]); shape (len(rows), len(cols))."""
    return _kernel.iou3d_matrix(as_box7_array(rows), as_box7_array(cols))
