"""Oriented 3D bounding-box overlap.

The IoU kernel has two interchangeable backends: a compiled C module
(_native.c, built by setup.py when a C compiler is available) and a
pure-Python fallback. The compiled one is used whenever it imports;
BACKEND names the one in use.
"""

from __future__ import annotations

import numpy as np

from .. import core
from . import _pure

try:
    from . import _native as _kernel
    BACKEND = "native"
except ImportError:
    _kernel = _pure
    BACKEND = "pure"


def as_box7_array(objs) -> np.ndarray:
    """Stack boxes into an (N, 7) float array (N may be 0).

    Each box is a Detection or an array-like of exactly seven entries
    (x, y, z, theta, h, w, l). A float (N, 7) ndarray is already in that
    form and is returned as is. Raises ValueError when a box does not have
    seven entries or a box value is not finite by core's rule.
    """
    if not (isinstance(objs, np.ndarray) and objs.dtype == float and objs.ndim == 2
            and objs.shape[1] == 7):
        try:
            rows = [core.box_values(o) if isinstance(o, core.Detection)
                    else np.asarray(o, dtype=float).reshape(-1) for o in objs]
        except OverflowError:  # an int beyond the float range
            raise ValueError("box has a non-finite value") from None
        for row in rows:
            if len(row) != 7:
                raise ValueError(f"expected a 7-vector box, got shape {row.shape}")
        objs = np.array(rows, dtype=float).reshape(-1, 7)
    if not np.isfinite(objs).all():
        raise ValueError("box has a non-finite value")
    return objs


def iou_matrix(rows, cols) -> np.ndarray:
    """Entry (r, c) is the 3D IoU of boxes rows[r] and cols[c] (see
    as_box7_array for the accepted forms); shape (len(rows), len(cols))."""
    return _kernel.iou3d_matrix(as_box7_array(rows), as_box7_array(cols))
