"""Pure-python/numpy oriented-box IoU kernel.

Reference implementation of the hot geometry kernel; the C module
coopmot.geometry._native (_native.c) mirrors these formulas operation for
operation so both backends agree to floating-point noise. It has only
iou3d_matrix; iou3d_pair here is the tests' per-pair oracle.

Boxes are 7-vectors [x y z theta h w l]: centroid, yaw about z, extents.
Overlap is BEV convex-polygon clipping (Sutherland-Hodgman) times the
z-interval overlap.

A pair is zero without clipping when its z-intervals do not overlap
(dz <= 0) or its circumscribed BEV circles are apart (dx^2 + dy^2 >
(ra + rb)^2). iou3d_matrix evaluates the circle rejection for the whole
N x M block with numpy, using the operations of iou3d_pair in the same
order (radii from math.hypot), so each entry is the float iou3d_pair would
compute; it is written as a negation so that a NaN comparison keeps a pair
exactly as the scalar code does. The z rejection then runs, with Python's
min/max as in iou3d_pair, only on the pairs the circle test keeps, and
only the pairs that pass both reach the clip. A box's corners and area
are computed from Python floats, once, when a kept pair first needs them;
the clip and volume arithmetic is one helper shared with iou3d_pair. The
matrix is therefore equal, entry for entry, to calling iou3d_pair on every
pair.
"""

import math

import numpy as np

# BEV intersection areas below this are treated as zero (clipping noise).
AREA_EPS = 1e-12


def _clip_polygon(subject, clip):
    """Clip a convex CCW polygon by a convex CCW polygon.

    Both are lists of (x, y). Returns the (possibly empty) intersection
    polygon. Points on a clip edge count as inside, so clipping a polygon
    by itself returns it unchanged.
    """
    output = list(subject)
    cx1, cy1 = clip[-1]
    for cx2, cy2 in clip:
        if not output:
            return output
        ex, ey = cx2 - cx1, cy2 - cy1
        inp = output
        output = []
        sx, sy = inp[-1]
        s_in = ex * (sy - cy1) - ey * (sx - cx1) >= 0.0  # left of edge
        for px, py in inp:
            p_in = ex * (py - cy1) - ey * (px - cx1) >= 0.0
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                # denom == 0 means the segment runs along the edge line and
                # only rounding split the endpoint sides; nothing to insert
                if denom != 0.0:
                    t = (ey * (sx - cx1) - ex * (sy - cy1)) / denom
                    output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
        cx1, cy1 = cx2, cy2
    return output


def _polygon_area(poly):
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    x1, y1 = poly[-1]
    for x2, y2 in poly:
        acc += x1 * y2 - x2 * y1
        x1, y1 = x2, y2
    return 0.5 * abs(acc)


def _bev(x, y, theta, w, l):
    """Counter-clockwise BEV corners of a box as (x, y) tuples, and their
    shoelace area, from the box's centre, yaw and extents as floats."""
    c, s = math.cos(theta), math.sin(theta)
    hl, hw = 0.5 * l, 0.5 * w
    # local corners (+hl,+hw), (-hl,+hw), (-hl,-hw), (+hl,-hw)
    poly = [(c * lx - s * ly + x, s * lx + c * ly + y)
            for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
    return poly, _polygon_area(poly)


def _clipped_iou(pa, area_a, ha, pb, area_b, hb, dz):
    """IoU of two boxes that passed both rejections.

    pa/pb are BEV corner lists, area_a/area_b their shoelace areas, ha/hb
    the box heights as z-interval widths and dz the z-overlap. Box volumes
    come from the same shoelace formula as the intersection polygon so
    that the self-overlap case is exactly 1.
    """
    area = _polygon_area(_clip_polygon(pa, pb))
    if area < AREA_EPS:
        return 0.0
    inter_vol = area * dz
    vol_a = area_a * ha
    vol_b = area_b * hb
    denom = vol_a + vol_b - inter_vol
    if denom <= 0.0:
        return 1.0
    iou = inter_vol / denom
    return min(max(iou, 0.0), 1.0)


def iou3d_pair(a7, b7):
    """3D IoU of two box 7-vectors; 0.0 when disjoint."""
    za0, za1 = a7[2] - 0.5 * a7[4], a7[2] + 0.5 * a7[4]
    zb0, zb1 = b7[2] - 0.5 * b7[4], b7[2] + 0.5 * b7[4]
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0.0:
        return 0.0
    # circumscribed-circle rejection: cheap and exact for the zero case
    ra = 0.5 * math.hypot(a7[5], a7[6])
    rb = 0.5 * math.hypot(b7[5], b7[6])
    dx, dy = a7[0] - b7[0], a7[1] - b7[1]
    if dx * dx + dy * dy > (ra + rb) * (ra + rb):
        return 0.0
    return _clipped_iou(*_bev(a7[0], a7[1], a7[3], a7[5], a7[6]), za1 - za0,
                        *_bev(b7[0], b7[1], b7[3], b7[5], b7[6]), zb1 - zb0, dz)


def iou3d_matrix(rows, cols):
    """Pairwise IoU matrix of two (N, 7) / (M, 7) box arrays.

    The circle rejection runs on the whole block at once, the z rejection
    on the pairs it keeps, and only the pairs that pass both reach the
    polygon clip (see module docstring).
    """
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    n, m = rows.shape[0], cols.shape[0]
    out = np.zeros((n, m), dtype=float)
    if n == 0 or m == 0:
        return out
    ra = np.array([0.5 * math.hypot(w, l) for w, l in rows[:, 5:7].tolist()])
    rb = np.array([0.5 * math.hypot(w, l) for w, l in cols[:, 5:7].tolist()])
    dx = rows[:, 0][:, None] - cols[:, 0][None, :]
    dy = rows[:, 1][:, None] - cols[:, 1][None, :]
    rr = ra[:, None] + rb[None, :]
    # huge finite boxes square to inf here, as Python floats do in iou3d_pair
    with np.errstate(over="ignore"):
        ii, jj = np.nonzero(~(dx * dx + dy * dy > rr * rr))
    row_box = rows[:, [0, 1, 3, 5, 6]].tolist()  # x, y, theta, w, l
    col_box = cols[:, [0, 1, 3, 5, 6]].tolist()
    row_z = [(z - 0.5 * h, z + 0.5 * h) for z, h in rows[:, [2, 4]].tolist()]
    col_z = [(z - 0.5 * h, z + 0.5 * h) for z, h in cols[:, [2, 4]].tolist()]
    row_bev, col_bev = {}, {}
    vals = []
    for i, j in zip(ii.tolist(), jj.tolist()):
        (za0, za1), (zb0, zb1) = row_z[i], col_z[j]
        dz = min(za1, zb1) - max(za0, zb0)
        if dz <= 0.0:
            vals.append(0.0)
            continue
        if i not in row_bev:
            row_bev[i] = _bev(*row_box[i])
        if j not in col_bev:
            col_bev[j] = _bev(*col_box[j])
        vals.append(_clipped_iou(*row_bev[i], za1 - za0, *col_bev[j], zb1 - zb0, dz))
    out[ii, jj] = vals
    return out
