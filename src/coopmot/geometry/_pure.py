"""Pure-Python oriented-box IoU kernel.

Reference implementation of the hot geometry kernel; the C module
coopmot.geometry._native (_native.c) mirrors these formulas operation for
operation so both backends agree to floating-point noise. Both export only
iou3d_matrix. The tests hold it to a plain loop over every pair
(tests/iou_oracle.py).

Boxes are 7-vectors [x y z theta h w l]: centroid, yaw about z, extents.
Overlap is BEV convex-polygon clipping (Sutherland-Hodgman) times the
z-interval overlap. Both kernels take finite (N, 7) float arrays only:
geometry.iou_matrix rejects a NaN or infinite value before either runs.

A pair is zero without clipping when its z-intervals do not overlap
(dz <= 0) or its circumscribed BEV circles are apart (dx^2 + dy^2 >
(ra + rb)^2). iou3d_matrix works on Python floats. It sorts the columns
by x once, and each row takes as candidates only the columns whose x lies
within its reach, ra + max(rb), of its own. The reach is widened by a
relative 1e-12 and by a floor whose square is a normal float, so a column
beyond it has a rounded dx^2 above every rounded (ra + rb)^2: the window
never leaves out a pair that the circle test keeps. The candidates take
the per-pair loop's circle test (radii from math.hypot), its z test
(Python's min/max) and, if they pass both, the clip, in ascending column
order and with the same operations. Finite extents can still give an
infinite radius, or a reach whose square overflows; the circle test then
keeps a pair at any distance (inf > inf is False), so a row whose reach
squared is not finite tests every column. A box's corners, area and
volume are computed once, when a kept pair first needs them. Each entry
is therefore the float the per-pair loop computes, and the pairs reach
the clip in that loop's order.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

# BEV intersection areas below this are treated as zero (clipping noise).
AREA_EPS = 1e-12
# A row's candidate window reaches (ra + max(rb)) * _WIDEN + _REACH_FLOOR
# either side of its x (see module docstring).
_WIDEN = 1.0 + 1e-12
_REACH_FLOOR = 2.0 ** -500


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
    nl, nw = -hl, -hw
    # local corners (+hl,+hw), (-hl,+hw), (-hl,-hw), (+hl,-hw), each
    # (c*lx - s*ly + x, s*lx + c*ly + y)
    x0, y0 = c * hl - s * hw + x, s * hl + c * hw + y
    x1, y1 = c * nl - s * hw + x, s * nl + c * hw + y
    x2, y2 = c * nl - s * nw + x, s * nl + c * nw + y
    x3, y3 = c * hl - s * nw + x, s * hl + c * nw + y
    # _polygon_area's sum, starting from the last corner
    acc = x3 * y0 - x0 * y3
    acc += x0 * y1 - x1 * y0
    acc += x1 * y2 - x2 * y1
    acc += x2 * y3 - x3 * y2
    return [(x0, y0), (x1, y1), (x2, y2), (x3, y3)], 0.5 * abs(acc)


def iou3d_matrix(rows, cols):
    """Pairwise IoU matrix of two (N, 7) / (M, 7) box arrays.

    Each row scores only its x-window of candidate columns, and only the
    pairs that pass both rejections reach the polygon clip (see module
    docstring).
    """
    n, m = rows.shape[0], cols.shape[0]
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=float)
    hypot, isfinite = math.hypot, math.isfinite
    cx, cy, cz, ctheta, ch, cw, cl = cols.T.tolist()
    rb = [0.5 * hypot(w, l) for w, l in zip(cw, cl)]
    col_z = [(z - 0.5 * h, z + 0.5 * h) for z, h in zip(cz, ch)]
    every = range(m)
    order = sorted(every, key=cx.__getitem__)
    xs = [cx[j] for j in order]
    rb_max = max(rb)
    col_bev = [None] * m
    out = np.zeros((n, m), dtype=float)
    flat = memoryview(out).cast("B").cast("d")  # writes go into out
    for base, (xa, ya, z, theta, h, w, l) in zip(range(0, n * m, m), rows.tolist()):
        ra = 0.5 * hypot(w, l)
        za0, za1 = z - 0.5 * h, z + 0.5 * h
        reach = (ra + rb_max) * _WIDEN + _REACH_FLOOR
        if isfinite(reach * reach):
            lo = bisect_left(xs, xa - reach)
            cand = order[lo:bisect_right(xs, xa + reach, lo)]
            cand.sort()
        else:
            cand = every
        pa = None
        for j in cand:
            dx, dy = xa - cx[j], ya - cy[j]
            rr = ra + rb[j]
            if dx * dx + dy * dy > rr * rr:
                continue
            zb0, zb1 = col_z[j]
            dz = min(za1, zb1) - max(za0, zb0)
            if dz <= 0.0:
                continue
            if pa is None:
                pa, area_a = _bev(xa, ya, theta, w, l)
                vol_a = area_a * (za1 - za0)
            bev_b = col_bev[j]
            if bev_b is None:
                pb, area_b = _bev(cx[j], cy[j], ctheta[j], cw[j], cl[j])
                bev_b = col_bev[j] = pb, area_b * (zb1 - zb0)
            pb, vol_b = bev_b
            # the oracle's clipped IoU, with the box volumes computed once per box
            area = _polygon_area(_clip_polygon(pa, pb))
            if area < AREA_EPS:
                continue
            inter_vol = area * dz
            denom = vol_a + vol_b - inter_vol
            flat[base + j] = 1.0 if denom <= 0.0 else min(max(inter_vol / denom, 0.0), 1.0)
    return out
