"""The per-pair 3D IoU oracle of the pure kernel.

iou3d_pair scores one pair of boxes: the z test, the circumscribed-circle
test, then the BEV clip. Every entry of _pure.iou3d_matrix must equal it
bit for bit, and the pairs must reach the clip in the order of the plain
loop over rows and columns. The helpers are called through the _pure
module, so a test that patches _pure._clip_polygon sees this oracle's
clips as well as the kernel's.
"""

import math

from coopmot.geometry import _pure


def _clipped_iou(pa, area_a, ha, pb, area_b, hb, dz):
    """IoU of two boxes that passed both rejections.

    pa/pb are BEV corner lists, area_a/area_b their shoelace areas, ha/hb
    the box heights as z-interval widths and dz the z-overlap. Box volumes
    come from the same shoelace formula as the intersection polygon so
    that the self-overlap case is exactly 1.
    """
    area = _pure._polygon_area(_pure._clip_polygon(pa, pb))
    if area < _pure.AREA_EPS:
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
    return _clipped_iou(*_pure._bev(a7[0], a7[1], a7[3], a7[5], a7[6]), za1 - za0,
                        *_pure._bev(b7[0], b7[1], b7[3], b7[5], b7[6]), zb1 - zb0, dz)
