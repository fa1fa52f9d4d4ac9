import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopmot import geometry
from coopmot.geometry import _pure
from coopmot.io import BOX_FIELDS
from helpers import iou3d, make_box, rand_box7
from iou_oracle import iou3d_pair


def turns(corners):
    """The cross product of each edge of a quad (4, 2) with the next one:
    all positive when the quad is convex and counter-clockwise."""
    edge = np.roll(corners, -1, axis=0) - corners
    after = np.roll(edge, -1, axis=0)
    return edge[:, 0] * after[:, 1] - edge[:, 1] * after[:, 0]


def box_to_bev(d):
    """The BEV corners (4, 2) that _pure._bev gives a detection, asserted
    convex and counter-clockwise."""
    x, y, _, theta, _, w, l = geometry.as_box7_array([d])[0].tolist()
    corners = np.array(_pure._bev(x, y, theta, w, l)[0])
    assert (turns(corners) > 0.0).all()
    return corners


class TestBoxToBev:
    def test_axis_aligned(self):
        corners = box_to_bev(make_box(l=2.0, w=1.0))
        expected = {(1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5)}
        got = {(round(x, 12), round(y, 12)) for x, y in corners}
        assert got == expected

    def test_quarter_turn(self):
        corners = box_to_bev(make_box(l=2.0, w=1.0, theta=math.pi / 2))
        got = {(round(x, 12), round(y, 12)) for x, y in corners}
        assert got == {(0.5, 1.0), (-0.5, 1.0), (-0.5, -1.0), (0.5, -1.0)}

    def test_diagonal_square(self):
        # hand-rotated corners of an l=w=sqrt(2) square at 45 degrees
        s = math.sqrt(2.0)
        corners = box_to_bev(make_box(l=s, w=s, theta=math.pi / 4))
        got = {(round(x, 12), round(y, 12)) for x, y in corners}
        assert got == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}

    def test_ccw_orientation_enforced(self):
        # box_to_bev asserts a left turn at every corner; reversed, each turn is right
        corners = box_to_bev(make_box(l=3.0, w=2.0, theta=0.7))
        assert (turns(corners[::-1]) < 0.0).all()


def bev_corners(box7):
    """Counter-clockwise BEV rectangle corners (4, 2) of a box 7-vector,
    written element by element into a numpy array: the oracle for _pure._bev."""
    x, y = box7[0], box7[1]
    theta, w, l = box7[3], box7[5], box7[6]
    c, s = math.cos(theta), math.sin(theta)
    hl, hw = 0.5 * l, 0.5 * w
    out = np.empty((4, 2), dtype=float)
    # local corners (+hl,+hw), (-hl,+hw), (-hl,-hw), (+hl,-hw)
    lx = (hl, -hl, -hl, hl)
    ly = (hw, hw, -hw, -hw)
    for k in range(4):
        out[k, 0] = c * lx[k] - s * ly[k] + x
        out[k, 1] = s * lx[k] + c * ly[k] + y
    return out


def _signed_zero_or(values):
    return st.one_of(values, st.sampled_from([0.0, -0.0]))


_NEAR_PI = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
            math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 4.0),
            math.nextafter(-math.pi, -4.0)]


class TestBevOracle:
    @settings(max_examples=300, deadline=None)
    @given(x=_signed_zero_or(st.floats(-1e6, 1e6)),
           y=_signed_zero_or(st.floats(-1e6, 1e6)),
           theta=_signed_zero_or(st.one_of(st.sampled_from(_NEAR_PI),
                                           st.floats(-3.2, 3.2))),
           w=_signed_zero_or(st.floats(1e-6, 1e6)),
           l=_signed_zero_or(st.floats(1e-6, 1e6)))
    def test_float_corners_and_area_equal_numpy_oracle(self, x, y, theta, w, l):
        # float.hex tells -0.0 from 0.0, so signed zeros must match too
        box7 = np.array([x, y, 0.0, theta, 1.0, w, l])
        expected = [tuple(p) for p in bev_corners(box7).tolist()]
        poly, area = _pure._bev(x, y, theta, w, l)
        assert [tuple(map(float.hex, p)) for p in poly] \
            == [tuple(map(float.hex, p)) for p in expected]
        assert float.hex(area) == float.hex(_pure._polygon_area(expected))


class TestIou3d:
    def test_identical_boxes_exactly_one(self, rng):
        for _ in range(20):
            b = rand_box7(rng)
            assert iou3d(b, b) == 1.0

    def test_disjoint_z_ranges(self):
        a = make_box(z=0.0, h=1.0)
        b = make_box(z=5.0, h=1.0)
        assert iou3d(a, b) == 0.0

    def test_offset_unit_cubes(self):
        a = make_box()
        b = make_box(x=0.5)
        assert abs(iou3d(a, b) - 1.0 / 3.0) < 1e-12

    def test_symmetry(self, rng):
        for _ in range(200):
            a, b = rand_box7(rng), rand_box7(rng)
            assert abs(iou3d(a, b) - iou3d(b, a)) < 1e-12

    def test_near_identical_boxes_stay_finite(self, rng):
        # regression: edges collinear with the clip line used to divide by
        # zero when rounding split the endpoint sides
        base = np.array([37.05238776, 13.82196776, 0.8, -1.96505006, 1.6, 1.8, 4.5])
        other = base.copy()
        other[0] -= 1.85e-6
        other[1] -= 4.45e-6
        v = iou3d(base, other)
        assert np.isfinite(v) and 0.99 < v <= 1.0
        for _ in range(500):
            a = rand_box7(rng)
            b = a + rng.normal(0, 1e-9, 7) * np.array([1, 1, 1, 1, 0, 0, 0])
            v = iou3d(a, b)
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_accepts_detections_trackstates_and_vectors(self):
        # a track state row (10 entries) is not a box; its first seven are
        from coopmot import kalman
        d = make_box(x=1.0, l=2.0)
        v = d.box7()
        t = kalman.init_track([v], [1.0], 1, kalman.default_model())
        assert iou3d(d, v) == 1.0
        with pytest.raises(ValueError, match="expected a 7-vector box"):
            iou3d(d, t.states[0])
        assert geometry.iou_matrix([d], t.states[:, :7]).tolist() == [[1.0]]


class TestAsBox7Array:
    def test_float_array_returned_as_is(self, rng):
        boxes = np.stack([rand_box7(rng) for _ in range(3)])
        out = geometry.as_box7_array(boxes)
        assert out is boxes
        assert np.array_equal(out, boxes)

    def test_zero_row_array(self):
        out = geometry.as_box7_array(np.zeros((0, 7)))
        assert out.shape == (0, 7) and out.dtype == float

    def test_detection_list(self):
        dets = [make_box(x=1.0), make_box(x=2.0, theta=0.5)]
        out = geometry.as_box7_array(dets)
        assert out.shape == (2, 7)
        assert np.array_equal(out, np.stack([d.box7() for d in dets]))

    def test_other_arrays_take_the_general_path(self):
        ints = np.arange(14).reshape(2, 7)
        assert np.array_equal(geometry.as_box7_array(ints), ints.astype(float))
        for width in (8, 10):
            with pytest.raises(ValueError, match="expected a 7-vector box"):
                geometry.as_box7_array(np.arange(2.0 * width).reshape(2, width))


class TestNonFiniteBoxes:
    # a NaN z against a zero-height box: the two kernels take the z-overlap
    # min/max in different orders, so the kernel result would depend on
    # argument order and backend; the coercion rejects the box instead
    A = [0.0, 0.0, math.nan, 0.0, 1.0, 1.0, 1.0]
    B = [0.5, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0]

    def test_nan_pair_raises_in_both_orders(self):
        for a, b in ((self.A, self.B), (self.B, self.A)):
            with pytest.raises(ValueError):
                geometry.iou_matrix([a], [b])
            with pytest.raises(ValueError):
                geometry.iou_matrix(np.array([a]), np.array([b]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(7))
    def test_every_field_checked(self, rng, bad, field):
        boxes = np.stack([rand_box7(rng) for _ in range(3)])
        boxes[1, field] = bad
        with pytest.raises(ValueError):
            geometry.as_box7_array(boxes)
        with pytest.raises(ValueError):
            geometry.as_box7_array(list(boxes))
        with pytest.raises(ValueError):
            geometry.as_box7_array([boxes[1]])
        # a Detection cannot hold the value: building one raises
        message = f"^non-finite field in detection: {BOX_FIELDS[field]}$"
        with pytest.raises(ValueError, match=message):
            make_box(*boxes[1])

    @pytest.mark.parametrize("box", [[10**400, 0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, -10**400],
                                     np.array([[0, 0, 10**400, 0, 1, 1, 1]], dtype=object)])
    def test_int_no_float_holds(self, box):
        # core's rule: an int beyond the float range is not finite
        with pytest.raises(ValueError, match="^box has a non-finite value$"):
            geometry.iou_matrix([box], [[0, 0, 0, 0, 1, 1, 1]])
        with pytest.raises(ValueError, match="^box has a non-finite value$"):
            geometry.iou_matrix([[0, 0, 0, 0, 1, 1, 1]], [box])


def kernel_pair(a, b):
    """The active kernel's IoU of two boxes, as its 1 x 1 iou3d_matrix: an
    entry of a larger matrix must not depend on the other boxes."""
    a7, b7 = geometry.as_box7_array([a, b])
    return geometry._kernel.iou3d_matrix(a7[None], b7[None])[0, 0]


class TestIouMatrix:
    def test_empty_rows(self):
        m = geometry.iou_matrix([], [make_box(), make_box(x=3.0)])
        assert m.shape == (0, 2)

    def test_single_pair_matches_iou3d(self):
        a, b = make_box(), make_box(x=0.3)
        m = geometry.iou_matrix([a], [b])
        assert m.shape == (1, 1)
        assert m[0, 0] == kernel_pair(a, b)

    def test_two_by_two_single_overlap(self):
        rows = [make_box(x=0.0), make_box(x=100.0)]
        cols = [make_box(x=200.0), make_box(x=0.25)]
        m = geometry.iou_matrix(rows, cols)
        for r in range(2):
            for c in range(2):
                assert m[r, c] == kernel_pair(rows[r], cols[c])
        assert np.count_nonzero(m) == 1
        assert m[0, 1] > 0


def pairwise_iou(rows, cols):
    """The plain per-pair loop that _pure.iou3d_matrix must reproduce."""
    out = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(rows.tolist()):
        for j, b in enumerate(cols.tolist()):
            out[i, j] = iou3d_pair(a, b)
    return out


def _box(center, w=st.floats(0.5, 3.0), l=st.floats(0.5, 6.0)):
    return st.tuples(center, center, st.floats(-1.0, 1.0),
                     st.floats(-math.pi, math.pi), st.floats(0.5, 3.0), w, l)


# Exact contacts of the two rejections: z-intervals [-1, 1] and [1, 3]
# (dz == 0), and circumscribed circles of radius 2.5 (w=3, l=4) whose
# centres are 5 apart (dx^2 + dy^2 == (ra + rb)^2 == 25).
Z_TOUCH = [(0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 1.0),
           (0.25, 0.0, 2.0, 0.3, 2.0, 1.0, 1.0)]
CIRCLE_TOUCH = [(0.0, 0.0, 0.0, 0.3, 1.0, 3.0, 4.0),
                (3.0, 4.0, 0.0, 1.1, 1.0, 3.0, 4.0)]
# A flat box: dz <= 0 against every box, itself included.
FLAT = [(0.5, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0)]
# Circles of radius 2.5 on the edges of an unwidened candidate window:
# the last two boxes lie one float beyond the first box's x + 5 and x - 5
# (as rounded), yet their distances to it round to exactly 5, so the
# circle test keeps both pairs.
EDGE_X = 1.1
WINDOW_EDGE = [(EDGE_X, 0.0, 0.0, 0.3, 1.0, 3.0, 4.0),
               (math.nextafter(EDGE_X + 5.0, math.inf), 0.0, 0.0, 1.1, 1.0, 3.0, 4.0),
               (math.nextafter(EDGE_X - 5.0, -math.inf), 0.0, 0.0, -0.7, 1.0, 3.0, 4.0)]
# Finite boxes whose reach squared overflows: inf > inf is False, so the
# circle test keeps the pair however far apart they are.
HUGE = [(-1e300, 0.0, 0.0, 0.0, 1.0, 1e154, 1e154),
        (1e300, 3.0, 0.0, 0.5, 1.0, 1e154, 1e154)]


@st.composite
def box_sets(draw):
    """Two box sets and whether they are ordinary.

    Both sets are drawn from one pool of clustered, far-apart and touching
    boxes, of boxes on a candidate window's edges and of boxes that share
    one x, so that identical, overlapping and rejected pairs all occur.
    Sometimes the pool also holds extreme boxes: centres out to 1e6,
    extents from 1e-6 to 1e6, and HUGE. Sets drawn without them are
    ordinary.
    """
    shared_x = draw(st.floats(-3.0, 3.0))
    pool = draw(st.lists(st.one_of(_box(st.floats(-3.0, 3.0)),
                                   _box(st.floats(-200.0, 200.0))),
                         max_size=10)) + Z_TOUCH + CIRCLE_TOUCH + FLAT + WINDOW_EDGE
    pool += [(shared_x,) + box[1:]
             for box in draw(st.lists(_box(st.floats(-3.0, 3.0)), max_size=8))]
    extreme = draw(st.booleans())
    if extreme:
        wide = st.floats(1e-6, 1e6)
        pool += draw(st.lists(_box(st.floats(-1e6, 1e6), wide, wide), max_size=6)) + HUGE
    pick = st.lists(st.integers(0, len(pool) - 1), max_size=12)
    rows = np.array([pool[k] for k in draw(pick)], dtype=float).reshape(-1, 7)
    cols = np.array([pool[k] for k in draw(pick)], dtype=float).reshape(-1, 7)
    return rows, cols, not extreme


def clipped(fn, *args):
    """fn(*args), and every polygon pair it clips in call order (as repr,
    so that NaN corners compare equal)."""
    calls = []
    clip = _pure._clip_polygon

    def spy(subject, clip_poly):
        calls.append(repr((subject, clip_poly)))
        return clip(subject, clip_poly)

    with mock.patch.object(_pure, "_clip_polygon", spy):
        return fn(*args), calls


def check_matrix(rows, cols, ordinary):
    """_pure.iou3d_matrix against the per-pair loop; on ordinary sets also
    its range, symmetry and exact self-overlap."""
    m, m_clips = clipped(_pure.iou3d_matrix, rows, cols)
    expected, pair_clips = clipped(pairwise_iou, rows, cols)
    assert m.shape == (len(rows), len(cols))
    assert np.array_equal(m, expected, equal_nan=True)
    # the same pairs reach the clip, in the same order: no candidate window
    # left out a pair that the per-pair tests keep
    assert m_clips == pair_clips
    if not ordinary:
        return
    assert np.all((m >= 0.0) & (m <= 1.0))
    assert np.all(np.abs(m - _pure.iou3d_matrix(cols, rows).T) < 1e-12)
    solid = rows[:, 4] > 0.0
    assert np.all(np.diag(_pure.iou3d_matrix(rows, rows))[solid] == 1.0)


# Sets in which a candidate window would leave out a pair that the
# per-pair tests keep, were it used without its margin or without its
# check that the reach squared is finite. Squares of distances and
# reaches below about 1.6e-162 round to zero, so the circle test keeps
# such tiny boxes at any distance below that.
WINDOW_TRAPS = {
    "right edge": (WINDOW_EDGE[:1], WINDOW_EDGE[1:]),
    "left edge": (WINDOW_EDGE[1:], WINDOW_EDGE[:1]),
    "reach squared overflows": (HUGE, HUGE),
    "reach squared underflows": ([(0.0, 0.0, 0.0, 0.3, 1.0, 1e-200, 1e-200)],
                                 [(1e-170, 0.0, 0.0, 0.3, 1.0, 1e-200, 1e-200)]),
}


class TestPureMatrixGate:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(box_sets())
    def test_matrix_equals_pairwise_loop(self, sets):
        check_matrix(*sets)

    @pytest.mark.parametrize("trap", WINDOW_TRAPS)
    def test_window_traps(self, trap):
        rows, cols = (np.array(boxes, dtype=float) for boxes in WINDOW_TRAPS[trap])
        check_matrix(rows, cols, ordinary=False)

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0)])
    def test_empty_sides(self, rng, n, m):
        rows = np.array([rand_box7(rng) for _ in range(n)]).reshape(-1, 7)
        cols = np.array([rand_box7(rng) for _ in range(m)]).reshape(-1, 7)
        out = _pure.iou3d_matrix(rows, cols)
        assert out.shape == (n, m) and out.dtype == float

    def test_clip_runs_only_on_pairs_that_pass_both_rejections(self, rng):
        rows = np.stack([rand_box7(rng, center_scale=60.0) for _ in range(40)]
                        + [np.array(Z_TOUCH[0]), np.array(CIRCLE_TOUCH[0])])
        cols = np.stack([rand_box7(rng, center_scale=60.0) for _ in range(50)]
                        + [np.array(Z_TOUCH[1]), np.array(CIRCLE_TOUCH[1])])
        cols[:8] = rows[:8] + rng.normal(0.0, 0.3, (8, 7)) * [1, 1, 0, 1, 0, 0, 0]
        expected = 0
        for a in rows:
            for b in cols:
                dz = min(a[2] + a[4] / 2, b[2] + b[4] / 2) \
                    - max(a[2] - a[4] / 2, b[2] - b[4] / 2)
                reach = (math.hypot(a[5], a[6]) + math.hypot(b[5], b[6])) / 2
                if dz > 0 and math.hypot(a[0] - b[0], a[1] - b[1]) <= reach:
                    expected += 1
        m, calls = clipped(_pure.iou3d_matrix, rows, cols)
        # the eight perturbed copies and the circle-touching pair pass; the
        # z-touching pair does not
        assert 9 <= expected < rows.shape[0] * cols.shape[0] // 50
        assert len(calls) == expected
        assert np.count_nonzero(m) >= 8
