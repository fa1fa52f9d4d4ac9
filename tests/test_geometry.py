import math

import numpy as np
import pytest

from coopmot import geometry
from conftest import make_box, mc_iou, rand_box7


class TestBoxToBev:
    def test_axis_aligned(self):
        poly = geometry.box_to_bev(make_box(l=2.0, w=1.0))
        expected = {(1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5)}
        got = {(round(x, 12), round(y, 12)) for x, y in poly.corners}
        assert got == expected

    def test_quarter_turn(self):
        poly = geometry.box_to_bev(make_box(l=2.0, w=1.0, theta=math.pi / 2))
        got = {(round(x, 12), round(y, 12)) for x, y in poly.corners}
        assert got == {(0.5, 1.0), (-0.5, 1.0), (-0.5, -1.0), (0.5, -1.0)}

    def test_diagonal_square(self):
        # hand-rotated corners of an l=w=sqrt(2) square at 45 degrees
        s = math.sqrt(2.0)
        poly = geometry.box_to_bev(make_box(l=s, w=s, theta=math.pi / 4))
        got = {(round(x, 12), round(y, 12)) for x, y in poly.corners}
        assert got == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}

    def test_ccw_orientation_enforced(self):
        poly = geometry.box_to_bev(make_box(l=3.0, w=2.0, theta=0.7))
        assert poly.area > 0
        with pytest.raises(ValueError):
            geometry.BevPolygon(poly.corners[::-1].copy())

    def test_non_convex_rejected(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            geometry.BevPolygon(bowtie)


class TestIou3d:
    def test_identical_boxes_exactly_one(self, rng):
        for _ in range(20):
            b = rand_box7(rng)
            assert geometry.iou3d(b, b) == 1.0

    def test_disjoint_z_ranges(self):
        a = make_box(z=0.0, h=1.0)
        b = make_box(z=5.0, h=1.0)
        assert geometry.iou3d(a, b) == 0.0

    def test_offset_unit_cubes(self):
        a = make_box()
        b = make_box(x=0.5)
        assert abs(geometry.iou3d(a, b) - 1.0 / 3.0) < 1e-12

    def test_symmetry(self, rng):
        for _ in range(200):
            a, b = rand_box7(rng), rand_box7(rng)
            assert abs(geometry.iou3d(a, b) - geometry.iou3d(b, a)) < 1e-12

    def test_rigid_motion_invariance(self, rng):
        for _ in range(100):
            a, b = rand_box7(rng), rand_box7(rng)
            base = geometry.iou3d(a, b)
            yaw = rng.uniform(-np.pi, np.pi)
            tx, ty = rng.uniform(-50, 50, 2)
            c, s = np.cos(yaw), np.sin(yaw)

            def moved(v):
                out = v.copy()
                out[0] = c * v[0] - s * v[1] + tx
                out[1] = s * v[0] + c * v[1] + ty
                out[3] = v[3] + yaw
                return out

            assert abs(geometry.iou3d(moved(a), moved(b)) - base) < 1e-9

    def test_monte_carlo_oracle(self, rng):
        for _ in range(100):
            a = rand_box7(rng, center_scale=1.5)
            b = rand_box7(rng, center_scale=1.5)
            estimate = mc_iou(a, b, rng, n=100_000)
            assert abs(geometry.iou3d(a, b) - estimate) < 0.02

    def test_near_identical_boxes_stay_finite(self, rng):
        # regression: edges collinear with the clip line used to divide by
        # zero when rounding split the endpoint sides
        base = np.array([37.05238776, 13.82196776, 0.8, -1.96505006, 1.6, 1.8, 4.5])
        other = base.copy()
        other[0] -= 1.85e-6
        other[1] -= 4.45e-6
        v = geometry.iou3d(base, other)
        assert np.isfinite(v) and 0.99 < v <= 1.0
        for _ in range(500):
            a = rand_box7(rng)
            b = a + rng.normal(0, 1e-9, 7) * np.array([1, 1, 1, 1, 0, 0, 0])
            v = geometry.iou3d(a, b)
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_accepts_detections_trackstates_and_vectors(self):
        from coopmot.core import TrackState
        d = make_box(x=1.0, l=2.0)
        v = d.box7()
        t = TrackState(state=np.concatenate([v, np.zeros(3)]),
                       covariance=np.eye(10), track_id=1)
        assert geometry.iou3d(d, v) == 1.0
        assert geometry.iou3d(d, t) == 1.0


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
        wide = np.arange(16.0).reshape(2, 8)
        assert np.array_equal(geometry.as_box7_array(wide), wide[:, :7])


class TestIouMatrix:
    def test_empty_rows(self):
        m = geometry.iou_matrix([], [make_box(), make_box(x=3.0)])
        assert m.shape == (0, 2)

    def test_single_pair_matches_iou3d(self):
        a, b = make_box(), make_box(x=0.3)
        m = geometry.iou_matrix([a], [b])
        assert m.shape == (1, 1)
        assert m[0, 0] == geometry.iou3d(a, b)

    def test_two_by_two_single_overlap(self):
        rows = [make_box(x=0.0), make_box(x=100.0)]
        cols = [make_box(x=200.0), make_box(x=0.25)]
        m = geometry.iou_matrix(rows, cols)
        for r in range(2):
            for c in range(2):
                assert m[r, c] == geometry.iou3d(rows[r], cols[c])
        assert np.count_nonzero(m) == 1
        assert m[0, 1] > 0
