import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coopmot import kalman, tracker
from coopmot.core import TrackerConfig, wrap_angle
from helpers import F, H, born, make_box, reference_predict, reference_update, track_store


@pytest.fixture
def model():
    return kalman.default_model()


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestModel:
    def test_noise_matrices_symmetric_nonneg_diag(self, model):
        for m in (model.Q, model.R, model.P0):
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) >= 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kalman.KalmanModel(Q=np.eye(9), R=np.eye(7), P0=np.eye(10))


class TestInitTrack:
    def test_origin_detection(self, model):
        t = born(make_box(h=1.6, w=1.8, l=4.5), model)
        expected = np.zeros(10)
        expected[4:7] = [1.6, 1.8, 4.5]
        assert np.array_equal(t.states, [expected])

    def test_covariance_is_p0(self, model):
        t = born(make_box(x=3.0), model, track_id=7)
        assert np.array_equal(t.covariances, [model.P0])
        # tentative, with no hits yet: manage_lifecycle counts the first
        assert t.hits.tolist() == [0] and t.misses.tolist() == [0]
        assert t.confirmed.tolist() == [False]

    def test_distinct_ids(self, model):
        a = born(make_box(), model, track_id=1)
        b = born(make_box(), model, track_id=2)
        assert a.ids[0] != b.ids[0]
        # one call numbers its rows consecutively from the first id
        both = kalman.init_track(np.zeros((2, 7)), [1.0, 1.0], 5, model)
        assert both.ids.tolist() == [5, 6]

    def test_score_copied(self, model):
        assert born(make_box(score=0.42), model).scores.tolist() == [0.42]

    @pytest.mark.parametrize("row", [[math.nan, 0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 10**400, 1]])
    def test_non_finite_row_refused(self, model, row):
        # a NaN row made a NaN track, and 10**400 raised OverflowError
        with pytest.raises(ValueError, match="^box has a non-finite value$"):
            kalman.init_track([row], [1.0], 1, model)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
          2 * math.pi, -2 * math.pi, -0.0, 1e300, -1e300])
def test_wrap_is_wrap_angle_bit_for_bit(thetas):
    # kalman._wrap is core.wrap_angle elementwise, signed zeros included
    for got, theta in zip(kalman._wrap(np.array(thetas)).tolist(), thetas):
        want = wrap_angle(theta)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestPredict:
    def test_constant_velocity_step(self, model):
        t = born(make_box(), model)
        state = t.states[0].copy()
        state[7] = 1.0  # ux = 1 m/frame
        t = track_store(state, t.covariances)
        p = kalman.predict(t, model).states[0]
        assert p[0] == 1.0
        assert p[1] == 0.0 and p[2] == 0.0

    def test_zero_velocity_fixed_point(self, model):
        t = born(make_box(x=2.0, y=-3.0), model)
        p = kalman.predict(t, model)
        assert np.array_equal(p.states, t.states)

    def test_covariance_against_dense_oracle(self, model):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p_diag = rng.uniform(0.1, 5.0, 10)
            t = track_store(rng.normal(size=10), np.diag(p_diag))
            pred = kalman.predict(t, model).covariances[0]
            dense = F @ np.diag(p_diag) @ F.T + model.Q
            dense = 0.5 * (dense + dense.T)
            assert np.allclose(pred, dense, atol=1e-12)
            # diagonal picks up the velocity coupling terms
            for i in range(3):
                assert pred[i, i] == pytest.approx(
                    p_diag[i] + p_diag[i + 7] + model.Q[i, i])


class TestUpdate:
    def test_unit_gain_midpoint(self):
        # P = I, R = I gives gain 0.5 on each measured axis
        model = kalman.KalmanModel(Q=np.zeros((10, 10)), R=np.eye(7), P0=np.eye(10))
        t = born(make_box(), model)
        z = np.array([2.0, 4.0, -2.0, 0.0, 1.0, 1.0, 1.0])
        u = kalman.update(t, [0], [z], t.scores, model).states[0]
        assert np.allclose(u[:3], [1.0, 2.0, -1.0], atol=1e-12)
        # dense oracle for the full update
        p = np.eye(10)
        h, r = H, model.R
        k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
        expected = t.states[0] + k @ (z - h @ t.states[0])
        assert np.allclose(u, expected, atol=1e-12)

    def test_hits_and_score_bookkeeping(self, model):
        # the update sets the score and leaves the counters to the lifecycle
        t = replace(born(make_box(), model), misses=np.array([1]))
        u = kalman.update(t, [0], t.states[:, :7], [0.7], model)
        assert u.hits.tolist() == [0] and u.misses.tolist() == [1]
        assert u.scores.tolist() == [0.7]
        alive = tracker.manage_lifecycle(u, np.array([True]), TrackerConfig())
        assert alive.hits.tolist() == [1] and alive.misses.tolist() == [0]
        assert alive.scores.tolist() == [0.7]

    def test_singular_innovation(self):
        model = kalman.KalmanModel(Q=np.zeros((10, 10)), R=np.zeros((7, 7)),
                                   P0=np.zeros((10, 10)))
        t = born(make_box(), model)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            kalman.update(t, [0], t.states[:, :7], t.scores, model)

    def test_measurement_validation(self, model):
        t = born(make_box(), model)
        with pytest.raises(ValueError):
            kalman.update(t, [0], np.zeros((1, 6)), t.scores, model)
        with pytest.raises(ValueError):
            kalman.update(t, [0], np.full((1, 7), np.nan), t.scores, model)
        with pytest.raises(ValueError):  # one box per updated row
            kalman.update(t, [0], np.zeros((2, 7)), t.scores, model)


class TestInvariants:
    def test_update_never_inflates_diagonal(self, model):
        rng = np.random.default_rng(6)
        for _ in range(200):
            cov = random_spd(rng, 10)
            t = track_store(rng.normal(size=10), cov)
            z = H @ t.states[0] + rng.normal(size=7)
            u = kalman.update(t, [0], [z], t.scores, model).covariances[0]
            assert np.all(np.diag(u) <= np.diag(cov) + 1e-12)

    def test_orientation_residual_within_half_pi(self, model):
        rng = np.random.default_rng(8)
        for _ in range(500):
            pred = rng.uniform(-np.pi, np.pi)
            z = rng.uniform(-3 * np.pi, 3 * np.pi)
            residual = kalman._orientation_residual(z, pred)
            assert -np.pi / 2 <= residual <= np.pi / 2
        # a quarter turn either way is kept, not flipped
        assert kalman._orientation_residual(np.pi / 2, 0.0) == np.pi / 2
        assert kalman._orientation_residual(-np.pi / 2, 0.0) == -np.pi / 2

    def test_flip_avoids_half_turn_innovation(self, model):
        # measurement reported with opposite heading: position unaffected,
        # angle pulled by the flipped (small) residual
        t = born(make_box(theta=0.1), model)
        z = t.states[0, :7].copy()
        z[3] = 0.1 + np.pi  # opposite heading
        u = kalman.update(t, [0], [z], t.scores, model)
        assert abs(u.states[0, 3] - 0.1) < 1e-9


@st.composite
def stores(draw):
    """A random store of 0 <= T <= 12 rows (yaws partly outside [-pi, pi),
    random counters) and a random subset of its rows, each with a box and a
    score for the update."""
    t = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.normal(0.0, 20.0, (t, 10))
    states[:, 3] = rng.uniform(-4.0, 4.0, t)
    a = rng.normal(size=(t, 10, 10))
    tracks = kalman.Tracks(states, a @ a.swapaxes(1, 2) + 10.0 * np.eye(10),
                           np.sort(rng.choice(1000, t, replace=False)) + 1,
                           rng.integers(0, 6, t), rng.integers(0, 3, t),
                           rng.integers(0, 2, t).astype(bool), rng.uniform(0, 1, t))
    rows = np.flatnonzero(rng.integers(0, 2, t))
    z = states[rows, :7] + rng.normal(0.0, 2.0, (len(rows), 7))
    z[:, 3] = rng.uniform(-3 * np.pi, 3 * np.pi, len(rows))
    return tracks, rows, z, rng.uniform(0, 1, len(rows))


def columns(tracks):
    """Copies of every column of a store."""
    return {f.name: getattr(tracks, f.name).copy() for f in fields(tracks)}


def assert_columns_equal(tracks, saved):
    for name, column in saved.items():
        assert np.array_equal(getattr(tracks, name), column), name


def reference_lifecycle(tracks, matched, cfg):
    """The lifecycle as it ran track by track on the counters before the
    frame: (id, hits, misses, confirmed) of every survivor, in order."""
    out = []
    for k, tid in enumerate(tracks.ids.tolist()):
        hits, misses = int(tracks.hits[k]), int(tracks.misses[k])
        confirmed = bool(tracks.confirmed[k])
        if matched[k]:
            out.append((tid, hits + 1, 0, confirmed or hits + 1 >= cfg.min_hits))
        elif misses + 1 < cfg.max_age:
            out.append((tid, 0, misses + 1, confirmed))
    return out


ORACLE = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


class TestBatchedOracle:
    """The batched filter against the per-track formulas, row by row."""

    @ORACLE
    @given(stores(), st.integers(1, 4), st.integers(1, 4))
    def test_rows_equal_reference_and_inputs_untouched(self, case, min_hits, max_age):
        tracks, rows, z, scores = case
        model = kalman.default_model()

        saved = columns(tracks)
        pred = kalman.predict(tracks, model)
        assert_columns_equal(tracks, saved)
        for k in range(len(tracks)):
            state, cov = reference_predict(tracks.states[k], tracks.covariances[k], model)
            assert np.array_equal(pred.states[k], state)
            assert np.array_equal(pred.covariances[k], cov)
        for name in ("ids", "hits", "misses", "confirmed", "scores"):
            assert np.array_equal(getattr(pred, name), saved[name])

        saved = columns(pred)
        upd = kalman.update(pred, rows, z, scores, model)
        assert_columns_equal(pred, saved)
        for name in ("ids", "hits", "misses", "confirmed"):
            assert np.array_equal(getattr(upd, name), saved[name])
        for k in range(len(pred)):
            if k in rows:
                j = rows.tolist().index(k)
                state, cov = reference_update(pred.states[k], pred.covariances[k],
                                              z[j], model)
                assert np.array_equal(upd.states[k], state)
                assert np.array_equal(upd.covariances[k], cov)
                assert upd.scores[k] == scores[j]
            else:  # rows outside the subset are untouched
                for name in saved:
                    assert np.array_equal(getattr(upd, name)[k], saved[name][k])

        cfg = TrackerConfig(min_hits=min_hits, max_age=max_age)
        matched = np.isin(np.arange(len(upd)), rows)
        saved = columns(upd)
        alive = tracker.manage_lifecycle(upd, matched, cfg)
        assert_columns_equal(upd, saved)
        assert list(zip(alive.ids.tolist(), alive.hits.tolist(), alive.misses.tolist(),
                        alive.confirmed.tolist())) == reference_lifecycle(upd, matched, cfg)
        keep = np.isin(upd.ids, alive.ids)
        assert np.array_equal(alive.states, upd.states[keep])
        assert np.array_equal(alive.covariances, upd.covariances[keep])
        assert np.array_equal(alive.scores, upd.scores[keep])
