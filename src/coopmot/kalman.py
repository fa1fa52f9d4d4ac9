"""Constant-velocity linear Kalman filter over a struct-of-arrays track store.

State is [x y z theta h w l ux uy uz] with velocities in meters per
frame; measurements are box 7-vectors. The process noise enters only
through Q (the mean propagation is deterministic). init_track, predict and
update act on every row of a Tracks store at once and return a new store;
they never write the arrays of their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI
from .geometry import as_box7_array

STATE_DIM = 10
MEAS_DIM = 7


@dataclass(frozen=True)
class Tracks:
    """Live tracks as columns, one row per track, rows in ascending id order.

    states (T, 10) and covariances (T, 10, 10) are the filter's mean and
    covariance; ids, hits and misses are int columns, confirmed is False
    for tentative tracks, scores hold the latest detection scores.
    """

    states: np.ndarray
    covariances: np.ndarray
    ids: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    confirmed: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "Tracks":
        """The rows picked by an index array or a bool mask, in order."""
        return Tracks(self.states[rows], self.covariances[rows], self.ids[rows],
                      self.hits[rows], self.misses[rows], self.confirmed[rows],
                      self.scores[rows])

    def concat(self, other: "Tracks") -> "Tracks":
        """This store's rows followed by other's."""
        return Tracks(np.concatenate([self.states, other.states]),
                      np.concatenate([self.covariances, other.covariances]),
                      np.concatenate([self.ids, other.ids]),
                      np.concatenate([self.hits, other.hits]),
                      np.concatenate([self.misses, other.misses]),
                      np.concatenate([self.confirmed, other.confirmed]),
                      np.concatenate([self.scores, other.scores]))


@dataclass(frozen=True)
class KalmanModel:
    """Noise covariances of the constant-velocity model.

    The structure is fixed: the transition adds each velocity to its
    position and the measurement is the first seven state entries, so
    predict and update apply them as array slices. Defaults follow common
    3D tracking practice: large initial velocity uncertainty, small
    velocity process noise, unit measurement noise.
    """

    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        for name, shape in (("Q", (10, 10)), ("R", (7, 7)), ("P0", (10, 10))):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr.copy())


def default_model() -> KalmanModel:
    p0 = np.diag([10.0] * 7 + [1000.0] * 3)
    q = np.diag([0.0] * 7 + [0.01] * 3)
    return KalmanModel(Q=q, R=np.eye(MEAS_DIM), P0=p0)


def _wrap(theta: np.ndarray) -> np.ndarray:
    """core.wrap_angle elementwise, with the same float operations; theta
    (an array or a float) comes back as it is when it is all in range."""
    in_range = np.logical_and(-np.pi <= theta, theta < np.pi)
    if in_range.all():
        return theta
    wrapped = np.fmod(theta + np.pi, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped) - np.pi
    return np.where(in_range, theta, wrapped)


def init_track(boxes, scores, first_id: int, model: KalmanModel) -> Tracks:
    """Tentative zero-velocity tracks, one per box row, with ids first_id,
    first_id + 1, ... and no hits: tracker.step's lifecycle pass counts the first.
    ValueError for a row that geometry.as_box7_array refuses."""
    boxes = as_box7_array(boxes)
    k = len(boxes)
    states = np.zeros((k, STATE_DIM))
    states[:, :MEAS_DIM] = boxes
    return Tracks(states, np.repeat(model.P0[None], k, axis=0),
                  first_id + np.arange(k), np.zeros(k, dtype=int),
                  np.zeros(k, dtype=int), np.zeros(k, dtype=bool),
                  np.array(scores, dtype=float).reshape(k))


def predict(tracks: Tracks, model: KalmanModel) -> Tracks:
    """Propagate every track's mean and covariance one frame ahead.

    x <- F x and P <- F P Ft + Q, with F adding each velocity to its
    position: rows 7-9 are added to rows 0-2, then columns to columns.
    """
    states = tracks.states.copy()
    states[:, :3] += states[:, 7:]
    states[:, 3] = _wrap(states[:, 3])
    cov = tracks.covariances.copy()
    cov[:, :3] += cov[:, 7:]
    cov[:, :, :3] += cov[:, :, 7:]
    cov += model.Q
    return Tracks(states, 0.5 * (cov + cov.swapaxes(1, 2)), tracks.ids, tracks.hits,
                  tracks.misses, tracks.confirmed, tracks.scores)


def _orientation_residual(z_theta, pred_theta):
    """Yaw residual wrapped to [-pi, pi]; flip by pi when above pi/2.

    Boxes are symmetric under 180-degree flips, so a residual beyond pi/2
    means the detector reported the opposite heading; flipping the
    measurement avoids a spurious half-turn innovation.
    """
    residual = _wrap(z_theta - pred_theta)
    return np.where(residual > np.pi / 2, residual - np.pi,
                    np.where(residual < -np.pi / 2, residual + np.pi, residual))


def update(tracks: Tracks, rows, z, scores, model: KalmanModel) -> Tracks:
    """Kalman measurement update of tracks[rows] with the (k, 7) boxes z.

    Those rows get the posterior state and covariance and the given scores;
    everything else is copied unchanged, the hit and miss counters included
    (tracker.manage_lifecycle moves them). Raises ValueError unless z
    is finite with one box per row, and numpy's LinAlgError (a ValueError)
    when some H P Ht + R cannot be factorized.
    """
    rows = np.asarray(rows, dtype=int).reshape(-1)
    z = np.asarray(z, dtype=float)
    if z.shape != (len(rows), MEAS_DIM) or not np.isfinite(z).all():
        raise ValueError(f"measurements must be finite ({len(rows)}, 7) boxes, "
                         f"got shape {z.shape}")

    # H = [I 0]: H x is x's first seven entries, H P is P's first seven
    # rows and H P Ht their first seven columns
    x_pred, p_pred = tracks.states[rows], tracks.covariances[rows]
    hp = p_pred[:, :MEAS_DIM]
    innovation = z - x_pred[:, :MEAS_DIM]
    innovation[:, 3] = _orientation_residual(z[:, 3], x_pred[:, 3])

    chol = np.linalg.cholesky(hp[:, :, :MEAS_DIM] + model.R)
    # K = P Ht S^-1 via the Cholesky factor
    kt = np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, hp))
    gain = kt.swapaxes(1, 2)

    # one matrix-vector product K @ v per row, as the row-by-row oracle
    # test_kalman.py::TestBatchedOracle pins it; under the default model
    # each row of K has one nonzero entry, so no scene can see the order
    state = x_pred + (gain @ innovation[..., None])[..., 0]
    state[:, 3] = _wrap(state[:, 3])
    cov = p_pred - gain @ hp
    states, covariances = tracks.states.copy(), tracks.covariances.copy()
    new_scores = tracks.scores.copy()
    states[rows] = state
    covariances[rows] = 0.5 * (cov + cov.swapaxes(1, 2))
    new_scores[rows] = scores
    return Tracks(states, covariances, tracks.ids, tracks.hits, tracks.misses,
                  tracks.confirmed, new_scores)
