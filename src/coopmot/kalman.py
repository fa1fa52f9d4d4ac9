"""Constant-velocity linear Kalman filter over a struct-of-arrays track store.

State is [x y z theta h w l ux uy uz] with velocities in meters per
frame; measurements are box 7-vectors. The process noise enters only
through Q (the mean propagation is deterministic). init_track, predict and
update act on every row of a Tracks store at once and return a new store;
they never write the arrays of their input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .core import TWO_PI

STATE_DIM = 10
MEAS_DIM = 7


class SingularInnovation(np.linalg.LinAlgError):
    """Innovation covariance H P Ht + R is not invertible."""


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
        return Tracks(*(getattr(self, f.name)[rows] for f in fields(self)))

    def concat(self, other: "Tracks") -> "Tracks":
        """This store's rows followed by other's."""
        return Tracks(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
                        for f in fields(self)))


def _transition_matrix() -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = 1.0
    return f


def _measurement_matrix() -> np.ndarray:
    return np.hstack([np.eye(MEAS_DIM), np.zeros((MEAS_DIM, 3))])


@dataclass(frozen=True)
class KalmanModel:
    """Transition/measurement matrices and noise covariances.

    Defaults follow common 3D tracking practice: large initial velocity
    uncertainty, small velocity process noise, unit measurement noise.
    """

    F: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        for name, mat, shape in (("F", self.F, (10, 10)), ("H", self.H, (7, 10)),
                                 ("Q", self.Q, (10, 10)), ("R", self.R, (7, 7)),
                                 ("P0", self.P0, (10, 10))):
            arr = np.asarray(mat, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr.copy())


def default_model() -> KalmanModel:
    p0 = np.diag([10.0] * 7 + [1000.0] * 3)
    q = np.diag([0.0] * 7 + [0.01] * 3)
    r = np.eye(MEAS_DIM)
    return KalmanModel(F=_transition_matrix(), H=_measurement_matrix(),
                       Q=q, R=r, P0=p0)


def _wrap(theta: np.ndarray) -> np.ndarray:
    """core.wrap_angle elementwise, with the same float operations."""
    wrapped = np.fmod(theta + np.pi, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped) - np.pi
    return np.where((-np.pi <= theta) & (theta < np.pi), theta, wrapped)


def init_track(boxes, scores, first_id: int, model: KalmanModel) -> Tracks:
    """Tentative zero-velocity tracks, one per box row, with ids first_id,
    first_id + 1, ..."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, MEAS_DIM)
    k = len(boxes)
    states = np.zeros((k, STATE_DIM))
    states[:, :MEAS_DIM] = boxes
    return Tracks(states, np.repeat(model.P0[None], k, axis=0),
                  first_id + np.arange(k), np.ones(k, dtype=int),
                  np.zeros(k, dtype=int), np.zeros(k, dtype=bool),
                  np.array(scores, dtype=float).reshape(k))


def _mat_vec(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mat @ v for every row v of vecs, as one matrix-vector product per row,
    so each row gets the bits of mat @ v (vecs @ mat.T sums in another order)."""
    return (mat @ vecs[..., None])[..., 0]


def predict(tracks: Tracks, model: KalmanModel) -> Tracks:
    """Propagate every track's mean and covariance one frame ahead."""
    states = _mat_vec(model.F, tracks.states)
    states[:, 3] = _wrap(states[:, 3])
    cov = model.F @ tracks.covariances @ model.F.T + model.Q
    return replace(tracks, states=states, covariances=0.5 * (cov + cov.swapaxes(1, 2)))


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

    Those rows get the posterior, one more hit, no misses and the given
    scores; every other row is copied unchanged. Raises ValueError unless z
    is finite with one box per row, and SingularInnovation when some
    H P Ht + R cannot be factorized.
    """
    rows = np.asarray(rows, dtype=int).reshape(-1)
    z = np.asarray(z, dtype=float)
    if z.shape != (len(rows), MEAS_DIM) or not np.isfinite(z).all():
        raise ValueError(f"measurements must be finite ({len(rows)}, 7) boxes, "
                         f"got shape {z.shape}")

    x_pred, p_pred = tracks.states[rows], tracks.covariances[rows]
    innovation = z - _mat_vec(model.H, x_pred)
    innovation[:, 3] = _orientation_residual(z[:, 3], x_pred[:, 3])

    s = model.H @ p_pred @ model.H.T + model.R
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc
    # K = P Ht S^-1 via the Cholesky factor
    kt = np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, model.H @ p_pred))
    gain = kt.swapaxes(1, 2)

    state = x_pred + _mat_vec(gain, innovation)
    state[:, 3] = _wrap(state[:, 3])
    cov = p_pred - gain @ model.H @ p_pred
    states, covariances = tracks.states.copy(), tracks.covariances.copy()
    hits, misses, new_scores = tracks.hits.copy(), tracks.misses.copy(), tracks.scores.copy()
    states[rows] = state
    covariances[rows] = 0.5 * (cov + cov.swapaxes(1, 2))
    hits[rows] += 1
    misses[rows] = 0
    new_scores[rows] = scores
    return replace(tracks, states=states, covariances=covariances, hits=hits,
                   misses=misses, scores=new_scores)
