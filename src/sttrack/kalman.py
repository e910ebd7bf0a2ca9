"""Constant-acceleration Kalman filter baseline.

State is [x, y, vx, vy, ax, ay] with a white-noise-jerk process model, so
the filter estimates the same position/velocity/acceleration triple the
learned tracker emits. Only the box center is measured; box size and
heading ride along from the latest associated detection. The transition
matrix and process noise are built once per `(dt, sigma)` and shared
read-only by every `predict`. `update` takes the measured block of the mean
and covariance by slicing rather than by products with the measurement
matrix; both give the same bits, and the tests compare them.

A `KfState` is one filter, a `(6,)` mean and `(6, 6)` covariance, or a bank
of filters with a leading stack axis: an `(N, 6)` mean and `(N, 6, 6)`
covariance. `init_state`, `predict` and `update` are written once over that
`...` axis, so a single filter is the unstacked case of the same code. Each
row of a stacked `predict` or `update` is bitwise the single-filter result:
the mean is computed as `f @ mean[..., None]` (not `mean @ f.T`, which
differs in low bits) and the gain as one `(N, 2, 2)` inverse. The tracker
(`runtime.KalmanBackend`) keeps all its tracks' filters in one bank and runs
one `predict` per frame and one `update` per set of matched tracks.

`kf_association_cost` defines the association cost of one track and one
detection: 1 - BEV IoU of the predicted box and the detection box, forbidden
at or below `iou_gate`. The tracker (`runtime.KalmanBackend.frame_costs`)
computes the same costs for all pairs of a frame at once, as a matrix over
`core.bev_iou_matrix`; tests hold the two equal bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .assign import FORBIDDEN
from .core import bev_iou, check_fields


class KalmanDivergenceError(RuntimeError):
    """Covariance lost positive-definiteness: the run cannot continue."""


@dataclass(frozen=True, slots=True)
class KfParams:
    process_noise_accel_sigma: float = 1.5  # jerk intensity, (m/s^2)/sqrt(s)
    meas_noise_sigma: float = 0.1  # meters
    initial_velocity_sigma: float = 10.0
    initial_accel_sigma: float = 10.0
    iou_gate: float = 0.1

    def __post_init__(self) -> None:
        sigmas = ("process_noise_accel_sigma", "meas_noise_sigma",
                  "initial_velocity_sigma", "initial_accel_sigma")
        check_fields(self, (
            *((name, 0 < getattr(self, name) < math.inf, "> 0 and finite") for name in sigmas),
            ("iou_gate", 0 <= self.iou_gate < 1, "in [0, 1)"),
        ))


@dataclass(frozen=True, slots=True)
class KfState:
    mean: np.ndarray  # (..., 6) [x, y, vx, vy, ax, ay]
    covariance: np.ndarray  # (..., 6, 6)


_H = np.zeros((2, 6))
_H[0, 0] = 1.0
_H[1, 1] = 1.0
_EYE2 = np.eye(2)
_EYE6 = np.eye(6)


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(6)
    f[0, 2] = f[1, 3] = f[2, 4] = f[3, 5] = dt
    f[0, 4] = f[1, 5] = 0.5 * dt * dt
    return f


def process_noise(dt: float, sigma_jerk: float) -> np.ndarray:
    """Discretized continuous white-noise jerk covariance."""
    q = sigma_jerk * sigma_jerk
    d5, d4, d3, d2 = dt**5 / 20.0, dt**4 / 8.0, dt**3 / 6.0, dt**2 / 2.0
    block = q * np.array([[d5, d4, d3], [d4, dt**3 / 3.0, d2], [d3, d2, dt]])
    out = np.zeros((6, 6))
    for axis in range(2):
        idx = [axis, axis + 2, axis + 4]
        out[np.ix_(idx, idx)] = block
    return out


@functools.lru_cache(maxsize=8)
def _predict_constants(dt: float, sigma_jerk: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only transition matrix and process noise for one `(dt, sigma)`."""
    f = transition_matrix(dt)
    q = process_noise(dt, sigma_jerk)
    f.flags.writeable = False
    q.flags.writeable = False
    return f, q


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def init_state(position: ArrayLike, p: KfParams) -> KfState:
    """Filters at `position`, shape `(..., 2)`, with zero motion terms."""
    position = np.asarray(position, dtype=float)
    mean = np.zeros(position.shape[:-1] + (6,))
    mean[..., :2] = position
    cov = np.diag(
        [
            p.meas_noise_sigma**2,
            p.meas_noise_sigma**2,
            p.initial_velocity_sigma**2,
            p.initial_velocity_sigma**2,
            p.initial_accel_sigma**2,
            p.initial_accel_sigma**2,
        ]
    )
    return KfState(mean, np.broadcast_to(cov, mean.shape + (6,)).copy())


def predict(s: KfState, dt: float, p: KfParams) -> KfState:
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    f, q = _predict_constants(dt, p.process_noise_accel_sigma)
    mean = (f @ s.mean[..., None])[..., 0]
    cov = f @ s.covariance @ f.T + q
    cov = 0.5 * (cov + _transpose(cov))
    return KfState(mean, cov)


def update(s: KfState, z: ArrayLike, p: KfParams) -> KfState:
    """Joseph-form update of each filter with its measured center `z`, shape
    `(..., 2)`."""
    z = np.asarray(z, dtype=float).reshape(s.mean.shape[:-1] + (2,))
    if not np.isfinite(z).all():
        raise ValueError(f"measurement must be finite, got {z}")
    r = p.meas_noise_sigma**2 * _EYE2
    innovation = z - s.mean[..., :2]
    s_mat = s.covariance[..., :2, :2] + r
    gain = s.covariance[..., :, :2] @ np.linalg.inv(s_mat)
    mean = s.mean + (gain @ innovation[..., None])[..., 0]
    ikh = _EYE6 - gain @ _H
    cov = ikh @ s.covariance @ _transpose(ikh) + gain @ r @ _transpose(gain)
    cov = 0.5 * (cov + _transpose(cov))
    _check_covariance(cov, s)
    return KfState(mean, cov)


def _check_covariance(cov: np.ndarray, before: KfState) -> None:
    """Raise `KalmanDivergenceError` when an updated covariance has an
    eigenvalue at or below -1e-12 * (1 + |trace|), naming the first such
    filter of the stack.

    A stacked Cholesky factorisation screens first: where it completes,
    every matrix is positive definite up to a backward error of about
    n * eps * |P|, far inside that floor, so the eigenvalue rule would pass
    them all. Only a stack it rejects goes to the eigenvalues."""
    try:
        np.linalg.cholesky(cov)
        return
    except np.linalg.LinAlgError:
        pass
    eigmin = np.linalg.eigvalsh(cov).min(axis=-1).reshape(-1)
    # materially negative relative to the covariance scale, not roundoff
    floor = -1e-12 * (1.0 + np.abs(np.trace(cov, axis1=-2, axis2=-1).reshape(-1)))
    bad = np.flatnonzero(eigmin <= floor)
    if bad.size:
        row = bad[0]
        prior = before.covariance.reshape(-1, 6, 6)[row]
        raise KalmanDivergenceError(
            "covariance update failed: "
            f"min eigenvalue = {eigmin[row]:.3e}, "
            f"prior trace = {float(np.trace(prior)):.3e}"
        )


def kf_association_cost(
    track_pred: KfState, last_box: Sequence[float], det_box: Sequence[float], p: KfParams
) -> float:
    """1 - BEV IoU between the last associated box carried to the predicted
    centre, the first two entries of one filter's mean, and the detection
    box, gated. Boxes are 7-value `(cx, cy, cz, w, l, h, heading)` rows."""
    predicted = (*track_pred.mean[:2].tolist(), *last_box[2:])
    iou = bev_iou(predicted, det_box)
    if iou <= p.iou_gate:
        return FORBIDDEN
    return 1.0 - iou
