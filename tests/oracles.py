"""Independent reference computations used to freeze expected test values,
and small builders the tests share."""

from __future__ import annotations

import math

import numpy as np

from sttrack.core import Box7, Detection, StateVector
from sttrack.kalman import KfParams, KfState, process_noise, transition_matrix
from sttrack.metrics import EvalBox, Evaluator, MatchingPolicy
from sttrack.model import SttConfig
from sttrack.sim import NoiseModel, Scenario

NOISELESS = NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def state_from_array(arr) -> StateVector:
    """A flat [x, y, vx, vy, ax, ay] vector as a StateVector."""
    a = [float(v) for v in np.asarray(arr).reshape(6)]
    return StateVector((a[0], a[1]), (a[2], a[3]), (a[4], a[5]))


def mc_bev_iou(a: Box7, b: Box7, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo BEV IoU: uniform samples over the joint bounding region."""
    rng = np.random.default_rng(seed)
    corners = np.array(a.footprint() + b.footprint())
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))

    def inside(box: Box7) -> np.ndarray:
        ch, sh = math.cos(box.heading), math.sin(box.heading)
        dx = pts[:, 0] - box.center[0]
        dy = pts[:, 1] - box.center[1]
        along = dx * ch + dy * sh
        across = -dx * sh + dy * ch
        return (np.abs(along) <= 0.5 * box.size[1]) & (np.abs(across) <= 0.5 * box.size[0])

    in_a = inside(a)
    in_b = inside(b)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return float((in_a & in_b).sum() / union)


def euler_extrapolate(s: StateVector, dt: float, n_steps: int = 1000) -> StateVector:
    """Sub-stepped explicit integration of the constant-acceleration ODE."""
    px, py = s.position
    vx, vy = s.velocity
    ax, ay = s.acceleration
    h = dt / n_steps
    for _ in range(n_steps):
        px += vx * h + 0.5 * ax * h * h
        py += vy * h + 0.5 * ay * h * h
        vx += ax * h
        vy += ay * h
    return StateVector((px, py), (vx, vy), (ax, ay))


def detection_features_row(
    det: Detection, anchor: tuple[float, float], cfg: SttConfig
) -> np.ndarray:
    """One anchor-relative [geometry, appearance, motion] encoder row, built
    field by field."""
    box = det.box
    out = np.empty(cfg.feature_width)
    out[0] = box.center[0] - anchor[0]
    out[1] = box.center[1] - anchor[1]
    out[2:5] = box.size
    out[5] = math.sin(box.heading)
    out[6] = math.cos(box.heading)
    out[7] = det.confidence
    out[8 : 8 + cfg.d_a] = det.appearance
    out[8 + cfg.d_a :] = det.motion
    return out


_KF_H = np.zeros((2, 6))
_KF_H[0, 0] = 1.0
_KF_H[1, 1] = 1.0


def kalman_predict_reference(s: KfState, dt: float, p: KfParams) -> KfState:
    """Kalman predict with the transition and noise matrices built per call."""
    f = transition_matrix(dt)
    mean = f @ s.mean
    cov = f @ s.covariance @ f.T + process_noise(dt, p.process_noise_accel_sigma)
    cov = 0.5 * (cov + cov.T)
    return KfState(mean, cov)


def kalman_update_reference(s: KfState, z, p: KfParams) -> KfState:
    """Kalman update written with the measurement matrix H and fresh
    identities, Joseph-form covariance."""
    z = np.asarray(z, dtype=float).reshape(2)
    r = p.meas_noise_sigma**2 * np.eye(2)
    innovation = z - _KF_H @ s.mean
    s_mat = _KF_H @ s.covariance @ _KF_H.T + r
    gain = s.covariance @ _KF_H.T @ np.linalg.inv(s_mat)
    mean = s.mean + gain @ innovation
    ikh = np.eye(6) - gain @ _KF_H
    cov = ikh @ s.covariance @ ikh.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    return KfState(mean, cov)


def total_cost(cost, pairs: list[tuple[int, int]]) -> float:
    """Sum of the original-matrix entries over a matching."""
    c = np.asarray(cost, dtype=float)
    return float(sum(c[r, k] for r, k in pairs))


def label_frames_from_scenario(scenario: Scenario) -> list[list[EvalBox]]:
    """Per-frame evaluation labels of a simulated scenario's ground truth."""
    return [
        [
            EvalBox(t.object_id, t.class_id, t.boxes[k], t.states[k])
            for t in scenario.gt_tracks
        ]
        for k in range(scenario.frames)
    ]


def evaluate_sequences(
    sequences: list[tuple[list[list[EvalBox]], list[list[EvalBox]]]],
    policy: MatchingPolicy | None = None,
) -> dict:
    """One metrics report over several (label frames, prediction frames)
    sequences."""
    evaluator = Evaluator(policy)
    for label_frames, pred_frames in sequences:
        evaluator.add_sequence(label_frames, pred_frames)
    return evaluator.report()
