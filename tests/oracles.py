"""Independent reference computations used to freeze expected test values,
and small builders the tests share."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from unittest import mock

import numpy as np

from sttrack import autodiff as ad
from sttrack import formats, model
from sttrack.autodiff import Tensor
from sttrack.core import TAU, ClassId, Detections, StateVector, bev_iou_matrix
from sttrack.kalman import (
    KalmanDivergenceError,
    KfParams,
    KfState,
    process_noise,
    transition_matrix,
)
from sttrack.metrics import (
    GATED_STATES,
    STATE_TYPES,
    _STATE_COLUMNS,
    EvalBox,
    EvalTable,
    Evaluator,
    MatchingPolicy,
    _ClassAccumulator,
)
from sttrack.model import SttConfig
from sttrack.sim import FALSE_POSITIVE, GtTrack, NoiseModel, Scenario, speed_class, trajectory_at

NOISELESS = NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# --- boxes and detections as rows ---------------------------------------------


def normalize_heading(h: float) -> float:
    """Wrap an angle into (-pi, pi]: the scalar reference for
    `core.wrap_headings`."""
    h = math.fmod(h, TAU)
    if h <= -math.pi:
        h += TAU
    elif h > math.pi:
        h -= TAU
    return h


@dataclass(frozen=True, slots=True)
class Box7:
    """7-DoF box: 3D center, (width, length, height), heading in (-pi, pi].

    Length runs along the heading direction, width across it. Sizes must be
    strictly positive; the heading is normalized at construction. `as_row`
    is the box as the 7-value row that `src/` takes.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    heading: float

    def __post_init__(self) -> None:
        s = self.size
        if not (0.0 < s[0] < math.inf and 0.0 < s[1] < math.inf and 0.0 < s[2] < math.inf):
            raise ValueError(f"box sizes must be strictly positive, got {self.size}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"non-finite box center: {self.center}")
        if not -math.pi < self.heading <= math.pi:  # `normalize_heading` keeps these
            if not math.isfinite(self.heading):
                raise ValueError(f"non-finite heading: {self.heading}")
            object.__setattr__(self, "heading", normalize_heading(self.heading))

    def as_row(self) -> tuple[float, ...]:
        """`(cx, cy, cz, w, l, h, heading)`: a row of the (N, 7) box arrays
        that `bev_iou` and `bev_iou_matrix` take."""
        return (*self.center, *self.size, self.heading)


@dataclass(frozen=True, slots=True)
class Detection:
    """One detection as a row: the row type of the per-row references, and
    how tests write down the detections of a table (see `detections_table`)."""

    box: Box7
    appearance: tuple[float, ...]
    motion: tuple[float, ...]
    confidence: float
    frame_index: int
    detection_id: int
    class_id: ClassId

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def detections_table(dets: Sequence[Detection], d_a: int = 0, d_m: int = 0) -> Detections:
    """The `Detections` table of `dets`, row for row: the one way tests build
    tables. An empty table's appearance and motion are `d_a` and `d_m` wide."""
    n = len(dets)
    if n:
        d_a, d_m = len(dets[0].appearance), len(dets[0].motion)
    return Detections(
        [det.detection_id for det in dets],
        [det.class_id for det in dets],
        np.array([det.box.as_row() for det in dets], dtype=float).reshape(n, 7),
        np.array([det.confidence for det in dets], dtype=float),
        np.array([det.appearance for det in dets], dtype=float).reshape(n, d_a),
        np.array([det.motion for det in dets], dtype=float).reshape(n, d_m),
    )


def table_rows(dets: Detections, frame: int = 0) -> tuple[Detection, ...]:
    """The rows of a detections table as `Detection`s of frame `frame`, once
    its columns have the documented types and shapes; a heading outside
    (-pi, pi] fails, as `Box7` would normalize it."""
    n = len(dets.ids)
    assert type(dets.ids) is list and type(dets.classes) is list and len(dets.classes) == n
    assert dets.boxes.shape == (n, 7) and dets.conf.shape == (n,)
    assert dets.appearance.shape[0] == dets.motion.shape[0] == n
    assert {a.dtype for a in dets[2:]} == {np.dtype(float)}
    boxes = [Box7(tuple(r[:3]), tuple(r[3:6]), r[6]) for r in dets.boxes.tolist()]
    assert [box.as_row() for box in boxes] == list(map(tuple, dets.boxes.tolist()))
    return tuple(map(
        Detection, boxes, map(tuple, dets.appearance.tolist()), map(tuple, dets.motion.tolist()),
        dets.conf.tolist(), itertools.repeat(frame), dets.ids, dets.classes,
    ))


def frame_rows(frames: Sequence[Detections]) -> tuple[tuple[Detection, ...], ...]:
    """`table_rows` of each of per-frame tables, frame `k` the `k`-th."""
    return tuple(table_rows(dets, k) for k, dets in enumerate(frames))


def track_columns(track: GtTrack) -> tuple:
    """A ground-truth track with each array as its dtype, shape and rows."""
    return track.object_id, track.class_id, *(
        (a.dtype, a.shape, a.tolist()) for a in (track.boxes, track.states)
    )


def scenario_repr(scenario: Scenario) -> str:
    """The repr of `scenario` with its ground truth as `track_columns` and its
    detections as rows, which shows every float's digits and every value's
    type: two scenarios of equal reprs hold the same values."""
    return repr(dataclasses.replace(
        scenario,
        gt_tracks=tuple(map(track_columns, scenario.gt_tracks)),
        detections=frame_rows(scenario.detections),
    ))


def state_at(x: float, y: float) -> StateVector:
    """A state at rest at (x, y)."""
    return StateVector((x, y), (0.0, 0.0), (0.0, 0.0))


def state_from_array(arr) -> StateVector:
    """A flat [x, y, vx, vy, ax, ay] vector as a StateVector."""
    a = [float(v) for v in np.asarray(arr).reshape(6)]
    return StateVector((a[0], a[1]), (a[2], a[3]), (a[4], a[5]))


def state_array(s: StateVector) -> np.ndarray:
    """A StateVector as a flat [x, y, vx, vy, ax, ay] row."""
    return np.array([*s.position, *s.velocity, *s.acceleration])


def state_error(a: StateVector, b: StateVector, state: str) -> float:
    """L2 distance of one state ("position", "velocity", "acceleration") of
    two state vectors."""
    pa, pb = getattr(a, state), getattr(b, state)
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def mc_bev_iou(a: Box7, b: Box7, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo BEV IoU: uniform samples over the joint bounding region."""
    rng = np.random.default_rng(seed)
    # each footprint lies in the square around its center's circumcircle
    centers = np.array([a.center[:2], b.center[:2]])
    reach = 0.5 * np.hypot([[a.size[0]], [b.size[0]]], [[a.size[1]], [b.size[1]]])
    lo = (centers - reach).min(axis=0)
    hi = (centers + reach).max(axis=0)
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


def pad_to_limit(
    rows: np.ndarray,
    lengths: np.ndarray,
    anchors,
    cfg: SttConfig,
    limit: str,
) -> tuple[np.ndarray, np.ndarray]:
    """`model._pad` with every group padded to the config's `limit` field
    ("t_max" or "k_max"), not to the batch's longest group."""
    width = getattr(cfg, limit)
    if len(lengths) and lengths.max() > width:
        raise ValueError(f"group of {lengths.max()} detections exceeds {limit} {width}")
    mask = np.arange(width) < lengths[:, None]
    feat = np.zeros((len(lengths), width, cfg.feature_width))
    feat[mask] = rows
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    feat[mask, :2] -= np.repeat(anchors, lengths, axis=0)
    return feat, mask


def history_blocks(histories: list[np.ndarray], t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, lengths) of feature-row histories as `model._history_inputs`
    takes them, built one history at a time: each right-aligned in a block
    of max(t_max, longest history) slots, zeros before it."""
    lengths = np.array([len(rows) for rows in histories])
    width = max(t_max, lengths.max())
    blocks = np.zeros((len(histories), width, histories[0].shape[1]))
    for block, rows in zip(blocks, histories):
        block[width - len(rows) :] = rows
    return blocks, lengths


def history_inputs_to_limit(histories: np.ndarray, lengths: np.ndarray, cfg: SttConfig):
    """`model._history_inputs` over histories padded to t_max: each history
    taken from the last slots of its block one at a time and anchored at its
    last row; (features, mask, recency one-hots (B, t_max, t_max), pooling
    weights (B, 1, t_max))."""
    if len(lengths) and lengths.min() < 1:
        raise ValueError("history must be non-empty")
    groups = [block[len(block) - n :] for block, n in zip(histories, lengths.tolist())]
    anchors = [rows[-1, :2] for rows in groups]
    rows = np.concatenate([np.empty((0, cfg.feature_width)), *groups])
    feat, mask = pad_to_limit(rows, lengths, anchors, cfg, "t_max")
    b, t = len(lengths), cfg.t_max
    rows, slots = np.nonzero(mask)
    onehot = np.zeros((b, t, t))
    onehot[rows, slots, t - lengths[rows] + slots] = 1.0
    pool = np.zeros((b, 1, t))
    if cfg.pooling == "mean":
        pool[rows, 0, slots] = 1.0 / lengths[rows]
    else:
        pool[np.arange(b), 0, lengths - 1] = 1.0
    return feat, mask, onehot, pool


def limit_padded():
    """Context manager under which `model`'s batch entry points pad every
    history to t_max and every context to k_max."""
    return mock.patch.multiple(
        model, _pad=pad_to_limit, _history_inputs=history_inputs_to_limit
    )


def center_distance(pred: StateVector, b: Box7) -> float:
    """XY Euclidean distance between a predicted position and a box center."""
    return math.hypot(pred.position[0] - b.center[0], pred.position[1] - b.center[1])


def select_context(
    track_pred: StateVector, dets: list[Detection], d: float, k: int
) -> list[Detection]:
    """The <= k nearest detections within radius d of the predicted position,
    ranked one detection at a time by (distance, detection id)."""
    ranked = []
    for det in dets:
        dist = center_distance(track_pred, det.box)
        if dist < d:
            ranked.append((dist, det.detection_id, det))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [det for _, _, det in ranked[:k]]


def extract_examples_per_detection(scenario: Scenario, cfg: SttConfig) -> list[tuple]:
    """`model.extract_examples`'s examples as (history, context, labels,
    state_t, state_prev) with detections in place of table rows, each context
    selected by the per-row `select_context`."""
    frames = frame_rows(scenario.detections)
    per_object: dict[int, list[tuple[int, Detection]]] = {}
    for t, (frame, prov) in enumerate(zip(frames, scenario.provenance)):
        for det, oid in zip(frame, prov):
            if oid != FALSE_POSITIVE:
                per_object.setdefault(oid, []).append((t, det))
    examples = []
    for track in scenario.gt_tracks:
        obs = per_object.get(track.object_id, [])
        for t in range(obs[0][0] + 1 if obs else scenario.frames, scenario.frames):
            prior = [det for frame, det in obs if frame < t][-cfg.t_max :]
            own = [det.detection_id for frame, det in obs if frame == t]
            context = select_context(
                state_from_array(track.states[t]), list(frames[t]), cfg.context_radius, cfg.k_max
            )
            if context:
                examples.append((
                    tuple(prior),
                    tuple(context),
                    tuple(1 if det.detection_id in own else 0 for det in context),
                    track.states[t].tolist(),
                    track.states[t - 1].tolist(),
                ))
    return examples


def zero_filled_backward(out: Tensor) -> None:
    """Reverse-mode pass from a scalar with every node's gradient buffer
    zero-filled before any rule runs, so each rule adds into a buffer of its
    own; `Tensor.backward` allocates them on first contribution instead."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents)
    for node in topo:
        node.grad = np.zeros_like(node.data)
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# The op-by-op graphs that `autodiff.layer_norm` and `autodiff.attention`
# fuse: the same forward expressions, and the gradients the fused backward
# must reproduce bit for bit. The ops only these graphs use are built here on
# `autodiff`'s scaffolds; `_softmax_grad` stays in `autodiff`, whose fused
# attention backward runs it.
_ONE = Tensor(1.0)


def _div_grad_a(g, x, y): return g / y
def _div_grad_b(g, x, y): return -g * x / (y * y)
def _sqrt_grad(g, x, out): return g * 0.5 / out


def div(a: Tensor, b: Tensor) -> Tensor:
    return ad._binary(np.divide, "div", a, b, _div_grad_a, _div_grad_b)


def sqrt(a: Tensor) -> Tensor:
    return ad._unary(a, np.sqrt(a.data), _sqrt_grad)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    return ad._unary(a, e / e.sum(axis=axis, keepdims=True), ad._softmax_grad, axis)


def layer_norm_ops(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm as ten recorded ops."""
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = div(_ONE, sqrt(ad.add(var, Tensor(eps))))
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def attention_ops(q: Tensor, k: Tensor, v: Tensor, key_mask=None) -> Tensor:
    """Scaled dot-product attention as up to seven recorded ops."""
    d = q.shape[-1]
    k_t = ad.transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    scores = ad.mul(ad.matmul(q, k_t), Tensor(1.0 / math.sqrt(d)))
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        scores = ad.add(scores, Tensor(np.where(key_mask, 0.0, -1e30)))
    weights = softmax(scores, axis=-1)
    if key_mask is not None:
        row_valid = np.broadcast_to(key_mask, scores.shape).any(axis=-1, keepdims=True)
        weights = ad.mul(weights, Tensor(row_valid.astype(float)))
    return ad.matmul(weights, v)


def op_by_op_blocks():
    """Context manager under which the model runs `layer_norm_ops` and
    `attention_ops` in place of the fused ops."""
    return mock.patch.multiple(ad, layer_norm=layer_norm_ops, attention=attention_ops)


def batched_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of `a @ w` for a 2-D `w`, given the output gradient `g`,
    as one matmul per leading index of `a` whose (..., K, N) products are
    then summed over the leading axes, first axis first; `matmul`'s backward
    rule does it as one GEMM over the flattened leading axes instead."""
    grad = np.matmul(np.swapaxes(a, -1, -2), g)
    while grad.ndim > 2:
        grad = grad.sum(axis=0)
    return grad


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


def check_covariance_reference(cov: np.ndarray, before: KfState) -> None:
    """The eigenvalue rule of `kalman._check_covariance` alone: raise when a
    covariance of the stack has an eigenvalue at or below
    -1e-12 * (1 + |trace|), naming the first such row's prior."""
    eigmin = np.linalg.eigvalsh(cov).min(axis=-1).reshape(-1)
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


def total_cost(cost, pairs: list[tuple[int, int]]) -> float:
    """Sum of the original-matrix entries over a matching."""
    c = np.asarray(cost, dtype=float)
    return float(sum(c[r, k] for r, k in pairs))


def label_frames_from_scenario(scenario: Scenario) -> list[list[EvalBox]]:
    """Per-frame evaluation labels of a simulated scenario's ground truth."""
    return [
        [
            EvalBox(t.object_id, t.class_id, tuple(t.boxes[k].tolist()),
                    *StateVector.from_rows(t.states[k]))
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


class PerFrameAccumulator(_ClassAccumulator):
    """`_ClassAccumulator` matching frame by frame from per-frame rows: the
    state gates over every label-prediction pair of the frame, and each
    match's state errors added to the MOTP sums as it is made."""

    def add_frame_rows(self, labels: EvalTable, preds: EvalTable, iou: np.ndarray) -> None:
        """Match one frame's label and prediction rows, `iou` its (labels,
        preds) BEV IoU matrix."""
        n_l, n_p = len(labels.ids), len(preds.ids)
        self.gt_total += n_l
        if n_l == 0 and n_p == 0:
            return
        t_u = self.policy.iou_threshold.get(self.class_id, 0.5)
        feas_iou = iou > t_u
        feas_gated = feas_iou
        finite_gates = [
            s
            for s in GATED_STATES
            if math.isfinite(self.policy.state_threshold(self.class_id, s))
        ]
        if finite_gates and n_l and n_p:
            feas_gated = feas_iou.copy()
            for s in finite_gates:
                c = _STATE_COLUMNS[s]
                diff = labels.states[:, None, c : c + 2] - preds.states[None, :, c : c + 2]
                err = np.hypot(diff[..., 0], diff[..., 1])
                feas_gated &= err < self.policy.state_threshold(self.class_id, s)

        matches = self._match_variant(self.mota, labels.ids, preds.ids, iou, feas_iou)
        self._match_variant(self.smota, labels.ids, preds.ids, iou, feas_gated)
        if not matches:
            return

        # Per state, each match's error adds to its bucket's sum and to "all",
        # in match order.
        label_rows = labels.states[[li for li, _ in matches]].tolist()
        pred_rows = preds.states[[pi for _, pi in matches]].tolist()
        thresholds = self.policy.speed_thresholds
        buckets = [
            speed_class(math.hypot(row[2], row[3]), self.class_id, thresholds)
            for row in label_rows
        ]
        for s in STATE_TYPES:
            c = _STATE_COLUMNS[s]
            errs = [
                math.hypot(p[c] - l[c], p[c + 1] - l[c + 1])
                for p, l in zip(pred_rows, label_rows)
            ]
            sums, counts = self.err_sum[s], self.err_count[s]
            for err, bucket in zip(errs, buckets):
                sums[bucket] += err
                sums["all"] += err
                counts[bucket] += 1
            counts["all"] += len(errs)
            if s in GATED_STATES:
                alpha = self.policy.alpha(self.class_id, s)
                self.exceed[s] += sum(err > alpha for err in errs)


class PerFrameEvaluator(Evaluator):
    """`Evaluator` that computes everything inside each frame: the IoU
    matrix from `bev_iou_matrix` of the frame's rows, the state gates over
    all its pairs and the MOTP sums match by match. The reference for the
    per-sequence passes of `Evaluator.add_sequence`."""

    def _acc(self, class_id: ClassId) -> PerFrameAccumulator:
        if class_id not in self._classes:
            self._classes[class_id] = PerFrameAccumulator(class_id, self.policy)
        return self._classes[class_id]

    def add_sequence(self, label_frames, pred_frames) -> None:
        labels, preds = EvalTable.of(label_frames), EvalTable.of(pred_frames)
        assert len(labels) == len(preds)
        for class_id in sorted({*labels.classes, *preds.classes}, key=lambda c: c.value):
            acc = self._acc(class_id)
            acc.reset_sequence()
            class_labels, class_preds = labels.of_class(class_id), preds.of_class(class_id)
            for k in range(len(labels)):
                label_rows, pred_rows = frame_table(class_labels, k), frame_table(class_preds, k)
                iou = bev_iou_matrix(label_rows.boxes, pred_rows.boxes)
                acc.add_frame_rows(label_rows, pred_rows, iou)


def frame_table(table: EvalTable, k: int) -> EvalTable:
    """Frame `k` of a table, as a one-frame table."""
    a, b = table.offsets[k], table.offsets[k + 1]
    return EvalTable(
        np.array([0, b - a]), table.ids[a:b], table.classes[a:b], table.boxes[a:b], table.states[a:b]
    )


def parallel_crossings(subject, clip) -> int:
    """How many times `core._clip_polygon(subject, clip)` meets a side change
    along a subject edge parallel to the clip edge (`denom == 0`), which it
    skips: the same walk, counting instead of clipping."""
    skipped = 0
    output = subject
    cx0, cy0 = clip[-1]
    for cx1, cy1 in clip:
        ex, ey = cx1 - cx0, cy1 - cy0
        inp, output = output, []
        if not inp:
            break
        px, py = inp[-1]
        pin = ex * (py - cy0) - ey * (px - cx0) >= 0.0
        for qx, qy in inp:
            qin = ex * (qy - cy0) - ey * (qx - cx0) >= 0.0
            if qin != pin:
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if denom == 0.0:
                    skipped += 1
                else:
                    t = (ex * (cy0 - py) - ey * (cx0 - px)) / denom
                    output.append((px + t * dx, py + t * dy))
            if qin:
                output.append((qx, qy))
            px, py, pin = qx, qy, qin
        cx0, cy0 = cx1, cy1
    return skipped


def scenario_numbers(scenario: Scenario):
    """Every real-valued field of a scenario, ground truth then detections."""
    for track in scenario.gt_tracks:
        for box, state in zip(track.boxes.tolist(), track.states.tolist()):
            yield from (*box, *state)
    for frame in frame_rows(scenario.detections):
        for det in frame:
            yield from (*det.box.center, *det.box.size, det.box.heading)
            yield from (*det.appearance, *det.motion, det.confidence)


def generate_per_frame(config, objects, seed: int) -> Scenario:
    """`sim.generate` one detection at a time: the same draws in the same
    order, with each detection's noise applied frame by frame, each heading
    through `normalize_heading` and each motion against the object's last
    seen centre."""
    if len(objects) < 1:
        raise ValueError("need at least one object")
    rng = np.random.default_rng(seed)
    noise = config.noise
    n_frames = config.frames
    dt = config.dt
    d_a = config.appearance_dim
    times = np.arange(n_frames) * dt

    gt_tracks, gt_boxes = [], []
    signatures = []
    for oid, spec in enumerate(objects):
        sig = rng.standard_normal(d_a)
        sig /= np.linalg.norm(sig)
        signatures.append(sig)
        pos, vel, acc, heading = trajectory_at(spec, times)
        boxes = tuple(
            Box7(
                (float(pos[k, 0]), float(pos[k, 1]), 0.5 * spec.size[2]),
                spec.size,
                normalize_heading(float(heading[k])),
            )
            for k in range(n_frames)
        )
        states = tuple(
            StateVector(
                (float(pos[k, 0]), float(pos[k, 1])),
                (float(vel[k, 0]), float(vel[k, 1])),
                (float(acc[k, 0]), float(acc[k, 1])),
            )
            for k in range(n_frames)
        )
        gt_boxes.append(boxes)
        gt_tracks.append(GtTrack(
            oid, spec.class_id, np.array([box.as_row() for box in boxes]),
            np.array([state_array(s) for s in states]),
        ))

    per_object = []
    for oid, spec in enumerate(objects):
        per_object.append(
            {
                "miss": rng.random(n_frames),
                "center": rng.standard_normal((n_frames, 3)) * noise.center_sigma,
                "heading": rng.standard_normal(n_frames) * noise.heading_sigma,
                "size": rng.standard_normal((n_frames, 3)) * noise.size_sigma,
                "appearance": rng.standard_normal((n_frames, d_a))
                * noise.appearance_sigma,
                "conf": np.abs(rng.standard_normal(n_frames)) * noise.confidence_noise,
            }
        )
    fp_counts = rng.poisson(noise.fp_rate, size=n_frames)

    half = 0.5 * config.field_size
    classes = sorted({spec.class_id for spec in objects}, key=lambda c: c.value)
    detections: list[Detections] = []
    provenance: list[tuple[int, ...]] = []
    last_seen: list[tuple[int, np.ndarray] | None] = [None] * len(objects)

    for k in range(n_frames):
        frame_dets: list[Detection] = []
        frame_prov: list[int] = []
        det_id = 0
        for oid, spec in enumerate(objects):
            draws = per_object[oid]
            if draws["miss"][k] < noise.miss_prob:
                continue
            gt_box = gt_boxes[oid][k]
            center = np.array(gt_box.center) + draws["center"][k]
            size = np.maximum(np.array(spec.size) + draws["size"][k], 0.05)
            heading = normalize_heading(gt_box.heading + float(draws["heading"][k]))
            appearance = signatures[oid] + draws["appearance"][k]
            center_err = float(np.hypot(draws["center"][k, 0], draws["center"][k, 1]))
            conf = float(np.clip(1.0 - center_err - draws["conf"][k], 0.0, 1.0))
            if last_seen[oid] is None:
                motion = (0.0, 0.0)
            else:
                prev_k, prev_center = last_seen[oid]
                elapsed = (k - prev_k) * dt
                motion = (
                    float((center[0] - prev_center[0]) / elapsed),
                    float((center[1] - prev_center[1]) / elapsed),
                )
            last_seen[oid] = (k, center[:2].copy())
            frame_dets.append(
                Detection(
                    box=Box7(tuple(center), tuple(size), heading),
                    appearance=tuple(appearance),
                    motion=motion,
                    confidence=conf,
                    frame_index=k,
                    detection_id=det_id,
                    class_id=spec.class_id,
                )
            )
            frame_prov.append(oid)
            det_id += 1

        for _ in range(int(fp_counts[k])):
            cx, cy = rng.uniform(-half, half, size=2)
            cls = classes[int(rng.integers(len(classes)))]
            if cls is ClassId.VEHICLE:
                size = (
                    float(rng.uniform(1.6, 2.2)),
                    float(rng.uniform(3.5, 5.5)),
                    float(rng.uniform(1.4, 1.8)),
                )
            else:
                size = (
                    float(rng.uniform(0.5, 1.0)),
                    float(rng.uniform(0.5, 1.0)),
                    float(rng.uniform(1.6, 1.9)),
                )
            heading = normalize_heading(float(rng.uniform(-math.pi, math.pi)))
            sig = rng.standard_normal(d_a)
            sig /= np.linalg.norm(sig)
            conf = float(rng.uniform(0.05, 0.4))
            frame_dets.append(
                Detection(
                    box=Box7((cx, cy, 0.5 * size[2]), size, heading),
                    appearance=tuple(sig),
                    motion=(0.0, 0.0),
                    confidence=conf,
                    frame_index=k,
                    detection_id=det_id,
                    class_id=cls,
                )
            )
            frame_prov.append(FALSE_POSITIVE)
            det_id += 1

        detections.append(detections_table(frame_dets, d_a, 2))
        provenance.append(tuple(frame_prov))

    return Scenario(
        frames=n_frames,
        dt=dt,
        gt_tracks=tuple(gt_tracks),
        detections=tuple(detections),
        provenance=tuple(provenance),
    )


# --- the per-row reader of every file kind ----------------------------------
# `formats` reads rows into checked columns. This is the row-by-row decoding
# it replaced, rewritten to the rules' one order, kept as the reference for
# the values, the frame grouping and order, and the error of the first bad row.

_NUMBERS = frozenset((int, float))
_CLASSES = {c.value: c for c in ClassId}
_BOX_KEYS = ("cx", "cy", "cz", "w", "l", "h", "heading")
_STATE_KEYS = ("px", "py", "vx", "vy", "ax", "ay")
_IDENTS = {"ground_truth": "object_id", "detections": "id", "tracks": "track_id"}


def _floats(values, names) -> list[float]:
    for name, value in zip(names, values):
        if type(value) not in _NUMBERS:
            raise TypeError(f"{name} must be int or float, not {type(value).__name__}")
    return [float(value) for value in values]  # OverflowError past the float range


def _int_field(row: dict, key: str) -> int:
    value = row[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be int, not {type(value).__name__}")
    return value


def _class(row: dict) -> ClassId:
    value = row["class"]
    try:
        return _CLASSES[value]
    except (KeyError, TypeError):
        raise ValueError(f"class must be one of {', '.join(_CLASSES)}, got {value!r}") from None


def _state(row: dict) -> StateVector:
    state = row["state"]
    if type(state) is not dict:
        raise TypeError(f"state must be an object, not {type(state).__name__}")
    v = _floats([state[key] for key in _STATE_KEYS], [f"state.{key}" for key in _STATE_KEYS])
    return StateVector(tuple(v[:2]), tuple(v[2:4]), tuple(v[4:]))


def _features(row: dict, key: str, widths: dict) -> tuple[float, ...]:
    values = row[key]
    if type(values) is not list:
        raise TypeError(f"{key} must be a list, not {type(values).__name__}")
    floats = _floats(values, [f"{key}[{j}]" for j in range(len(values))])
    width = widths.setdefault(key, len(values))  # the first row's, on line 2
    if len(values) != width:
        raise ValueError(f"{key} has {len(values)} values, line 2 has {width}")
    for j, value in enumerate(floats):
        if not math.isfinite(value):
            raise ValueError(f"{key}[{j}] must be finite, got {value!r}")
    return tuple(floats)


def _decode(row: dict, kind: str, widths: dict):
    """A checked row after its frame and id: an `EvalBox` of a ground-truth
    or tracks row; a `(Detection, provenance)` pair of a detections row."""
    keys = _BOX_KEYS if kind == "ground_truth" else (*_BOX_KEYS, "conf")
    raw = [row[key] for key in keys]
    v = _floats(raw, keys)
    if "conf" in keys and not 0 <= v[7] <= 1:
        raise ValueError(f"conf must be in [0, 1], got {row['conf']!r}")
    class_id = _class(row)
    Box7(tuple(raw[:3]), tuple(raw[3:6]), raw[6])  # its checks, naming the raw values
    box = Box7(tuple(v[:3]), tuple(v[3:6]), v[6])
    if kind != "detections":
        return EvalBox(row[_IDENTS[kind]], class_id, box.as_row(), _state(row))
    provenance = _int_field(row, "provenance")
    if provenance < FALSE_POSITIVE:
        raise ValueError(f"provenance must be >= {FALSE_POSITIVE}, got {provenance}")
    features = _features(row, "appearance", widths), _features(row, "motion", widths)
    detection = Detection(box, *features, v[7], row["frame"], row["id"], class_id)
    return detection, provenance


def reference_frames(path, kind: str) -> list[list]:
    """A file's rows decoded one by one (see `_decode`) into per-frame lists,
    in file order within each frame; the first bad row raises `FormatError`
    naming its line."""
    _, frames, rows = formats._open(path, kind)
    ident = _IDENTS[kind]
    out: list[list] = [[] for _ in range(frames)]
    seen: set[tuple[int, int]] = set()
    widths: dict[str, int] = {}
    try:
        for line, row in enumerate(rows, start=2):
            if type(row) is not dict:
                raise TypeError(f"row must be an object, not {type(row).__name__}")
            k = _int_field(row, "frame")
            if not 0 <= k < frames:
                raise ValueError(f"frame {k} outside [0, {frames})")
            key = (k, _int_field(row, ident))
            if key in seen:
                raise ValueError(f"{ident} {key[1]} repeats in frame {k}")
            seen.add(key)
            out[k].append(_decode(row, kind, widths))
    except KeyError as exc:
        raise formats.FormatError(f"{path}:{line}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise formats.FormatError(f"{path}:{line}: {exc}") from None
    return out


def reference_detections(path) -> tuple[tuple, tuple]:
    """A detections file's per-frame detections and per-frame provenance."""
    frames = reference_frames(path, "detections")
    return (
        tuple(tuple(det for det, _ in frame) for frame in frames),
        tuple(tuple(prov for _, prov in frame) for frame in frames),
    )


# --- the reference rows of every file kind ------------------------------------
# `formats` spells rows straight from columns. These are the rows as dicts,
# which `json.dumps(row, sort_keys=True)` spells as the writers must.

_GT_ROW = ("frame", "object_id", "class", *_BOX_KEYS, "state")
_SCORED_KEYS = (*_BOX_KEYS, "conf")
_DETECTION_ROW = ("frame", "id", "class", *_SCORED_KEYS, "appearance", "motion", "provenance")
_TRACK_ROW = ("frame", "track_id", "class", *_SCORED_KEYS, "state")


def scenario_rows(scenario: Scenario) -> tuple[list[dict], list[dict]]:
    """The ground-truth and detections rows of a scene, in file order."""
    gt_rows = [
        dict(zip(_GT_ROW, (
            k, track.object_id, track.class_id.value, *track.boxes[k].tolist(),
            dict(zip(_STATE_KEYS, track.states[k].tolist())),
        )))
        for k in range(scenario.frames)
        for track in scenario.gt_tracks
    ]
    det_rows = [
        dict(zip(_DETECTION_ROW, (k, i, c.value, *box, conf, appearance, motion, prov)))
        for k, (dets, provenance) in enumerate(zip(scenario.detections, scenario.provenance))
        for i, c, box, conf, appearance, motion, prov in zip(
            dets.ids, dets.classes, dets.boxes.tolist(), dets.conf.tolist(),
            dets.appearance.tolist(), dets.motion.tolist(), provenance,
        )
    ]
    return gt_rows, det_rows


def tracker_rows(output) -> list[dict]:
    """The rows of a tracks file of tracker output, in file order."""
    return [
        dict(zip(_TRACK_ROW, (k, tid, c.value, *box, conf, dict(zip(_STATE_KEYS, state)))))
        for k, tracks in enumerate(output.frames)
        for tid, c, box, conf, state in zip(
            tracks.track_ids, tracks.classes, tracks.boxes.tolist(), tracks.conf.tolist(),
            tracks.states.tolist(),
        )
    ]


def write_rows(path, kind: str, config: dict, rows) -> None:
    """A `kind` file of any JSON `rows`, each line `json.dumps(row,
    sort_keys=True)`: how tests write files the typed writers cannot."""
    formats.write_jsonl(
        path, kind, config, [json.dumps(row, sort_keys=True).encode() + b"\n" for row in rows]
    )
