"""Learned tracker network and its joint training.

Four sub-networks share one embedding space: a detection encoder (MLP over
geometry + appearance + motion features), temporal fusion (self-attention
over a track's detection history producing a single track query), a track
state decoder (MLP from query to the previous-frame state), and a
track-detection interaction block (cross-attention from the query to the
current frame's context detections, emitting per-detection association
scores and a current-frame state). The self- and the cross-attention are
one multi-head block, `_attend`.

All positions are encoded relative to the track's last observed position
(the anchor), which makes every output translation-equivariant; decoded
state positions are anchor-relative and the caller adds the anchor back.

Training and inference share one input path and one history form: a
right-aligned block of `t_max` slots, the newest detection in the last
slot, plus a length; the anchor is that slot's box centre (columns 0-1).
`detection_features` turns a `core.Detections` table into encoder rows, and
each detection is featurized once. For training, `extract_examples` builds
one feature table per scene and `Examples` columns that name rows of it,
and `pack_batch` gathers the blocks; the online tracker keeps a bank of
blocks of feature rows (`runtime.SttBackend`). `_history_inputs` is the
only code that drops padded slots: it hands the live rows to `_pad`, which
places groups of rows (a history or a context per track) into the first
slots of padded (B, W, F) arrays with a mask, relative to each group's
anchor; W is the batch's longest group, and `t_max`/`k_max` only bound it.
`pack_batch` (training), `queries_from_histories` and `context_scores`
(tracking) all go through them. `select_context` ranks the detections of a
frame around many positions at once, for training examples and tracking
alike.

This module owns the run config's `stt` and `train` sections: `SttConfig`
and `TrainSettings` are the sections as decoded, and each checks its own
values. `TrainSettings` also holds the optimizer's settings and the
learning-rate schedule (`lr_at`); `autodiff.AdamW` takes the lr per step.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .core import Detections, check_fields
from .sim import FALSE_POSITIVE, Scenario

GEOMETRY_WIDTH = 8  # rel cx, rel cy, w, l, h, sin(heading), cos(heading), conf


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class SttConfig:
    d_q: int = 32
    d_a: int = 16
    d_m: int = 2
    t_max: int = 10
    k_max: int = 20
    context_radius: float = 10.0
    heads: int = 2
    mlp_hidden: int = 64
    gamma: float = 10.0
    lambda_position: float = 1.0
    lambda_velocity: float = 1.0
    lambda_acceleration: float = 10.0
    alpha: float = 1.0
    pooling: str = "mean"  # "mean" | "last"
    state_source: str = "tsd"  # "tsd" | "tdi"

    def __post_init__(self) -> None:
        weights = ("gamma", "lambda_position", "lambda_velocity", "lambda_acceleration", "alpha")
        check_fields(self, (
            *((name, getattr(self, name) >= 1, ">= 1") for name in ("d_q", "d_a", "d_m")),
            ("t_max", self.t_max >= 1, ">= 1"),
            ("k_max", self.k_max >= 1, ">= 1"),
            ("context_radius", 0 < self.context_radius < math.inf, "> 0 and finite"),
            # `and` keeps a heads of 0 out of the modulo
            ("heads", self.heads >= 1 and self.d_q % self.heads == 0,
             f"a divisor of d_q ({self.d_q})"),
            ("mlp_hidden", self.mlp_hidden >= 1, ">= 1"),
            *((name, 0 <= getattr(self, name) < math.inf, ">= 0 and finite") for name in weights),
            ("pooling", self.pooling in ("mean", "last"), "'mean' or 'last'"),
            ("state_source", self.state_source in ("tsd", "tdi"), "'tsd' or 'tdi'"),
        ))

    @property
    def feature_width(self) -> int:
        return GEOMETRY_WIDTH + self.d_a + self.d_m

    @property
    def state_weights(self) -> np.ndarray:
        return np.array(
            [
                self.lambda_position,
                self.lambda_position,
                self.lambda_velocity,
                self.lambda_velocity,
                self.lambda_acceleration,
                self.lambda_acceleration,
            ]
        )


class Examples(NamedTuple):
    """Training examples as columns, row `i` the `i`-th (object, frame t)
    example; detections are rows of the feature table of the training set
    (see `extract_examples`)."""

    history: np.ndarray  # (N, t_max) int rows up to frame t-1, right-aligned, newest last
    hist_len: np.ndarray  # (N,) 1..t_max
    context: np.ndarray  # (N, k_max) int rows at frame t, nearest first
    ctx_len: np.ndarray  # (N,) 1..k_max
    positive: np.ndarray  # (N,) context slot of the object's own detection, or -1
    state_t: np.ndarray  # (N, 6) ground truth [x, y, vx, vy, ax, ay] at t, absolute
    state_prev: np.ndarray  # (N, 6) the same at t-1

    def take(self, index) -> Examples:
        return Examples(*(column[index] for column in self))


# --- parameters --------------------------------------------------------------


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(cfg: SttConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    d, h, f = cfg.d_q, cfg.mlp_hidden, cfg.feature_width

    def param(arr: np.ndarray) -> Tensor:
        return Tensor(arr, requires_grad=True)

    p: dict[str, Tensor] = {}
    p["de.w1"] = param(_xavier(rng, f, h))
    p["de.b1"] = param(np.zeros(h))
    p["de.w2"] = param(_xavier(rng, h, d))
    p["de.b2"] = param(np.zeros(d))

    p["tf.pe"] = param(rng.normal(0.0, 0.02, size=(cfg.t_max, d)))
    for name in ("wq", "wk", "wv", "wo"):
        p[f"tf.{name}"] = param(_xavier(rng, d, d))
    p["tf.ln_g"] = param(np.ones(d))
    p["tf.ln_b"] = param(np.zeros(d))

    p["tsd.w1"] = param(_xavier(rng, d, h))
    p["tsd.b1"] = param(np.zeros(h))
    p["tsd.w2"] = param(_xavier(rng, h, 6))
    p["tsd.b2"] = param(np.zeros(6))

    for name in ("wq", "wk", "wv", "wo"):
        p[f"tdi.{name}"] = param(_xavier(rng, d, d))
    p["tdi.ln_g"] = param(np.ones(d))
    p["tdi.ln_b"] = param(np.zeros(d))
    p["tdi.score_w1"] = param(_xavier(rng, 2 * d, h))
    p["tdi.score_b1"] = param(np.zeros(h))
    p["tdi.score_w2"] = param(_xavier(rng, h, 1))
    p["tdi.score_b2"] = param(np.zeros(1))
    p["tdi.state_w1"] = param(_xavier(rng, d, h))
    p["tdi.state_b1"] = param(np.zeros(h))
    p["tdi.state_w2"] = param(_xavier(rng, h, 6))
    p["tdi.state_b2"] = param(np.zeros(6))
    return p


# --- feature building --------------------------------------------------------


def detection_features(dets: Detections, cfg: SttConfig) -> np.ndarray:
    """(N, F) [geometry, appearance, motion] encoder rows of a detections
    table, one per detection.

    Columns 0-1 hold the absolute box centre; `_pad` makes them relative to
    each group's anchor. Sines and cosines are `math`'s, one heading at a
    time, which keeps them independent of numpy's vector math.
    """
    n = len(dets.ids)
    if not n:
        return np.empty((0, cfg.feature_width))
    for name, field in (("appearance", "d_a"), ("motion", "d_m")):
        width = getattr(dets, name).shape[1]
        if width != getattr(cfg, field):
            raise ValueError(f"{name} width {width} != configured {field} {getattr(cfg, field)}")
    headings = dets.boxes[:, 6].tolist()
    return np.column_stack((
        dets.boxes[:, :2],
        dets.boxes[:, 3:6],
        np.fromiter(map(math.sin, headings), float, n),
        np.fromiter(map(math.cos, headings), float, n),
        dets.conf,
        dets.appearance,
        dets.motion,
    ))


def _pad(
    rows: np.ndarray,
    lengths: np.ndarray,
    anchors: Sequence[tuple[float, float]],
    cfg: SttConfig,
    limit: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Place groups of `detection_features` rows into the first slots of
    (B, W, F), each group's positions relative to its anchor.

    `rows` holds the groups one after another and `lengths` (B,) their sizes.
    W is the longest group; the config field `limit` names ("t_max" or
    "k_max") only bounds it. Returns (features, mask (B, W) bool); padded
    slots are zero.
    """
    width = int(lengths.max()) if len(lengths) else 0
    bound = getattr(cfg, limit)
    if width > bound:
        raise ValueError(f"group of {width} detections exceeds {limit} {bound}")
    mask = np.arange(width) < lengths[:, None]
    feat = np.zeros((len(lengths), width, cfg.feature_width))
    feat[mask] = rows
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    feat[mask, :2] -= np.repeat(anchors, lengths, axis=0)
    return feat, mask


def _history_inputs(
    histories: np.ndarray, lengths: np.ndarray, cfg: SttConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(features, mask, recency one-hots (B, W, t_max), pooling weights
    (B, 1, W)) for histories: (B, t_max, F) blocks of `detection_features`
    rows, each right-aligned with its newest row in the last slot, and their
    (B,) lengths. The other slots are never read.

    Each history is anchored at the box centre of its last slot, and `_pad`
    places it in the first slots in frame order; its j-th of n detections
    takes recency index t_max - n + j in the positional table.
    """
    if len(lengths) and lengths.min() < 1:
        raise ValueError("history must be non-empty")
    n_slots = histories.shape[1]
    live = np.arange(n_slots) >= n_slots - lengths[:, None]
    feat, mask = _pad(histories[live], lengths, histories[:, -1, :2], cfg, "t_max")
    (b, w), t = mask.shape, cfg.t_max
    rows, slots = np.nonzero(mask)
    onehot = np.zeros((b, w, t))
    onehot[rows, slots, t - lengths[rows] + slots] = 1.0
    pool = np.zeros((b, 1, w))
    if cfg.pooling == "mean":
        pool[rows, 0, slots] = 1.0 / lengths[rows]
    else:
        pool[np.arange(b), 0, lengths - 1] = 1.0
    return feat, mask, onehot, pool


@dataclass(slots=True)
class Batch:
    hist_feat: np.ndarray  # (B, T, F), T the longest history
    hist_mask: np.ndarray  # (B, T) bool
    pe_onehot: np.ndarray  # (B, T, t_max) recency one-hots, zero rows at pads
    pool_weights: np.ndarray  # (B, 1, T)
    ctx_feat: np.ndarray  # (B, K, F), K the longest context
    ctx_mask: np.ndarray  # (B, K) bool
    labels: np.ndarray  # (B, K) float
    target_t: np.ndarray  # (B, 6)
    target_prev: np.ndarray  # (B, 6)


def pack_batch(table: np.ndarray, examples: Examples, cfg: SttConfig) -> Batch:
    """Gather examples' rows of their feature `table` into batch arrays;
    each example's anchor is the centre of its last history detection, and
    its state targets are relative to it."""
    histories = table[examples.history]
    anchors = histories[:, -1, :2]
    live = np.arange(examples.context.shape[1]) < examples.ctx_len[:, None]
    ctx_feat, ctx_mask = _pad(
        table[examples.context[live]], examples.ctx_len, anchors, cfg, "k_max"
    )
    labels = np.zeros(ctx_mask.shape)
    (with_positive,) = np.nonzero(examples.positive >= 0)
    labels[with_positive, examples.positive[with_positive]] = 1.0
    target_t, target_prev = examples.state_t.copy(), examples.state_prev.copy()
    target_t[:, :2] -= anchors
    target_prev[:, :2] -= anchors
    return Batch(
        *_history_inputs(histories, examples.hist_len, cfg),
        ctx_feat=ctx_feat,
        ctx_mask=ctx_mask,
        labels=labels,
        target_t=target_t,
        target_prev=target_prev,
    )


# --- network forward ---------------------------------------------------------


def _mlp(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    hidden = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}w1"]), params[f"{prefix}b1"]))
    return ad.add(ad.matmul(hidden, params[f"{prefix}w2"]), params[f"{prefix}b2"])


def encode_batch(params: dict[str, Tensor], feat: Tensor) -> Tensor:
    """Detection encoder over (..., F) feature rows."""
    return _mlp(feat, params, "de.")


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, t, d = x.shape
    return ad.transpose(ad.reshape(x, (b, t, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, hd = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, t, h * hd))


def _attend(
    x: Tensor, kv: Tensor, params: dict[str, Tensor], prefix: str, heads: int,
    key_mask: np.ndarray,
) -> Tensor:
    """Multi-head attention of the rows of `x` (B, Q, D) over the rows of `kv`
    (B, K, D) that `key_mask` (B, K) marks; self-attention when `kv` is `x`."""
    q = _split_heads(ad.matmul(x, params[f"{prefix}wq"]), heads)
    k = _split_heads(ad.matmul(kv, params[f"{prefix}wk"]), heads)
    v = _split_heads(ad.matmul(kv, params[f"{prefix}wv"]), heads)
    att = ad.attention(q, k, v, key_mask=key_mask[:, None, None, :])
    return ad.matmul(_merge_heads(att), params[f"{prefix}wo"])


def temporal_fuse_batch(
    params: dict[str, Tensor],
    cfg: SttConfig,
    hist_emb: Tensor,
    hist_mask: np.ndarray,
    pe_onehot: np.ndarray,
    pool_weights: np.ndarray,
) -> Tensor:
    """Self-attend over a history of embeddings and pool to one query each."""
    pe = ad.matmul(Tensor(pe_onehot), params["tf.pe"])
    x = ad.add(hist_emb, pe)
    att = _attend(x, x, params, "tf.", cfg.heads, hist_mask)
    fused = ad.layer_norm(ad.add(x, att), params["tf.ln_g"], params["tf.ln_b"])
    pooled = ad.matmul(Tensor(pool_weights), fused)  # (B, 1, D)
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[2]))


def decode_state_batch(params: dict[str, Tensor], query: Tensor) -> Tensor:
    return _mlp(query, params, "tsd.")


def tdi_batch(
    params: dict[str, Tensor],
    cfg: SttConfig,
    query: Tensor,
    ctx_emb: Tensor,
    ctx_mask: np.ndarray,
    with_state: bool = True,
) -> tuple[Tensor, Tensor, Tensor | None]:
    """Cross-attend a query to its context; score each slot and decode a state.

    Returns (scores, logits, state): scores are sigmoids zeroed at padded
    slots, logits are raw (for the stable loss), state is (B, 6), or None
    without `with_state`; the state head reads the fused query and feeds
    nothing else.
    """
    b, d = query.shape
    q3 = ad.reshape(query, (b, 1, d))
    att = _attend(q3, ctx_emb, params, "tdi.", cfg.heads, ctx_mask)
    fused3 = ad.layer_norm(ad.add(q3, att), params["tdi.ln_g"], params["tdi.ln_b"])  # (B, 1, D)
    state = _mlp(ad.reshape(fused3, (b, d)), params, "tdi.state_") if with_state else None

    k = ctx_emb.shape[1]
    tiled = ad.add(Tensor(np.zeros((b, k, d))), fused3)  # broadcast query per slot
    pair = ad.concat([ctx_emb, tiled], axis=2)
    logits = _mlp(pair, params, "tdi.score_")
    logits = ad.reshape(logits, (b, k))
    scores = ad.mul(ad.sigmoid(logits), Tensor(ctx_mask.astype(float)))
    return scores, logits, state


def binary_cross_entropy_with_logits(
    logits: Tensor, labels: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Per-example BCE summed over live slots; padded slots contribute zero."""
    y = Tensor(labels)
    bce = ad.sub(ad.softplus(logits), ad.mul(logits, y))
    return ad.sum_(ad.mul(bce, Tensor(mask.astype(float))), axis=1)


def weighted_l1(pred: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    err = ad.abs_(ad.sub(pred, Tensor(target)))
    return ad.sum_(ad.mul(err, Tensor(weights)), axis=1)


def forward_batch(
    params: dict[str, Tensor], cfg: SttConfig, batch: Batch
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """All four sub-networks over a packed batch.

    Returns (scores, logits, state_t, state_prev) as `tdi_batch` and
    `decode_state_batch` give them.
    """
    hist_emb = encode_batch(params, Tensor(batch.hist_feat))
    query = temporal_fuse_batch(
        params, cfg, hist_emb, batch.hist_mask, batch.pe_onehot, batch.pool_weights
    )
    state_prev = decode_state_batch(params, query)
    ctx_emb = encode_batch(params, Tensor(batch.ctx_feat))
    scores, logits, state_t = tdi_batch(params, cfg, query, ctx_emb, batch.ctx_mask)
    return scores, logits, state_t, state_prev


def loss_components_batch(
    params: dict[str, Tensor], cfg: SttConfig, batch: Batch
) -> dict[str, Tensor]:
    """Mean per-example loss terms and their weighted total."""
    _, logits, state_t, state_prev = forward_batch(params, cfg, batch)

    w6 = cfg.state_weights
    loss_d = ad.mean(binary_cross_entropy_with_logits(logits, batch.labels, batch.ctx_mask))
    loss_s_t = ad.mean(weighted_l1(state_t, batch.target_t, w6))
    loss_s_prev = ad.mean(weighted_l1(state_prev, batch.target_prev, w6))
    total = ad.add(
        ad.mul(loss_d, ad.Tensor(cfg.gamma)),
        ad.add(loss_s_t, ad.mul(loss_s_prev, ad.Tensor(cfg.alpha))),
    )
    return {
        "loss_d": loss_d,
        "loss_s_t": loss_s_t,
        "loss_s_prev": loss_s_prev,
        "total": total,
    }


# --- context selection -------------------------------------------------------

# `math.hypot` element-wise: `np.hypot` differs from it by one ulp for about
# one pair in 170, which can reorder detections at nearly equal distances or
# move one across the radius.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def select_context(
    positions: Sequence[tuple[float, float]] | np.ndarray,
    centers: np.ndarray,
    ids: Sequence[int],
    d: float,
    k: int,
) -> list[np.ndarray]:
    """For each of P positions, the indices of the <= k detections whose
    centres lie within distance d of it, nearest first.

    One (P, N) distance matrix ranks every position against the N detection
    `centers` (N, 2) of a frame; equal distances are ordered by the
    detections' `ids`. Distances are `math.hypot`'s: `np.hypot` computes the
    matrix, and a row where two distances lie within 2 ulps of each other, or
    one within an ulp of `d`, is recomputed with `math.hypot`.
    """
    if d <= 0 or k < 1:
        raise ValueError("need d > 0 and k >= 1")
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    dx = positions[:, 0, None] - centers[:, 0]
    dy = positions[:, 1, None] - centers[:, 1]
    dist = np.hypot(dx, dy)
    ranked = np.sort(dist, axis=1)
    near = (np.diff(ranked, axis=1) <= 2 * np.spacing(ranked[:, 1:])).any(axis=1)
    near |= (np.abs(dist - d) <= np.spacing(dist)).any(axis=1)
    for i in np.flatnonzero(near):
        dist[i] = _hypot(dx[i], dy[i])
    order = np.lexsort((np.broadcast_to(np.asarray(ids), dist.shape), dist))
    counts = np.minimum((dist < d).sum(axis=1), k)
    return [row[:n] for row, n in zip(order, counts.tolist())]


# --- dataset extraction ------------------------------------------------------


def extract_examples(
    scenario: Scenario, cfg: SttConfig, first_row: int = 0
) -> tuple[np.ndarray, Examples]:
    """Build supervised examples from simulator provenance.

    Returns (table, examples). The (N, F) `detection_features` table holds
    every detection of the scene, frame after frame; examples name their
    detections by table row plus `first_row`, so that the tables of several
    scenes stack. One example per (object, frame) where the object has at
    least one prior associated detection and a non-empty context: the
    history is its last <= t_max detections before frame t, the context is
    selected around the ground-truth state at t, and `positive` marks the
    object's own detection when present.
    """
    frames = scenario.detections
    table = np.concatenate([
        np.empty((0, cfg.feature_width)), *(detection_features(frame, cfg) for frame in frames)
    ])
    starts = np.cumsum([0] + [len(frame.ids) for frame in frames]).tolist()

    per_object: dict[int, list[tuple[int, int]]] = {}  # oid -> [(frame, row)]
    for t, prov in enumerate(scenario.provenance):
        for row, oid in enumerate(prov, start=starts[t]):
            if oid != FALSE_POSITIVE:
                per_object.setdefault(oid, []).append((t, row))

    # contexts[t][i]: frame-t context of gt track i, as rows of the table
    contexts = [
        [
            starts[t] + cols
            for cols in select_context(
                [track.states[t, :2] for track in scenario.gt_tracks],
                table[starts[t] : starts[t + 1], :2],
                frames[t].ids,
                cfg.context_radius,
                cfg.k_max,
            )
        ]
        for t in range(scenario.frames)
    ]

    # per example: its history and context rows, its own detection's row
    # (-1 if missed) and its ground-truth states at t and t-1
    histories, context, own, states = [], [], [], []
    for i, track in enumerate(scenario.gt_tracks):
        obs = per_object.get(track.object_id, [])
        if not obs:
            continue
        obs_frames = [frame for frame, _ in obs]
        obs_rows = [row for _, row in obs]
        ptr = 0  # number of observations strictly before frame t
        for t in range(obs_frames[0] + 1, scenario.frames):
            while ptr < len(obs) and obs_frames[ptr] < t:
                ptr += 1
            if not len(contexts[t][i]):
                continue
            histories.append(obs_rows[max(0, ptr - cfg.t_max) : ptr])
            context.append(contexts[t][i])
            own.append(obs_rows[ptr] if ptr < len(obs) and obs_frames[ptr] == t else -1)
            states.append(track.states[t - 1 : t + 1])

    n, t_max, k_max = len(own), cfg.t_max, cfg.k_max
    hist_len = np.fromiter(map(len, histories), int, n)
    ctx_len = np.fromiter(map(len, context), int, n)
    history = np.zeros((n, t_max), dtype=int)
    history[np.arange(t_max) >= t_max - hist_len[:, None]] = list(chain.from_iterable(histories))
    live = np.arange(k_max) < ctx_len[:, None]
    ctx = np.zeros((n, k_max), dtype=int)
    ctx[live] = np.concatenate([np.empty(0, dtype=int), *context])
    hits = live & (ctx == np.array(own, dtype=int)[:, None])
    positive = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    state = np.array(states).reshape(n, 2, 6)
    return table, Examples(
        history + first_row, hist_len, ctx + first_row, ctx_len, positive, state[:, 1], state[:, 0]
    )


# --- training ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrainSettings:
    """Training settings; also the run config's `train` section."""

    steps: int = 2000
    batch_size: int = 64
    log_every: int = 50
    learning_rate: float = 1e-4
    weight_decay: float = 0.03
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    warmup_steps: int = 100
    final_lr_fraction: float = 0.5
    max_examples: int = 40000
    train_scenarios: int = 24

    def __post_init__(self) -> None:
        check_fields(self, (
            ("steps", self.steps >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("log_every", self.log_every >= 1, ">= 1"),
            ("learning_rate", 0 < self.learning_rate < math.inf, "> 0 and finite"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, ">= 0 and finite"),
            ("beta1", 0 < self.beta1 < 1, "in (0, 1)"),
            ("beta2", 0 < self.beta2 < 1, "in (0, 1)"),
            ("epsilon", 0 < self.epsilon < math.inf, "> 0 and finite"),
            ("warmup_steps", self.warmup_steps >= 0, ">= 0"),
            ("final_lr_fraction", 0 < self.final_lr_fraction <= 1, "in (0, 1]"),
            ("max_examples", self.max_examples >= 1, ">= 1"),
            ("train_scenarios", self.train_scenarios >= 1, ">= 1"),
        ))

    def lr_at(self, step: int) -> float:
        """Linear warmup over `warmup_steps`, then linear decay to
        `final_lr_fraction * learning_rate` at `steps`."""
        lr = self.learning_rate
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return lr * step / self.warmup_steps
        if self.steps > self.warmup_steps:
            frac = (step - self.warmup_steps) / (self.steps - self.warmup_steps)
            frac = min(max(frac, 0.0), 1.0)
            return lr * (1.0 - (1.0 - self.final_lr_fraction) * frac)
        return lr


def train(
    table: np.ndarray,
    examples: Examples,
    cfg: SttConfig,
    settings: TrainSettings,
    seed: int,
) -> tuple[dict[str, Tensor], list[dict[str, float]]]:
    """Train on a fixed example set whose rows index `table`; deterministic
    for a fixed seed."""
    n = len(examples.positive)
    if not n:
        raise ValueError("training requires a non-empty dataset")
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=int(rng.integers(2**31)))
    opt = AdamW(
        params,
        weight_decay=settings.weight_decay,
        beta1=settings.beta1,
        beta2=settings.beta2,
        epsilon=settings.epsilon,
    )
    log: list[dict[str, float]] = []
    for step in range(1, settings.steps + 1):
        idx = rng.integers(0, n, size=min(settings.batch_size, n))
        batch = pack_batch(table, examples.take(idx), cfg)
        losses = loss_components_batch(params, cfg, batch)
        total = losses["total"]
        if not math.isfinite(total.item()):
            raise TrainingDivergedError(f"non-finite loss at step {step}")
        total.backward()
        lr = settings.lr_at(step)
        opt.step(step, lr)
        if step % settings.log_every == 0 or step == 1 or step == settings.steps:
            log.append(
                {
                    "step": step,
                    "lr": lr,
                    "loss_d": losses["loss_d"].item(),
                    "loss_s_t": losses["loss_s_t"].item(),
                    "loss_s_prev": losses["loss_s_prev"].item(),
                    "total": total.item(),
                }
            )
    return params, log


def write_training_log(path, log: list[dict[str, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(
            f, fieldnames=["step", "lr", "loss_d", "loss_s_t", "loss_s_prev", "total"]
        )
        writer.writeheader()
        writer.writerows(log)


# --- batched inference (used by the online tracker) ---------------------------


def queries_from_histories(
    params: dict[str, Tensor],
    cfg: SttConfig,
    histories: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Track queries for a batch of 1..t_max-long detection histories, given
    as `_history_inputs` takes them."""
    feat, mask, onehot, pool = _history_inputs(histories, lengths, cfg)
    with ad.no_grad():
        emb = encode_batch(params, Tensor(feat))
        query = temporal_fuse_batch(params, cfg, emb, mask, onehot, pool)
    return query.data


def context_scores(
    params: dict[str, Tensor],
    cfg: SttConfig,
    queries: np.ndarray,
    rows: np.ndarray,
    lengths: Sequence[int],
    anchors: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Association scores and current-frame states for a batch of tracks
    whose contexts are given as `_pad` takes them.

    Returns (scores (B, W), states (B, 6) anchor-relative), W the longest
    context; the states only under `state_source` "tdi", else None, as
    tracking reads them only then. Every context must hold 1..k_max
    detections; padded slots score exactly zero.
    """
    lengths = np.asarray(lengths, dtype=int)
    if len(lengths) and lengths.min() < 1:
        raise ValueError("context must be non-empty")
    feat, mask = _pad(rows, lengths, anchors, cfg, "k_max")
    with ad.no_grad():
        ctx_emb = encode_batch(params, Tensor(feat))
        scores, _, states = tdi_batch(
            params, cfg, Tensor(np.asarray(queries)), ctx_emb, mask,
            with_state=cfg.state_source == "tdi",
        )
    return scores.data, None if states is None else states.data


def decode_states(params: dict[str, Tensor], queries: np.ndarray) -> np.ndarray:
    """Anchor-relative states for a batch of queries."""
    with ad.no_grad():
        return decode_state_batch(params, Tensor(np.asarray(queries))).data
