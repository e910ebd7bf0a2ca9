"""Shared online tracking loop.

One loop serves both backends: each frame, the backend produces a gated
track-by-detection cost matrix, the assignment solver resolves it, each
matched detection updates its track, unmatched tracks accumulate misses
until deletion, and unmatched detections spawn new tracks with zero initial
velocity and acceleration. Backends only differ in how they cost pairs and
estimate states, so lifecycle behavior is identical across them.

Detections and output stay columns throughout. `Tracker.step` takes a
frame's `core.Detections` table, keeps the rows at or above
`min_confidence` in id order as one index, and backends read boxes,
centres and ids from the kept table. Backends return their states as
`(n, 6)` arrays, and each step returns its frame's output as one
`FrameTracks`: track ids, classes, boxes, confidences and states.

Each piece of track state has one owner. The `Tracker` owns the lifecycle
as two columns, written only by `Tracker.step`: `track_ids`, the live ids
in ascending order, and `misses`, the frames each has missed since its last
match. Track ids only grow, so row `i` of every backend array is the track
`track_ids[i]`. Each backend owns every per-track value it reads:
`KalmanBackend.bank` holds the filters and `boxes` each track's last box;
`SttBackend.states` and `frames` hold the state and frame of each track's
last match, and `queries` and `history` its query and history block.
Backends take the solver's indices: `update_matched` its `(row, col)` pairs,
`create_tracks` the columns of new tracks' detections, whose rows it
appends, and `forget` the rows of the tracks the tracker deleted.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import assign
from .core import ClassId, Detections, bev_iou_matrix, check_fields, extrapolate
from .kalman import KfParams, KfState, init_state, predict, update
from .model import (
    SttConfig,
    context_scores,
    decode_states,
    detection_features,
    queries_from_histories,
    select_context,
)


class DuplicateDetectionError(ValueError):
    pass


def _check_finite(frame_index: int, what: str, values: np.ndarray) -> None:
    """Raise ValueError naming the frame and the first non-finite value."""
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)][0])
        raise ValueError(f"frame {frame_index}: non-finite {what}: {bad!r}")


@dataclass(frozen=True, slots=True)
class LifecycleConfig:
    creation_score_threshold: float = 0.5
    max_misses: int = 3
    min_confidence: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self, (
            ("creation_score_threshold", 0 <= self.creation_score_threshold <= 1, "in [0, 1]"),
            ("max_misses", self.max_misses >= 0, ">= 0"),
            ("min_confidence", 0 <= self.min_confidence <= 1, "in [0, 1]"),
        ))


class FrameTracks(NamedTuple):
    """One frame's tracker output as columns, one row per track matched or
    created in the frame, in track-id order: its id, its detection's class,
    box row and confidence, and its state estimate."""

    track_ids: list[int]
    classes: list[ClassId]
    boxes: np.ndarray  # (n, 7)
    conf: np.ndarray  # (n,)
    states: np.ndarray  # (n, 6) [x, y, vx, vy, ax, ay]


@dataclass(slots=True)
class TrackerOutput:
    frames: list[FrameTracks] = field(default_factory=list)
    frame_seconds: list[float] = field(default_factory=list)


class KalmanBackend:
    """IoU-gated association with one constant-acceleration filter per track.

    The filters form one bank: a stacked `KfState` with an `(N, 6)` mean and
    an `(N, 6, 6)` covariance, row `i` the filter of the tracker's `i`-th
    live track, and `boxes` row `i` the box of that track's last match.
    `create_tracks` appends rows and `forget` drops them. Each frame runs one
    stacked `predict` over the bank and one stacked `update` over the rows of
    the matched tracks.
    """

    def __init__(self, params: KfParams, dt: float):
        self.params = params
        self.dt = dt
        self.bank = init_state(np.empty((0, 2)), params)
        self.boxes = np.empty((0, 7))

    def frame_costs(self, frame_index: int, dets: Detections) -> np.ndarray:
        self.bank = predict(self.bank, self.dt, self.params)
        boxes = self.boxes.copy()
        boxes[:, :2] = self.bank.mean[:, :2]  # each box at its filter's predicted center
        iou = bev_iou_matrix(boxes, dets.boxes)
        return np.where(iou > self.params.iou_gate, 1.0 - iou, assign.FORBIDDEN)

    def update_matched(
        self, frame_index: int, pairs: list[tuple[int, int]], dets: Detections
    ) -> np.ndarray:
        if not pairs:
            return np.empty((0, 6))
        rows, cols = map(list, zip(*pairs))
        matched = update(
            KfState(self.bank.mean[rows], self.bank.covariance[rows]),
            dets.boxes[cols, :2],
            self.params,
        )
        self.bank.mean[rows] = matched.mean
        self.bank.covariance[rows] = matched.covariance
        self.boxes[rows] = dets.boxes[cols]
        return matched.mean

    def create_tracks(self, frame_index: int, cols: list[int], dets: Detections) -> np.ndarray:
        if not cols:
            return np.empty((0, 6))
        boxes = dets.boxes[cols]
        new = init_state(boxes[:, :2], self.params)
        self.bank = KfState(
            np.concatenate([self.bank.mean, new.mean]),
            np.concatenate([self.bank.covariance, new.covariance]),
        )
        self.boxes = np.concatenate([self.boxes, boxes])
        return new.mean

    def forget(self, rows: list[int]) -> None:
        self.bank = KfState(
            np.delete(self.bank.mean, rows, axis=0),
            np.delete(self.bank.covariance, rows, axis=0),
        )
        self.boxes = np.delete(self.boxes, rows, axis=0)


class SttBackend:
    """Learned association: per-track context scoring with stored queries.

    `frame_costs` featurizes the frame's detections once; those rows serve
    the frame's context scoring, the matched tracks' new queries and the new
    tracks. The histories form a bank like `KalmanBackend.bank`: row `i` of
    `history` (N, t_max, F) holds the `detection_features` rows of the
    tracker's `i`-th live track's last `history_len[i]` matches, right-aligned
    (newest last, zeros before), and row `i` of `queries` (N, d_q) their
    fused encoding; the track's anchor is `history[i, -1, :2]`. Row `i` of
    `states` (N, 6) is the state that track's last match emitted, and
    `frames[i]` that match's frame: context selection extrapolates from them.

    A non-finite association score or track query raises ValueError naming
    the frame. Unchecked, a NaN score forbids its pair without an error, and
    every detection starts a track of its own.
    """

    def __init__(
        self,
        params: dict,
        cfg: SttConfig,
        lifecycle: LifecycleConfig,
        dt: float,
    ):
        self.params = params
        self.cfg = cfg
        self.lifecycle = lifecycle
        self.dt = dt
        self.queries = np.empty((0, cfg.d_q))
        self.history = np.empty((0, cfg.t_max, cfg.feature_width))
        self.history_len = np.empty(0, dtype=int)
        self.states = np.empty((0, 6))
        self.frames = np.empty(0, dtype=int)
        self._tdi_states = np.empty((0, 6))  # association-pass states, NaN where unscored
        self._frame_index: int | None = None
        self._frame_rows = np.empty((0, cfg.feature_width))

    def _rows(self, frame_index: int, cols: list[int]) -> np.ndarray:
        """The feature rows of the detections at `cols` of the frame
        `frame_costs` featurized last."""
        if frame_index != self._frame_index:
            raise ValueError(
                f"frame {frame_index}: frame_costs ran last for frame {self._frame_index}"
            )
        return self._frame_rows[cols]

    def frame_costs(self, frame_index: int, dets: Detections) -> np.ndarray:
        self._frame_index = frame_index
        self._frame_rows = detection_features(dets, self.cfg)
        n_tracks = len(self.frames)
        costs = np.full((n_tracks, len(dets.ids)), assign.FORBIDDEN)
        self._tdi_states = np.full((n_tracks, 6), np.nan)
        if not n_tracks or not dets.ids:
            return costs
        elapsed = (frame_index - self.frames) * self.dt
        contexts = select_context(
            extrapolate(self.states, elapsed)[:, :2],
            self._frame_rows[:, :2],
            dets.ids,
            self.cfg.context_radius,
            self.cfg.k_max,
        )
        live_rows = [i for i, context in enumerate(contexts) if len(context)]
        if not live_rows:
            return costs
        lengths = [len(contexts[i]) for i in live_rows]
        cols = np.concatenate([contexts[i] for i in live_rows])
        anchors = self.history[live_rows, -1, :2]
        scores, states = context_scores(
            self.params, self.cfg, self.queries[live_rows], self._frame_rows[cols],
            lengths, anchors,
        )
        if self.cfg.state_source == "tdi":
            states[:, :2] += anchors
            self._tdi_states[live_rows] = states
        # scores of live slots, in the order of `cols`
        slot_scores = scores[np.arange(scores.shape[1]) < np.array(lengths)[:, None]]
        _check_finite(frame_index, "association score", slot_scores)
        rows = np.repeat(live_rows, lengths)
        keep = slot_scores >= self.lifecycle.creation_score_threshold
        costs[rows[keep], cols[keep]] = 1.0 - slot_scores[keep]
        return costs

    def update_matched(
        self, frame_index: int, pairs: list[tuple[int, int]], dets: Detections
    ) -> np.ndarray:
        if not pairs:
            return np.empty((0, 6))
        track_rows = [r for r, _ in pairs]
        new_rows = self._rows(frame_index, [c for _, c in pairs])
        # each matched block shifts left one slot and takes its new row last
        histories = np.concatenate([self.history[track_rows, 1:], new_rows[:, None]], axis=1)
        lengths = np.minimum(self.history_len[track_rows] + 1, self.cfg.t_max)
        self.history[track_rows] = histories
        self.history_len[track_rows] = lengths
        queries = queries_from_histories(self.params, self.cfg, histories, lengths)
        _check_finite(frame_index, "track query", queries)
        self.queries[track_rows] = queries
        if self.cfg.state_source == "tsd":
            states = decode_states(self.params, queries)
            states[:, :2] += new_rows[:, :2]  # each match's anchor: its detection's centre
        else:
            # tdi: the state predicted during the association pass. Only a
            # track with a scored context has a cost below FORBIDDEN, so
            # every matched track has one.
            states = self._tdi_states[track_rows]
        self.states[track_rows] = states
        self.frames[track_rows] = frame_index
        return states

    def create_tracks(self, frame_index: int, cols: list[int], dets: Detections) -> np.ndarray:
        if not cols:
            return np.empty((0, 6))
        histories = np.zeros((len(cols), self.cfg.t_max, self.cfg.feature_width))
        histories[:, -1] = self._rows(frame_index, cols)
        lengths = np.ones(len(cols), dtype=int)
        queries = queries_from_histories(self.params, self.cfg, histories, lengths)
        _check_finite(frame_index, "track query", queries)
        self.queries = np.concatenate([self.queries, queries])
        self.history = np.concatenate([self.history, histories])
        self.history_len = np.concatenate([self.history_len, lengths])
        states = np.zeros((len(cols), 6))  # at rest at the detections' centres
        states[:, :2] = dets.boxes[cols, :2]
        self.states = np.concatenate([self.states, states])
        self.frames = np.concatenate([self.frames, np.full(len(cols), frame_index)])
        return states

    def forget(self, rows: list[int]) -> None:
        self.queries = np.delete(self.queries, rows, axis=0)
        self.history = np.delete(self.history, rows, axis=0)
        self.history_len = np.delete(self.history_len, rows)
        self.states = np.delete(self.states, rows, axis=0)
        self.frames = np.delete(self.frames, rows)


class Tracker:
    """Frame-by-frame tracking state machine over a pluggable backend; the
    only writer of its lifecycle columns `track_ids` and `misses`."""

    def __init__(self, backend, lifecycle: LifecycleConfig):
        self.backend = backend
        self.lifecycle = lifecycle
        self.track_ids = np.empty(0, dtype=int)  # (N,) live ids, ascending
        self.misses = np.empty(0, dtype=int)  # (N,) frames missed since the last match
        self.next_track_id = 1
        self.last_frame = -1

    def step(self, frame_index: int, detections: Detections) -> FrameTracks:
        if frame_index <= self.last_frame:
            raise ValueError(
                f"frame indices must be monotone: {frame_index} after {self.last_frame}"
            )
        self.last_frame = frame_index
        ids = detections.ids
        if len(set(ids)) != len(ids):
            raise DuplicateDetectionError(
                f"duplicate detection ids in frame {frame_index}"
            )
        kept = np.flatnonzero(detections.conf >= self.lifecycle.min_confidence).tolist()
        dets = detections.take(sorted(kept, key=ids.__getitem__))

        costs = self.backend.frame_costs(frame_index, dets)
        if costs.shape != (len(self.track_ids), len(dets.ids)):
            raise ValueError(
                f"frame {frame_index}: costs of shape {costs.shape} for"
                f" {len(self.track_ids)} tracks and {len(dets.ids)} detections"
            )
        pairs = assign.solve(costs)
        rows, cols = [r for r, _ in pairs], [c for _, c in pairs]

        estimates = self.backend.update_matched(frame_index, pairs, dets)
        _check_finite(frame_index, "state component", estimates)
        track_ids = self.track_ids[rows].tolist()

        self.misses += 1
        self.misses[rows] = 0
        dead = np.flatnonzero(self.misses > self.lifecycle.max_misses)
        if len(dead):
            self.track_ids = np.delete(self.track_ids, dead)
            self.misses = np.delete(self.misses, dead)
            self.backend.forget(dead.tolist())

        matched_cols = set(cols)
        new_cols = [c for c in range(len(dets.ids)) if c not in matched_cols]
        created = self.backend.create_tracks(frame_index, new_cols, dets)
        new_ids = np.arange(self.next_track_id, self.next_track_id + len(new_cols))
        self.next_track_id += len(new_cols)
        self.track_ids = np.concatenate([self.track_ids, new_ids])
        self.misses = np.concatenate([self.misses, np.zeros(len(new_cols), dtype=int)])
        # rows in track-id order: pairs come sorted by row, and every new id
        # is larger than the live ones
        cols += new_cols
        return FrameTracks(
            track_ids + new_ids.tolist(), [dets.classes[c] for c in cols], dets.boxes[cols],
            dets.conf[cols], np.concatenate([estimates, created]),
        )


def run_sequence(
    detections: Sequence[Detections], backend, lifecycle: LifecycleConfig
) -> TrackerOutput:
    """Track a whole sequence of per-frame detections tables; deterministic,
    with per-frame wall time."""
    tracker = Tracker(backend, lifecycle)
    output = TrackerOutput()
    for frame_index, frame_dets in enumerate(detections):
        start = time.perf_counter()
        rows = tracker.step(frame_index, frame_dets)
        output.frame_seconds.append(time.perf_counter() - start)
        output.frames.append(rows)
    return output
