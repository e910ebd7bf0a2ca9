"""Shared online tracking loop.

One loop serves both backends: each frame, the backend produces a gated
track-by-detection cost matrix, the assignment solver resolves it, each
matched detection becomes its track's last, unmatched tracks accumulate
misses until deletion, and unmatched detections spawn new tracks with zero
initial velocity and acceleration. Backends only differ in how they cost
pairs and estimate states, so lifecycle behavior is identical across them.

Each piece of track state has one owner. The `Tracker` owns the lifecycle:
one mutable `Track` per live id with its last matched detection, the frame
and state of its last match and its misses, written only by `Tracker.step`.
The estimators' own state lives in the backends: `KalmanBackend.bank` holds
the filters, and `SttBackend.queries` and `SttBackend.history_rows` the track
queries and the feature rows of each track's history, all keyed by track id
and dropped by `forget` when the tracker deletes a track.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import assign
from .core import (
    Box7,
    ClassId,
    Detection,
    StateVector,
    bev_iou_matrix,
    check_fields,
    extrapolate,
)
from .kalman import KfParams, KfState, init_state, predict, predicted_box, update
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


@dataclass(slots=True)
class Track:
    """A live track: its last matched detection, the frame and state
    estimate of that match, and the frames missed since."""

    track_id: int
    last: Detection
    frame: int
    state: StateVector
    misses: int = 0


@dataclass(frozen=True, slots=True)
class TrackerRow:
    frame: int
    track_id: int
    class_id: ClassId
    box: Box7
    state: StateVector
    confidence: float


@dataclass(slots=True)
class TrackerOutput:
    frames: list[list[TrackerRow]] = field(default_factory=list)
    frame_seconds: list[float] = field(default_factory=list)


class KalmanBackend:
    """IoU-gated association with one constant-acceleration filter per track.

    The filters form one bank: a stacked `KfState` with an `(N, 6)` mean and
    an `(N, 6, 6)` covariance, one row per live track in track-id order, and
    `track_ids` naming the rows. Track ids only grow, so `create_tracks`
    appends rows and the order stays the `Tracker`'s sorted `active` order;
    `forget` drops rows. Each frame runs one stacked `predict` over the bank
    and one stacked `update` over the rows of the matched tracks.
    """

    def __init__(self, params: KfParams, dt: float):
        self.params = params
        self.dt = dt
        self.bank = init_state(np.empty((0, 2)), params)
        self.track_ids: list[int] = []

    def frame_costs(
        self, frame_index: int, tracks: list[Track], dets: list[Detection]
    ) -> np.ndarray:
        ids = [track.track_id for track in tracks]
        if ids != self.track_ids:
            raise ValueError(
                f"tracks {ids} differ from the filter bank's {self.track_ids}"
            )
        self.bank = predict(self.bank, self.dt, self.params)
        iou = bev_iou_matrix(
            [
                predicted_box(mean, track.last.box)
                for mean, track in zip(self.bank.mean.tolist(), tracks)
            ],
            [det.box for det in dets],
        )
        return np.where(iou > self.params.iou_gate, 1.0 - iou, assign.FORBIDDEN)

    def update_matched(
        self, frame_index: int, pairs: list[tuple[Track, Detection]]
    ) -> list[StateVector]:
        if not pairs:
            return []
        row_of = {tid: row for row, tid in enumerate(self.track_ids)}
        rows = [row_of[track.track_id] for track, _ in pairs]
        matched = update(
            KfState(self.bank.mean[rows], self.bank.covariance[rows]),
            [det.box.center_xy for _, det in pairs],
            self.params,
        )
        self.bank.mean[rows] = matched.mean
        self.bank.covariance[rows] = matched.covariance
        return matched.state_vectors()

    def create_tracks(
        self, frame_index: int, track_ids: list[int], dets: list[Detection]
    ) -> list[StateVector]:
        if not dets:
            return []
        new = init_state([det.box.center_xy for det in dets], self.params)
        self.bank = KfState(
            np.concatenate([self.bank.mean, new.mean]),
            np.concatenate([self.bank.covariance, new.covariance]),
        )
        self.track_ids.extend(track_ids)
        return new.state_vectors()

    def forget(self, track_ids: list[int]) -> None:
        keep = np.isin(self.track_ids, track_ids, invert=True)
        self.bank = KfState(self.bank.mean[keep], self.bank.covariance[keep])
        self.track_ids = [tid for tid, k in zip(self.track_ids, keep) if k]


class SttBackend:
    """Learned association: per-track context scoring with stored queries.

    `frame_costs` featurizes the frame's detections once; those rows serve
    the frame's context scoring, the matched tracks' new queries and the new
    tracks. Per live track id the backend keeps `history_rows`, the
    `detection_features` rows of the track's last <= `t_max` matched
    detections in frame order, and `queries`, the fused encoding of those
    rows; `create_tracks` and `update_matched` set both and `forget` drops
    them. A track's anchor is its last row's box centre, columns 0-1.
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
        self.queries: dict[int, np.ndarray] = {}
        self.history_rows: dict[int, np.ndarray] = {}
        self._tdi_states: dict[int, StateVector] = {}
        self._frame_index: int | None = None
        self._frame_rows = np.empty((0, cfg.feature_width))
        self._row_of: dict[int, int] = {}  # detection id -> row of _frame_rows

    def _rows(self, frame_index: int, dets: list[Detection]) -> np.ndarray:
        """The feature rows of `dets`, detections of the frame `frame_costs`
        featurized last."""
        if frame_index != self._frame_index:
            raise ValueError(
                f"frame {frame_index}: frame_costs ran last for frame {self._frame_index}"
            )
        return self._frame_rows[[self._row_of[det.detection_id] for det in dets]]

    def frame_costs(
        self, frame_index: int, tracks: list[Track], dets: list[Detection]
    ) -> np.ndarray:
        self._frame_index = frame_index
        self._frame_rows = detection_features(dets, self.cfg)
        self._row_of = {det.detection_id: j for j, det in enumerate(dets)}
        costs = np.full((len(tracks), len(dets)), assign.FORBIDDEN)
        self._tdi_states = {}
        if not tracks or not dets:
            return costs
        track_states = np.array([
            (*track.state.position, *track.state.velocity, *track.state.acceleration)
            for track in tracks
        ])
        elapsed = (frame_index - np.array([track.frame for track in tracks])) * self.dt
        contexts = select_context(
            extrapolate(track_states, elapsed)[:, :2],
            self._frame_rows[:, :2],
            [det.detection_id for det in dets],
            self.cfg.context_radius,
            self.cfg.k_max,
        )
        live_rows = [i for i, context in enumerate(contexts) if len(context)]
        if not live_rows:
            return costs
        lengths = [len(contexts[i]) for i in live_rows]
        cols = np.concatenate([contexts[i] for i in live_rows])
        ids = [tracks[i].track_id for i in live_rows]
        anchors = np.stack([self.history_rows[tid][-1, :2] for tid in ids])
        queries = np.stack([self.queries[tid] for tid in ids])
        scores, states = context_scores(
            self.params, self.cfg, queries, self._frame_rows[cols], lengths, anchors
        )
        if self.cfg.state_source == "tdi":
            states[:, :2] += anchors
            self._tdi_states = dict(zip(ids, StateVector.from_rows(states)))
        # scores of live slots, in the order of `cols`
        slot_scores = scores[np.arange(scores.shape[1]) < np.array(lengths)[:, None]]
        rows = np.repeat(live_rows, lengths)
        keep = slot_scores >= self.lifecycle.creation_score_threshold
        costs[rows[keep], cols[keep]] = 1.0 - slot_scores[keep]
        return costs

    def update_matched(
        self, frame_index: int, pairs: list[tuple[Track, Detection]]
    ) -> list[StateVector]:
        if not pairs:
            return []
        new_rows = self._rows(frame_index, [det for _, det in pairs])
        # One gather from the held histories and the new rows, stacked, builds
        # every new history: each track's last t_max - 1 held rows, which end
        # where its held rows end, and then its new row.
        held = [self.history_rows[track.track_id] for track, _ in pairs]
        n_held = np.array([len(rows) for rows in held])
        lengths = np.minimum(n_held, self.cfg.t_max - 1) + 1
        ends = np.cumsum(lengths)
        index = np.arange(ends[-1]) + np.repeat(np.cumsum(n_held) - ends + 1, lengths)
        index[ends - 1] = n_held.sum() + np.arange(len(pairs))
        rows = np.concatenate([*held, new_rows])[index]
        queries = queries_from_histories(self.params, self.cfg, rows, lengths)
        starts = (ends - lengths).tolist()
        for (track, _), query, lo, hi in zip(pairs, queries, starts, ends.tolist()):
            self.queries[track.track_id] = query
            self.history_rows[track.track_id] = rows[lo:hi]
        if self.cfg.state_source == "tsd":
            states = decode_states(self.params, queries)
            states[:, :2] += new_rows[:, :2]  # each match's anchor: its detection's centre
            return StateVector.from_rows(states)
        # tdi: the state predicted during the association pass; a track matched
        # without a scored context falls back to the detection center
        return [
            self._tdi_states.get(track.track_id)
            or StateVector.zero(det.box.center_xy)
            for track, det in pairs
        ]

    def create_tracks(
        self, frame_index: int, track_ids: list[int], dets: list[Detection]
    ) -> list[StateVector]:
        if not dets:
            return []
        rows = self._rows(frame_index, dets)
        queries = queries_from_histories(self.params, self.cfg, rows, [1] * len(dets))
        self.queries.update(zip(track_ids, queries))
        self.history_rows.update(zip(track_ids, rows[:, None]))
        return [StateVector.zero(det.box.center_xy) for det in dets]

    def forget(self, track_ids: list[int]) -> None:
        for tid in track_ids:
            del self.queries[tid]
            del self.history_rows[tid]


class Tracker:
    """Frame-by-frame tracking state machine over a pluggable backend; the
    only writer of its `Track`s."""

    def __init__(self, backend, lifecycle: LifecycleConfig):
        self.backend = backend
        self.lifecycle = lifecycle
        self.tracks: dict[int, Track] = {}
        self.next_track_id = 1
        self.last_frame = -1

    def step(self, frame_index: int, detections: list[Detection]) -> list[TrackerRow]:
        if frame_index <= self.last_frame:
            raise ValueError(
                f"frame indices must be monotone: {frame_index} after {self.last_frame}"
            )
        self.last_frame = frame_index
        ids = [d.detection_id for d in detections]
        if len(set(ids)) != len(ids):
            raise DuplicateDetectionError(
                f"duplicate detection ids in frame {frame_index}"
            )
        dets = sorted(
            (d for d in detections if d.confidence >= self.lifecycle.min_confidence),
            key=lambda d: d.detection_id,
        )
        active = [self.tracks[tid] for tid in sorted(self.tracks)]

        costs = self.backend.frame_costs(frame_index, active, dets)
        pairs = assign.solve(costs)
        matched_rows = {r for r, _ in pairs}
        matched_cols = {c for _, c in pairs}

        rows: list[TrackerRow] = []
        matched = [(active[r], dets[c]) for r, c in pairs]
        estimates = self.backend.update_matched(frame_index, matched)
        for (track, det), state in zip(matched, estimates):
            track.last = det
            track.frame = frame_index
            track.state = state
            track.misses = 0
            rows.append(
                TrackerRow(
                    frame_index, track.track_id, det.class_id, det.box, state,
                    det.confidence,
                )
            )

        dead: list[int] = []
        for r, track in enumerate(active):
            if r in matched_rows:
                continue
            track.misses += 1
            if track.misses > self.lifecycle.max_misses:
                dead.append(track.track_id)
                del self.tracks[track.track_id]
        if dead:
            self.backend.forget(dead)

        new_dets = [dets[c] for c in range(len(dets)) if c not in matched_cols]
        new_ids = list(
            range(self.next_track_id, self.next_track_id + len(new_dets))
        )
        self.next_track_id += len(new_dets)
        created = self.backend.create_tracks(frame_index, new_ids, new_dets)
        for tid, det, state in zip(new_ids, new_dets, created):
            self.tracks[tid] = Track(tid, det, frame_index, state)
            rows.append(
                TrackerRow(frame_index, tid, det.class_id, det.box, state,
                           det.confidence)
            )
        rows.sort(key=lambda row: row.track_id)
        return rows


def run_sequence(
    detections: Sequence[Sequence[Detection]], backend, lifecycle: LifecycleConfig
) -> TrackerOutput:
    """Track a whole sequence of per-frame detections; deterministic, with
    per-frame wall time."""
    tracker = Tracker(backend, lifecycle)
    output = TrackerOutput()
    for frame_index, frame_dets in enumerate(detections):
        start = time.perf_counter()
        rows = tracker.step(frame_index, list(frame_dets))
        output.frame_seconds.append(time.perf_counter() - start)
        output.frames.append(rows)
    return output
