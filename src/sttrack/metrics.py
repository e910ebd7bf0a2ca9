"""CLEAR-MOT evaluation with stateful extensions.

Matching per frame and class: a prediction-label pair is feasible when its
BEV IoU clears the class threshold and, under a stateful policy, every gated
state error (velocity, acceleration) stays strictly below its class/state
threshold. Surviving correspondences from the previous frame are kept first
(when persistence is on), then the remainder is matched by the assignment
solver on 1 - IoU.

The aggregate accuracy is reported twice from the same inputs: once with
state gates disabled (MOTA) and once with the policy's gates (S-MOTA). The
per-state precision tables (mean L2 error by ground-truth speed bucket, and
the count of matches whose error exceeds alpha_s) are computed over the
MOTA matches.

A sequence's labels and predictions are each an `EvalTable`: ids, classes,
(N, 7) box rows and (N, 6) state rows, grouped by frame with offsets, as the
readers in `formats` fill it from whole columns. `Evaluator.add_sequence`
also takes per-frame `EvalBox` lists and converts them to tables, and a
table hands out its frames as such lists: that path serves the benchmark's
`benches/checks.py::metrics_oracle`, which edits the states of ground-truth
rows and evaluates them against the rows as read.

MOTA and S-MOTA each keep their own correspondences from frame to frame. A
state gate can reject the pair that MOTA matches in one frame and steer
S-MOTA to the pair that later frames keep; S-MOTA then counts fewer
mismatches than MOTA and can score higher, so raising one state error can
raise S-MOTA.

The IoUs come from one batched pass per sequence and class: each frame is
gated as `core.bev_iou_matrix` gates it, and the sequence's gated pairs are
clipped by `core.bev_iou_pairs`, `_CHUNK_PAIRS` at a time so that its working
arrays stay small, then scattered into per-frame matrices bit-equal to
`bev_iou_matrix`'s. A sequence has 10-20k gated pairs, where the batched
clip takes less than half the time of the scalar `core.bev_iou` that the
online tracker keeps for its few dozen pairs a frame (see `core`). Each
frame's rows of one class then reach `_ClassAccumulator.add_frame` as array
slices with the frame's IoU matrix: the state gates run on them as they
are, and only the matched pairs' state errors are computed one by one, in
`math.hypot`, so that the MOTP sums add the same floats in the same order as
per-row code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, NamedTuple, get_args

import numpy as np

from . import assign
from .core import (
    ClassId,
    StateVector,
    bev_iou_pairs,
    check_fields,
    circumradii,
    gated_pairs,
    to_plain,
)
from .sim import SpeedThresholds, speed_class

STATE_TYPES = ("position", "velocity", "acceleration")
GatedState = Literal["velocity", "acceleration"]
GATED_STATES = get_args(GatedState)
BUCKETS = ("static", "slow", "fast")

INF = math.inf
# Gated pairs per `bev_iou_pairs` call: bounds the clip's working arrays.
_CHUNK_PAIRS = 2048
# The first of each state's two columns in a (n, 6) state array.
_STATE_COLUMNS = {"position": 0, "velocity": 2, "acceleration": 4}


def _default_iou_thresholds() -> dict[ClassId, float]:
    return {ClassId.VEHICLE: 0.7, ClassId.PEDESTRIAN: 0.5}


def _default_state_thresholds() -> dict[ClassId, dict[GatedState, float]]:
    return {
        ClassId.VEHICLE: {"velocity": 1.0, "acceleration": 1.0},
        ClassId.PEDESTRIAN: {"velocity": 0.5, "acceleration": 0.5},
    }


@dataclass(frozen=True)
class MatchingPolicy:
    iou_threshold: dict[ClassId, float] = field(default_factory=_default_iou_thresholds)
    state_thresholds: dict[ClassId, dict[GatedState, float]] = field(
        default_factory=_default_state_thresholds
    )
    alpha_s: dict[ClassId, dict[GatedState, float]] | None = None  # None: reuse thresholds
    persistence: bool = True
    speed_thresholds: SpeedThresholds = field(default_factory=SpeedThresholds)

    def __post_init__(self) -> None:
        gates = [gate for per in self.state_thresholds.values() for gate in per.items()]
        check_fields(self, (
            ("iou_threshold", all(0 < v <= 1 for v in self.iou_threshold.values()),
             "in (0, 1] for every class"),
            ("state_thresholds", all(s in GATED_STATES and v > 0 for s, v in gates),
             "> 0 for every class and gated state ('velocity', 'acceleration')"),
        ))

    def mota_only(self) -> "MatchingPolicy":
        """This policy with every stateful gate disabled: plain MOTA."""
        return replace(
            self,
            state_thresholds={
                cls: {state: INF for state in per}
                for cls, per in self.state_thresholds.items()
            },
        )

    def state_threshold(self, class_id: ClassId, state: str) -> float:
        return self.state_thresholds.get(class_id, {}).get(state, INF)

    def alpha(self, class_id: ClassId, state: str) -> float:
        if self.alpha_s is not None:
            return self.alpha_s.get(class_id, {}).get(state, INF)
        return self.state_threshold(class_id, state)


@dataclass(frozen=True, slots=True)
class EvalBox:
    """One prediction or label row inside a frame; `box` is a 7-value
    `(cx, cy, cz, w, l, h, heading)` row."""

    ident: int
    class_id: ClassId
    box: tuple[float, ...]
    state: StateVector


class FrameRows(NamedTuple):
    """One frame's rows of one class, as `_ClassAccumulator.add_frame` takes
    them."""

    ids: list[int]
    boxes: np.ndarray  # (n, 7) box rows
    states: np.ndarray  # (n, 6) [x, y, vx, vy, ax, ay] rows


@dataclass(frozen=True, eq=False)
class EvalTable:
    """The label or prediction rows of one sequence, grouped by frame.

    Row `i` has id `ids[i]` (a Python int: ids may reach 2**64 - 1), class
    `classes[i]`, box `boxes[i]` and state `states[i]`; frame `k` holds rows
    `offsets[k]` to `offsets[k + 1]`, in the order its file or list gave
    them. Iterating a table, or indexing it by frame, gives each frame's rows
    as `EvalBox`es.
    """

    offsets: np.ndarray  # (frames + 1,) ints
    ids: list[int]
    classes: list[ClassId]
    boxes: np.ndarray  # (N, 7) float64
    states: np.ndarray  # (N, 6) float64

    @classmethod
    def of(cls, frames: "EvalTable | list[list[EvalBox]]") -> "EvalTable":
        """`frames` as a table: a table as it is, per-frame `EvalBox` lists
        converted."""
        if isinstance(frames, EvalTable):
            return frames
        rows = [b for frame in frames for b in frame]
        return cls(
            np.cumsum([0, *map(len, frames)]),
            [b.ident for b in rows],
            [b.class_id for b in rows],
            np.array([b.box for b in rows], dtype=float).reshape(-1, 7),
            np.array(
                [(*b.state.position, *b.state.velocity, *b.state.acceleration) for b in rows],
                dtype=float,
            ).reshape(-1, 6),
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> list[EvalBox]:
        k = range(len(self))[k]  # a negative frame counts from the end
        a, b = self.offsets[k], self.offsets[k + 1]
        return list(
            map(
                EvalBox,
                self.ids[a:b],
                self.classes[a:b],
                map(tuple, self.boxes[a:b].tolist()),
                StateVector.from_rows(self.states[a:b]),
            )
        )

    def of_class(self, class_id: ClassId) -> "EvalTable":
        """The rows of one class, grouped by the same frames."""
        keep = np.array([c is class_id for c in self.classes], dtype=bool)
        if keep.all():
            return self
        rows = np.flatnonzero(keep).tolist()
        return EvalTable(
            np.concatenate(([0], np.cumsum(keep)))[self.offsets],
            [self.ids[i] for i in rows],
            [class_id] * len(rows),
            self.boxes[keep],
            self.states[keep],
        )

    def rows(self, k: int) -> FrameRows:
        """Frame `k`'s rows as array slices."""
        a, b = self.offsets[k], self.offsets[k + 1]
        return FrameRows(self.ids[a:b], self.boxes[a:b], self.states[a:b])


class _VariantState:
    """Counters plus per-sequence correspondence for one gating variant.

    `corr` maps each label id to the prediction id it was last matched to in
    the current sequence: persistence keeps it, and a change is a mismatch.
    """

    __slots__ = ("fp", "miss", "mismatch", "matches", "corr")

    def __init__(self) -> None:
        self.fp = 0
        self.miss = 0
        self.mismatch = 0
        self.matches = 0
        self.corr: dict[int, int] = {}

    def reset_sequence(self) -> None:
        self.corr = {}


class _ClassAccumulator:
    def __init__(self, class_id: ClassId, policy: MatchingPolicy):
        self.class_id = class_id
        self.policy = policy
        self.gt_total = 0
        self.mota = _VariantState()
        self.smota = _VariantState()
        # MOTP sums over MOTA matches: per state, per bucket
        self.err_sum = {s: {b: 0.0 for b in (*BUCKETS, "all")} for s in STATE_TYPES}
        self.err_count = {s: {b: 0 for b in (*BUCKETS, "all")} for s in STATE_TYPES}
        self.exceed = {s: 0 for s in GATED_STATES}

    def reset_sequence(self) -> None:
        self.mota.reset_sequence()
        self.smota.reset_sequence()

    def add_frame(self, labels: FrameRows, preds: FrameRows, iou: np.ndarray) -> None:
        """Match one frame, `iou` its (labels, preds) BEV IoU matrix."""
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

    def _match_variant(
        self,
        variant: _VariantState,
        label_ids: list[int],
        pred_ids: list[int],
        iou: np.ndarray,
        feasible: np.ndarray,
    ) -> list[tuple[int, int]]:
        matches: list[tuple[int, int]] = []
        open_labels: list[int] = []
        used_preds: set[int] = set()
        col_of = {tid: j for j, tid in enumerate(pred_ids)} if self.policy.persistence else {}
        for li, gt_id in enumerate(label_ids):
            pj = col_of.get(variant.corr.get(gt_id))
            if pj is not None and pj not in used_preds and feasible[li, pj]:
                matches.append((li, pj))
                used_preds.add(pj)
            else:
                open_labels.append(li)
        open_preds = [pj for pj in range(len(pred_ids)) if pj not in used_preds]
        if open_labels and open_preds:
            cells = np.ix_(open_labels, open_preds)
            sub = np.where(feasible[cells], 1.0 - iou[cells], assign.FORBIDDEN)
            for a, b in assign.solve(sub):
                matches.append((open_labels[a], open_preds[b]))
        matches.sort()

        variant.matches += len(matches)
        variant.miss += len(label_ids) - len(matches)
        variant.fp += len(pred_ids) - len(matches)
        for li, pi in matches:
            gt_id = label_ids[li]
            tid = pred_ids[pi]
            prev = variant.corr.get(gt_id)
            if prev is not None and prev != tid:
                variant.mismatch += 1
            variant.corr[gt_id] = tid
        return matches


def _frame_ious(labels: EvalTable, preds: EvalTable) -> list[np.ndarray]:
    """Each frame's (labels, preds) BEV IoU matrix, equal to `bev_iou_matrix`
    of its rows: the circumcircle gate per frame, then the sequence's gated
    pairs clipped by `bev_iou_pairs`, `_CHUNK_PAIRS` at a time."""
    radii_l, radii_p = circumradii(labels.boxes), circumradii(preds.boxes)
    lo, po = labels.offsets.tolist(), preds.offsets.tolist()
    frames, gated, rows, cols = [], [], [], []
    for a, b, c, d in zip(lo, lo[1:], po, po[1:]):
        iou = np.zeros((b - a, d - c))
        frames.append(iou)
        i, j = gated_pairs(labels.boxes[a:b], radii_l[a:b], preds.boxes[c:d], radii_p[c:d])
        if not len(i):
            continue
        gated.append((iou, i, j))
        rows.append(i + a)
        cols.append(j + c)
    if not gated:
        return frames
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    chunks = (slice(s, s + _CHUNK_PAIRS) for s in range(0, len(rows), _CHUNK_PAIRS))
    values = np.concatenate(
        [bev_iou_pairs(labels.boxes[rows[c]], preds.boxes[cols[c]]) for c in chunks]
    )
    start = 0
    for iou, i, j in gated:
        iou[i, j] = values[start : start + len(i)]
        start += len(i)
    return frames


class Evaluator:
    """Accumulates CLEAR counts across sequences; ratios computed at the end."""

    def __init__(self, policy: MatchingPolicy | None = None):
        self.policy = policy or MatchingPolicy()
        self._classes: dict[ClassId, _ClassAccumulator] = {}

    def _acc(self, class_id: ClassId) -> _ClassAccumulator:
        if class_id not in self._classes:
            self._classes[class_id] = _ClassAccumulator(class_id, self.policy)
        return self._classes[class_id]

    def add_sequence(
        self,
        label_frames: EvalTable | list[list[EvalBox]],
        pred_frames: EvalTable | list[list[EvalBox]],
    ) -> None:
        labels, preds = EvalTable.of(label_frames), EvalTable.of(pred_frames)
        if len(labels) != len(preds):
            raise ValueError(
                f"label/prediction frame counts differ: "
                f"{len(labels)} vs {len(preds)}"
            )
        for class_id in sorted({*labels.classes, *preds.classes}, key=lambda c: c.value):
            acc = self._acc(class_id)
            acc.reset_sequence()
            class_labels, class_preds = labels.of_class(class_id), preds.of_class(class_id)
            ious = _frame_ious(class_labels, class_preds)
            for k, iou in enumerate(ious):
                acc.add_frame(class_labels.rows(k), class_preds.rows(k), iou)

    def report(self) -> dict:
        classes = {}
        for class_id in sorted(self._classes, key=lambda c: c.value):
            acc = self._classes[class_id]
            n = acc.gt_total

            def ratio(count: int) -> float | None:
                return None if n == 0 else count / n

            def accuracy(v: _VariantState) -> float | None:
                if n == 0:
                    return None
                return 1.0 - (v.fp + v.miss + v.mismatch) / n

            motp = {}
            for s in STATE_TYPES:
                motp[s] = {
                    b: (
                        acc.err_sum[s][b] / acc.err_count[s][b]
                        if acc.err_count[s][b]
                        else None
                    )
                    for b in (*BUCKETS, "all")
                }
            classes[class_id.value] = {
                "gt_total": n,
                "matches": acc.mota.matches,
                "fp": acc.mota.fp,
                "miss": acc.mota.miss,
                "mismatch": acc.mota.mismatch,
                "mota": accuracy(acc.mota),
                "s_mota": accuracy(acc.smota),
                "s_mota_components": {
                    "fp": acc.smota.fp,
                    "miss": acc.smota.miss,
                    "mismatch": acc.smota.mismatch,
                    "matches": acc.smota.matches,
                },
                "fp_pct": ratio(acc.mota.fp),
                "miss_pct": ratio(acc.mota.miss),
                "mismatch_pct": ratio(acc.mota.mismatch),
                "motp_position": motp["position"]["all"],
                "motp": motp,
                "motp_counts": {
                    s: acc.exceed[s] for s in GATED_STATES
                },
                "alpha_s": {
                    s: (
                        "inf"
                        if math.isinf(acc.policy.alpha(class_id, s))
                        else acc.policy.alpha(class_id, s)
                    )
                    for s in GATED_STATES
                },
            }
        return {"policy": to_plain(self.policy), "classes": classes}


def format_report(report: dict) -> str:
    """Human-readable table for one report."""

    def fmt(value, width=8, digits=3):
        if value is None:
            return " " * (width - 1) + "-"
        return f"{value:>{width}.{digits}f}"

    lines = []
    persistence = report["policy"]["persistence"]
    lines.append(f"matching: {'persistent' if persistence else 'per-frame'} CLEAR")
    for cls, row in report["classes"].items():
        lines.append(f"[{cls}]  GT={row['gt_total']}  matches={row['matches']}")
        lines.append(
            f"  MOTA {fmt(row['mota'])}  S-MOTA {fmt(row['s_mota'])}  "
            f"FP% {fmt(_pct(row['fp_pct']))}  Miss% {fmt(_pct(row['miss_pct']))}  "
            f"MM% {fmt(_pct(row['mismatch_pct']))}"
        )
        lines.append(f"  MOTP_position {fmt(row['motp_position'])}")
        for s in GATED_STATES:
            buckets = row["motp"][s]
            lines.append(
                f"  MOTP_{s:<13} static {fmt(buckets['static'])} slow"
                f" {fmt(buckets['slow'])} fast {fmt(buckets['fast'])} all"
                f" {fmt(buckets['all'])}   |>{row['alpha_s'][s]}|"
                f" = {row['motp_counts'][s]}"
            )
    return "\n".join(lines)


def _pct(value: float | None) -> float | None:
    return None if value is None else 100.0 * value


def report_csv_rows(report: dict) -> list[dict]:
    """Flat rows for machine-readable export."""
    rows = []
    for cls, row in report["classes"].items():
        flat = {
            "class": cls,
            "gt_total": row["gt_total"],
            "matches": row["matches"],
            "fp": row["fp"],
            "miss": row["miss"],
            "mismatch": row["mismatch"],
            "mota": row["mota"],
            "s_mota": row["s_mota"],
            "motp_position": row["motp_position"],
        }
        for s in GATED_STATES:
            for bucket in (*BUCKETS, "all"):
                flat[f"motp_{s}_{bucket}"] = row["motp"][s][bucket]
            flat[f"motp_{s}_count"] = row["motp_counts"][s]
        rows.append(flat)
    return rows
