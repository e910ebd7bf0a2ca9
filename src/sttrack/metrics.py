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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, get_args

import numpy as np

from . import assign
from .core import Box7, ClassId, StateVector, bev_iou_matrix, check_fields, to_plain
from .sim import SpeedThresholds, speed_class

STATE_TYPES = ("position", "velocity", "acceleration")
GatedState = Literal["velocity", "acceleration"]
GATED_STATES = get_args(GatedState)
BUCKETS = ("static", "slow", "fast")

INF = math.inf


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
    """One prediction or label row inside a frame."""

    ident: int
    class_id: ClassId
    box: Box7
    state: StateVector


def state_error(a: StateVector, b: StateVector, state: str) -> float:
    pa, pb = getattr(a, state), getattr(b, state)
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


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

    def add_frame(self, labels: list[EvalBox], preds: list[EvalBox]) -> None:
        self.gt_total += len(labels)
        n_l, n_p = len(labels), len(preds)
        if n_l == 0 and n_p == 0:
            return
        iou = bev_iou_matrix([l.box for l in labels], [p.box for p in preds])
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
            label_states = {
                s: np.array([getattr(l.state, s) for l in labels])
                for s in finite_gates
            }
            pred_states = {
                s: np.array([getattr(p.state, s) for p in preds])
                for s in finite_gates
            }
            for s in finite_gates:
                diff = label_states[s][:, None, :] - pred_states[s][None, :, :]
                err = np.hypot(diff[..., 0], diff[..., 1])
                feas_gated &= err < self.policy.state_threshold(self.class_id, s)

        matches = self._match_variant(self.mota, labels, preds, iou, feas_iou)
        self._match_variant(self.smota, labels, preds, iou, feas_gated)

        thresholds = self.policy.speed_thresholds
        for li, pi in matches:
            label, pred = labels[li], preds[pi]
            bucket = speed_class(label.state.speed, self.class_id, thresholds)
            for s in STATE_TYPES:
                err = state_error(pred.state, label.state, s)
                for key in (bucket, "all"):
                    self.err_sum[s][key] += err
                    self.err_count[s][key] += 1
                if s in GATED_STATES and err > self.policy.alpha(self.class_id, s):
                    self.exceed[s] += 1

    def _match_variant(
        self,
        variant: _VariantState,
        labels: list[EvalBox],
        preds: list[EvalBox],
        iou: np.ndarray,
        feasible: np.ndarray,
    ) -> list[tuple[int, int]]:
        matches: list[tuple[int, int]] = []
        open_labels: list[int] = []
        used_preds: set[int] = set()
        col_of = (
            {p.ident: j for j, p in enumerate(preds)} if self.policy.persistence else {}
        )
        for li, label in enumerate(labels):
            pj = col_of.get(variant.corr.get(label.ident))
            if pj is not None and pj not in used_preds and feasible[li, pj]:
                matches.append((li, pj))
                used_preds.add(pj)
            else:
                open_labels.append(li)
        open_preds = [pj for pj in range(len(preds)) if pj not in used_preds]
        if open_labels and open_preds:
            cells = np.ix_(open_labels, open_preds)
            sub = np.where(feasible[cells], 1.0 - iou[cells], assign.FORBIDDEN)
            for a, b in assign.solve(sub):
                matches.append((open_labels[a], open_preds[b]))
        matches.sort()

        variant.matches += len(matches)
        variant.miss += len(labels) - len(matches)
        variant.fp += len(preds) - len(matches)
        for li, pi in matches:
            gt_id = labels[li].ident
            tid = preds[pi].ident
            prev = variant.corr.get(gt_id)
            if prev is not None and prev != tid:
                variant.mismatch += 1
            variant.corr[gt_id] = tid
        return matches


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
        label_frames: list[list[EvalBox]],
        pred_frames: list[list[EvalBox]],
    ) -> None:
        if len(label_frames) != len(pred_frames):
            raise ValueError(
                f"label/prediction frame counts differ: "
                f"{len(label_frames)} vs {len(pred_frames)}"
            )
        classes = {b.class_id for frame in label_frames for b in frame}
        classes |= {b.class_id for frame in pred_frames for b in frame}
        for class_id in sorted(classes, key=lambda c: c.value):
            acc = self._acc(class_id)
            acc.reset_sequence()
            for labels, preds in zip(label_frames, pred_frames):
                acc.add_frame(
                    [b for b in labels if b.class_id is class_id],
                    [b for b in preds if b.class_id is class_id],
                )

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
