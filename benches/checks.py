"""Correctness checks made apart from sttrack's own code paths.

Each check returns a list of failure messages; an empty list is a pass.
The files a round wrote are parsed here with `json`, not with sttrack's
readers, and every expected value is computed from the scenario itself,
from `scipy`, or from a property the method must have. No check compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from sttrack import assign, formats
from sttrack.metrics import Evaluator
from sttrack.core import StateVector

BOX_KEYS = ("cx", "cy", "cz", "w", "l", "h", "heading")


def _rows(path: Path) -> list[dict]:
    with open(path) as f:
        lines = f.read().splitlines()
    return [json.loads(line) for line in lines[1:]]


def _by_frame(rows: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for row in rows:
        out.setdefault(row["frame"], []).append(row)
    return out


def _names(data_dir: Path) -> list[str]:
    return sorted(p.name[: -len(".det.jsonl")] for p in data_dir.glob("*.det.jsonl"))


def tracker_property(data_dir: Path, tracks_dir: Path, frames: int, min_confidence: float) -> list[str]:
    """Per frame: one row per detection at or above `min_confidence`, each
    row's box is one of that frame's detection boxes, and IDs are unique."""
    failures = []
    for name in _names(data_dir):
        dets = _by_frame(_rows(data_dir / f"{name}.det.jsonl"))
        tracks = _by_frame(_rows(tracks_dir / f"{name}.tracks.jsonl"))
        for k in range(frames):
            kept = [d for d in dets.get(k, []) if d["conf"] >= min_confidence]
            rows = tracks.get(k, [])
            boxes = {tuple(d[key] for key in BOX_KEYS) for d in kept}
            ids = [r["track_id"] for r in rows]
            if len(rows) != len(kept):
                failures.append(f"{name} frame {k}: {len(rows)} rows for {len(kept)} detections")
            elif any(tuple(r[key] for key in BOX_KEYS) not in boxes for r in rows):
                failures.append(f"{name} frame {k}: a row's box is not a detection box")
            elif len(set(ids)) != len(ids):
                failures.append(f"{name} frame {k}: duplicate track ids")
    return failures


# Stands in for forbidden (infinite) costs in the scipy reference.
PENALTY = 1e6


class SolveRecorder:
    """Keeps every (cost, result) pair of `assign.solve`, per caller.

    Callers are told apart by the calling function: `Tracker.step` when
    tracking, `_ClassAccumulator._match_variant` when evaluating. It is used
    only in the untimed check pass, after peak memory has been read, so the
    copies it holds count neither in the timings nor in `peak_rss_mb`.
    """

    def __init__(self):
        self.records: dict[str, list] = {}
        self._original = assign.solve

    def __enter__(self):
        original, records = self._original, self.records

        def solve(cost):
            result = original(cost)
            caller = sys._getframe(1).f_code.co_name
            records.setdefault(caller, []).append((np.array(cost, dtype=float), list(result)))
            return result

        assign.solve = solve
        return self

    def __exit__(self, *exc):
        assign.solve = self._original


def assignments(records: dict[str, list]) -> list[str]:
    """Same cardinality and total cost as scipy's linear_sum_assignment with
    forbidden entries replaced by a large penalty and penalised pairs dropped."""
    from scipy.optimize import linear_sum_assignment

    failures = []
    for caller, kept in records.items():
        for index, (cost, pairs) in enumerate(kept):
            if cost.size == 0:
                if pairs:
                    failures.append(f"{caller} #{index}: pairs from an empty matrix")
                continue
            finite = np.isfinite(cost)
            rows, cols = linear_sum_assignment(np.where(finite, cost, PENALTY))
            ref = [(r, c) for r, c in zip(rows, cols) if finite[r, c]]
            ref_cost = sum(cost[r, c] for r, c in ref)
            got_cost = sum(cost[r, c] for r, c in pairs)
            if len(pairs) != len(ref):
                failures.append(f"{caller} #{index}: {len(pairs)} pairs, scipy {len(ref)}")
            elif not math.isclose(got_cost, ref_cost, rel_tol=1e-9, abs_tol=1e-9):
                failures.append(f"{caller} #{index}: cost {got_cost!r}, scipy {ref_cost!r}")
    if not any(records.values()):
        failures.append("no assign.solve call was recorded")
    return failures


def metrics_oracle(data_dir: Path, policy) -> list[str]:
    """Ground truth fed back as predictions scores perfectly; with velocities
    zeroed, the stateful gate must cost S-MOTA but not MOTA."""
    failures = []
    name = _names(data_dir)[0]
    _, labels = formats.read_label_frames(data_dir / f"{name}.gt.jsonl")
    perfect = Evaluator(policy)
    perfect.add_sequence(labels, labels)
    for cls, row in perfect.report()["classes"].items():
        if row["mota"] != 1.0 or row["s_mota"] != 1.0:
            failures.append(f"{cls}: ground truth scores MOTA {row['mota']}, S-MOTA {row['s_mota']}")
        for state, buckets in row["motp"].items():
            if any(v not in (None, 0.0) for v in buckets.values()):
                failures.append(f"{cls}: ground truth has MOTP_{state} {buckets}")

    def still(box):
        s = box.state
        return dataclasses.replace(box, state=StateVector(s.position, (0.0, 0.0), s.acceleration))

    frozen = [[still(b) for b in frame] for frame in labels]
    moving = Evaluator(policy)
    moving.add_sequence(labels, frozen)
    for cls, row in moving.report()["classes"].items():
        if not row["s_mota"] < row["mota"]:
            failures.append(
                f"{cls}: zeroed velocities give S-MOTA {row['s_mota']} >= MOTA {row['mota']}"
            )
    return failures


def _gt_by_object(path: Path) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for row in _rows(path):
        out.setdefault(row["object_id"], []).append(row)
    for rows in out.values():
        rows.sort(key=lambda r: r["frame"])
    return out


def kalman_static(data_dir: Path, report: dict, class_name: str, static_max: float) -> list[str]:
    """On static objects the filter's position MOTP is below the mean raw
    detection-centre error computed from the scenario."""
    errors = []
    for name in _names(data_dir):
        gt = _gt_by_object(data_dir / f"{name}.gt.jsonl")
        static = {
            oid for oid, rows in gt.items()
            if all(math.hypot(r["state"]["vx"], r["state"]["vy"]) < static_max for r in rows)
        }
        for det in _rows(data_dir / f"{name}.det.jsonl"):
            if det["provenance"] in static:
                truth = gt[det["provenance"]][det["frame"]]
                errors.append(math.hypot(det["cx"] - truth["cx"], det["cy"] - truth["cy"]))
    motp = report["classes"][class_name]["motp"]["position"]["static"]
    if not errors or motp is None:
        return ["no static object was detected and matched"]
    raw = sum(errors) / len(errors)
    return [] if motp < raw else [f"static position MOTP {motp} >= raw detection error {raw}"]


def simulator_velocities(data_dir: Path, dt: float) -> list[str]:
    """Forward differences of ground-truth positions match the ground-truth
    velocity to within dt times the largest acceleration over the step."""
    failures = []
    for name in _names(data_dir):
        for oid, rows in _gt_by_object(data_dir / f"{name}.gt.jsonl").items():
            for a, b in zip(rows, rows[1:]):
                sa, sb = a["state"], b["state"]
                fd = ((sb["px"] - sa["px"]) / dt, (sb["py"] - sa["py"]) / dt)
                err = math.hypot(fd[0] - sa["vx"], fd[1] - sa["vy"])
                accel = max(math.hypot(sa["ax"], sa["ay"]), math.hypot(sb["ax"], sb["ay"]))
                if err > dt * accel + 1e-9:
                    failures.append(
                        f"{name} object {oid} frame {a['frame']}: velocity off by {err:.3g}"
                    )
                    break
    return failures


def training_loss(model_dir: Path) -> list[str]:
    """The last logged training loss is below the first."""
    with open(model_dir / "training_log.csv", newline="") as f:
        totals = [float(row["total"]) for row in csv.DictReader(f)]
    if len(totals) < 2 or not totals[-1] < totals[0]:
        return [f"training loss did not fall: {totals}"]
    return []
