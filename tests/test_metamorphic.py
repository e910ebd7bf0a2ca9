"""Metamorphic checks on one 60-frame default vehicle scene: transforms of
the input that must leave the tracker's output or the metrics report as
they are."""

import dataclasses

import numpy as np
import pytest

from oracles import tracker_rows
from sttrack import cli
from sttrack.config import RunConfig
from sttrack.metrics import EvalTable, Evaluator
from sttrack.model import init_params
from sttrack.runtime import KalmanBackend, SttBackend, run_sequence

CFG = RunConfig()
CFG = dataclasses.replace(CFG, sim=dataclasses.replace(CFG.sim, frames=60))
SCENE = cli.build_scenario(CFG, 0)


def track(kind, detections):
    if kind == "kalman":
        backend = KalmanBackend(CFG.kf, SCENE.dt)
    else:  # an untrained STT
        backend = SttBackend(init_params(CFG.stt, seed=0), CFG.stt, CFG.lifecycle, SCENE.dt)
    return run_sequence(detections, backend, CFG.lifecycle)


def label_table(ids: dict[int, int]) -> EvalTable:
    """The scene's ground truth as an evaluation table, each object's id
    replaced by `ids[object_id]`."""
    tracks = SCENE.gt_tracks
    return EvalTable(
        np.arange(SCENE.frames + 1) * len(tracks),
        [ids[t.object_id] for t in tracks] * SCENE.frames,
        [t.class_id for t in tracks] * SCENE.frames,
        np.stack([t.boxes for t in tracks], axis=1).reshape(-1, 7),
        np.stack([t.states for t in tracks], axis=1).reshape(-1, 6),
    )


def pred_table(output) -> EvalTable:
    frames = output.frames
    return EvalTable(
        np.cumsum([0, *(len(f.track_ids) for f in frames)]),
        [tid for f in frames for tid in f.track_ids],
        [c for f in frames for c in f.classes],
        np.concatenate([f.boxes for f in frames]),
        np.concatenate([f.states for f in frames]),
    )


def report(labels: EvalTable, preds: EvalTable) -> dict:
    evaluator = Evaluator()
    evaluator.add_sequence(labels, preds)
    return evaluator.report()


@pytest.mark.parametrize("kind", ["kalman", "stt"])
def test_permuting_each_frames_detection_rows_leaves_the_tracks_unchanged(kind):
    rng = np.random.default_rng(0)
    shuffled = [dets.take(rng.permutation(len(dets.ids)).tolist()) for dets in SCENE.detections]
    assert sum(s.ids != d.ids for s, d in zip(shuffled, SCENE.detections)) > SCENE.frames // 2
    want = tracker_rows(track(kind, SCENE.detections))
    assert len(want) > 10 * SCENE.frames
    assert tracker_rows(track(kind, shuffled)) == want


def test_relabelling_ground_truth_ids_leaves_the_report_unchanged():
    rng = np.random.default_rng(1)
    object_ids = [t.object_id for t in SCENE.gt_tracks]
    relabelled = dict(zip(object_ids, rng.choice(2**40, len(object_ids), replace=False).tolist()))
    assert all(relabelled[oid] != oid for oid in object_ids)
    preds = pred_table(track("kalman", SCENE.detections))
    want = report(label_table({oid: oid for oid in object_ids}), preds)
    assert want["classes"]  # a report with rows to compare
    assert report(label_table(relabelled), preds) == want
