"""Metamorphic checks on one 60-frame default vehicle scene: transforms of
the input that must leave the tracker's output or the metrics report as
they are, or change the report in a known way."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import tracker_rows
from sttrack import cli, formats
from sttrack.config import RunConfig, resolved_dict
from sttrack.core import normalize_heading
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


def label_table(ids: dict[int, int] | None = None, scene=SCENE) -> EvalTable:
    """A scene's ground truth as an evaluation table, each object's id
    replaced by `ids[object_id]` when `ids` is given."""
    tracks = scene.gt_tracks
    ids = ids or {t.object_id: t.object_id for t in tracks}
    return EvalTable(
        np.arange(scene.frames + 1) * len(tracks),
        [ids[t.object_id] for t in tracks] * scene.frames,
        [t.class_id for t in tracks] * scene.frames,
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


def moved_scene(point, vector, turn: float):
    """SCENE with its box centres and state positions mapped by `point`, its
    velocities and accelerations by `vector`, and `turn` added to every
    heading, for the ground truth and the detections alike."""

    def boxes(rows):
        rows = rows.copy()
        rows[:, :2] = point(rows[:, :2])
        rows[:, 6] = [normalize_heading(h + turn) for h in rows[:, 6].tolist()]
        return rows

    def states(rows):
        return np.concatenate([point(rows[:, :2]), vector(rows[:, 2:4]), vector(rows[:, 4:6])], 1)

    return dataclasses.replace(
        SCENE,
        gt_tracks=tuple(
            dataclasses.replace(t, boxes=boxes(t.boxes), states=states(t.states))
            for t in SCENE.gt_tracks
        ),
        detections=tuple(dets._replace(boxes=boxes(dets.boxes)) for dets in SCENE.detections),
    )


def scene_report(kind: str, scene) -> dict:
    return report(label_table(scene=scene), pred_table(track(kind, scene.detections)))


COUNTS = ("gt_total", "matches", "fp", "miss", "mismatch", "s_mota_components", "motp_counts")


@pytest.mark.parametrize("kind", ["kalman", "stt"])
def test_translating_the_scene_keeps_the_counts_and_the_motp(kind):
    shift = np.array([1000.0, -500.0])
    want = scene_report(kind, SCENE)
    got = scene_report(kind, moved_scene(lambda xy: xy + shift, lambda v: v, 0.0))
    assert got["classes"].keys() == want["classes"].keys()
    for cls, row in want["classes"].items():
        assert row["matches"] > 0
        moved = got["classes"][cls]
        assert {k: moved[k] for k in COUNTS} == {k: row[k] for k in COUNTS}
        assert (moved["mota"], moved["s_mota"]) == (row["mota"], row["s_mota"])
        for state, buckets in row["motp"].items():
            for bucket, value in buckets.items():
                other = moved["motp"][state][bucket]
                assert (other is None) == (value is None)
                if value is not None:
                    assert math.isclose(other, value, rel_tol=1e-9, abs_tol=1e-12)


def test_turning_the_scene_a_quarter_leaves_the_kalman_report_equal():
    # (x, y) -> (-y, x) is exact in floating point; headings move by pi / 2
    def quarter(xy):
        return np.stack([-xy[:, 1], xy[:, 0]], axis=1)

    want = scene_report("kalman", SCENE)
    assert want["classes"]["vehicle"]["matches"] > 0
    assert scene_report("kalman", moved_scene(quarter, quarter, math.pi / 2)) == want


def test_a_scene_evaluated_twice_under_two_names_doubles_the_counts(tmp_path):
    provenance = resolved_dict(CFG)
    reports = []
    for names in (["a"], ["a", "b"]):
        data, tracks = tmp_path / "-".join(names), tmp_path / f"tracks-{'-'.join(names)}"
        data.mkdir()
        for name in names:
            formats.write_scenario(data, name, SCENE, provenance)
        cli.track_directory(CFG, "kalman", data, tracks, None)
        reports.append(cli.evaluate_directories(data, tracks, CFG.policy))
    once, twice = (r["classes"]["vehicle"] for r in reports)
    assert once["matches"] > 0 and once["fp"] > 0 and once["miss"] > 0
    for key in ("gt_total", "matches", "fp", "miss", "mismatch"):
        assert twice[key] == 2 * once[key]
    assert twice["s_mota_components"] == {k: 2 * v for k, v in once["s_mota_components"].items()}
    assert (twice["mota"], twice["s_mota"]) == (once["mota"], once["s_mota"])
