import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NOISELESS,
    Box7,
    Detection,
    detections_table,
    history_blocks,
    kalman_predict_reference,
    kalman_update_reference,
    tracker_rows,
)
from sttrack import assign, cli
from sttrack.autodiff import Tensor
from sttrack.config import RunConfig
from sttrack.core import ClassId, bev_iou
from sttrack.kalman import (
    KfParams,
    KfState,
    init_state,
    kf_association_cost,
    predict,
)
from sttrack.model import (
    SttConfig,
    context_scores,
    detection_features,
    init_params,
    queries_from_histories,
)
from sttrack.runtime import (
    DuplicateDetectionError,
    KalmanBackend,
    LifecycleConfig,
    SttBackend,
    Tracker,
    TrackerOutput,
    run_sequence,
)
from sttrack.sim import (
    MotionProfile,
    NoiseModel,
    ObjectSpec,
    SimConfig,
    generate,
)

SIZE = (2.0, 4.5, 1.5)


def make_detection(cx, cy, frame, det_id, conf=0.9, d_a=3):
    return Detection(
        box=Box7((cx, cy, 0.75), SIZE, 0.0),
        appearance=(0.1,) * d_a,
        motion=(0.0, 0.0),
        confidence=conf,
        frame_index=frame,
        detection_id=det_id,
        class_id=ClassId.VEHICLE,
    )


def step(tracker, frame, dets):
    """`tracker.step` on the table of the `Detection`s `dets`."""
    return tracker.step(frame, detections_table(dets))


def at_centres(dets, cols):
    """(n, 6) states at rest at the centres of the detections at `cols`."""
    states = np.zeros((len(cols), 6))
    states[:, :2] = dets.boxes[cols, :2]
    return states


class ScriptedBackend:
    """Backend stub: costs come from a script of the state bank and the
    frame's detections, states are detection centers; like the real backends
    it keeps one state row per live track, and it records the rows it is
    told to forget."""

    def __init__(self, cost_fn):
        self.cost_fn = cost_fn
        self.states = np.empty((0, 6))
        self.forgotten = []

    def frame_costs(self, frame_index, dets):
        return self.cost_fn(self.states, dets)

    def update_matched(self, frame_index, pairs, dets):
        rows, cols = [r for r, _ in pairs], [c for _, c in pairs]
        self.states[rows] = at_centres(dets, cols)
        return self.states[rows]

    def create_tracks(self, frame_index, cols, dets):
        states = at_centres(dets, cols)
        self.states = np.concatenate([self.states, states])
        return states

    def forget(self, rows):
        self.states = np.delete(self.states, rows, axis=0)
        self.forgotten.extend(rows)


def overlap_costs(states, dets):
    """Centre distances below 3 m from each track's state, the centre of its
    last detection under `ScriptedBackend`."""
    costs = np.full((len(states), len(dets.ids)), assign.FORBIDDEN)
    for i, (tx, ty) in enumerate(states[:, :2].tolist()):
        for j, (cx, cy) in enumerate(dets.boxes[:, :2].tolist()):
            d = math.hypot(cx - tx, cy - ty)
            if d < 3.0:
                costs[i, j] = d
    return costs


def test_empty_frames_accumulate_misses_until_death():
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig(max_misses=3))
    (tid,) = step(tracker, 0, [make_detection(0, 0, 0, 0)]).track_ids
    for frame in range(1, 4):
        assert step(tracker, frame, []).track_ids == []
        assert tracker.track_ids.tolist() == [tid] and tracker.misses.tolist() == [frame]
    assert step(tracker, 4, []).track_ids == []
    assert tracker.track_ids.tolist() == [] and tracker.misses.tolist() == []
    assert tracker.backend.forgotten == [0]  # the row of the only track


def test_single_overlapping_detection_extends_history():
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    step(tracker, 0, [make_detection(0, 0, 0, 0)])
    out = step(tracker, 1, [make_detection(0.5, 0, 1, 0)])
    assert out.track_ids == tracker.track_ids.tolist() == [1]
    assert out.states[:, :2].tolist() == [[0.5, 0.0]]
    assert tracker.backend.states.tolist() == out.states.tolist()
    assert tracker.misses.tolist() == [0]


def test_no_detection_shared_between_tracks():
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    step(tracker, 0, [make_detection(0, 0, 0, 0), make_detection(2, 0, 0, 1)])
    out = step(tracker, 1, [make_detection(1.0, 0, 1, 0), make_detection(2.2, 0, 1, 1)])
    assert len(out.track_ids) == 2
    assert len(set(out.boxes[:, 0].tolist())) == 2


def test_step_emits_its_detections_columns_in_track_id_order():
    # track 1 misses, track 2 is matched and a new track 3 takes the third
    # detection; the matched and new rows carry their detections' columns
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    step(tracker, 0, [make_detection(0, 0, 0, 0), make_detection(10, 0, 0, 1)])
    dets = [make_detection(20, 0, 1, 0, conf=0.5), make_detection(10.5, 0, 1, 4, conf=0.7)]
    out = step(tracker, 1, dets)
    assert out.track_ids == [2, 3]
    assert out.classes == [ClassId.VEHICLE] * 2
    assert out.boxes.tolist() == [list(dets[1].box.as_row()), list(dets[0].box.as_row())]
    assert out.conf.tolist() == [0.7, 0.5]
    assert out.states.tolist() == [[10.5, 0, 0, 0, 0, 0], [20.0, 0, 0, 0, 0, 0]]
    assert tracker.track_ids.tolist() == [1, 2, 3] and tracker.misses.tolist() == [1, 0, 0]
    assert tracker.backend.states[1:].tolist() == out.states.tolist()


# Detections on a coarse grid with jitter, so that tracks match, miss, die and
# spawn; one confidence is under the default `min_confidence`.
frame_detections = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.floats(-0.6, 0.6),
        st.sampled_from([0.05, 0.9]),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(frame_detections, min_size=1, max_size=14), st.integers(0, 3))
def test_kalman_tracker_lifecycle_rules(stream, max_misses):
    params, dt = KfParams(), 0.1
    lifecycle = LifecycleConfig(max_misses=max_misses)
    tracker = Tracker(KalmanBackend(params, dt), lifecycle)
    last_matched: dict[int, int] = {}  # track id -> last frame with a detection
    filters = {}  # track id -> the track's own filter, per-track reference math
    for frame, cells in enumerate(stream):
        dets = [
            make_detection(5.0 * gx + jitter, 6.0 * gy, frame, j, conf=conf)
            for j, (gx, gy, jitter, conf) in enumerate(cells)
        ]
        out = step(tracker, frame, dets)

        # each kept detection joins exactly one track; dropped ones join none
        joined = zip(map(tuple, out.boxes.tolist()), out.conf.tolist())
        kept = [
            (d.box.as_row(), d.confidence) for d in dets
            if d.confidence >= lifecycle.min_confidence
        ]
        assert sorted(joined) == sorted(kept)
        # track ids are unique; new ones follow every id given out before
        ids = out.track_ids
        assert len(set(ids)) == len(ids)
        new_ids = sorted(tid for tid in ids if tid not in last_matched)
        first = len(last_matched) + 1
        assert new_ids == list(range(first, first + len(new_ids)))
        for tid in ids:
            last_matched[tid] = frame
        # a track lives through max_misses consecutive misses and no more
        alive = sorted(
            tid for tid, seen in last_matched.items() if frame - seen <= max_misses
        )
        # the tracker's columns hold the live tracks in id order and each
        # one's misses since its last match ...
        live = tracker.track_ids.tolist()
        assert live == alive
        assert tracker.misses.tolist() == [frame - last_matched[tid] for tid in live]
        # ... and the bank one row per live track, in that order
        backend = tracker.backend
        assert backend.bank.mean.shape == (len(alive), 6)
        assert backend.bank.covariance.shape == (len(alive), 6, 6)
        # ... each row bitwise the filter of that row's track
        for tid in list(filters):
            if tid not in live:
                del filters[tid]
            else:
                filters[tid] = kalman_predict_reference(filters[tid], dt, params)
        for tid, center in zip(ids, out.boxes[:, :2]):
            if tid in filters:
                filters[tid] = kalman_update_reference(filters[tid], center, params)
            else:
                filters[tid] = init_state(center, params)
        for i, tid in enumerate(live):
            assert backend.bank.mean[i].tobytes() == filters[tid].mean.tobytes()
            assert backend.bank.covariance[i].tobytes() == filters[tid].covariance.tobytes()
        # ... and the box of that track's last detection
        for tid, box in zip(ids, out.boxes):
            assert backend.boxes[live.index(tid)].tobytes() == box.tobytes()
        for tid, state in zip(ids, out.states):
            assert state.tobytes() == filters[tid].mean.tobytes()


TINY_STT = SttConfig(d_q=8, d_a=3, d_m=2, t_max=3, k_max=4, heads=2, mlp_hidden=8)
TINY_STT_PARAMS = init_params(TINY_STT, seed=0)


def assert_history_block(backend, i, rows, t_max):
    """Row `i` of `backend`'s history bank holds `rows` bitwise in its last
    slots, zeros before them, and their count as its length."""
    n = len(rows)
    assert backend.history_len[i] == n
    assert backend.history[i, t_max - n :].tobytes() == rows.tobytes()
    assert not backend.history[i, : t_max - n].any()


def record_histories(histories, tracker, out, dets, t_max):
    """Append to the recorded detections of each track in the step output
    `out` the detection of `dets` it was matched to or created from, found
    by box and confidence, keeping the last `t_max`; drop the tracks the
    tracker deleted."""
    for tid in set(histories) - set(tracker.track_ids.tolist()):
        del histories[tid]
    by_row = {(det.box.as_row(), det.confidence): det for det in dets}
    for tid, box, conf in zip(out.track_ids, out.boxes.tolist(), out.conf.tolist()):
        histories[tid] = (histories.get(tid, []) + [by_row[tuple(box), conf]])[-t_max:]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(frame_detections, min_size=1, max_size=10),
    st.integers(0, 2),
    st.sampled_from(["tsd", "tdi"]),
)
def test_stt_backend_queries_follow_tracker(stream, max_misses, state_source):
    cfg = dataclasses.replace(TINY_STT, state_source=state_source)
    lifecycle = LifecycleConfig(max_misses=max_misses)
    backend = SttBackend(TINY_STT_PARAMS, cfg, lifecycle, 0.1)
    tracker = Tracker(backend, lifecycle)
    histories: dict[int, list[Detection]] = {}
    emitted = {}  # track id -> (state, frame) of its last row in the output
    for frame, cells in enumerate(stream):
        dets = [
            make_detection(5.0 * gx + jitter, 6.0 * gy, frame, j, conf=conf)
            for j, (gx, gy, jitter, conf) in enumerate(cells)
        ]
        out = step(tracker, frame, dets)
        record_histories(histories, tracker, out, dets, cfg.t_max)
        emitted.update((tid, (state, frame)) for tid, state in zip(out.track_ids, out.states))
        # one stored query, history, state and frame per live track, in the
        # tracker's row order: the query of its own history, that history's
        # feature rows, and the state and frame of its last emitted row
        live = tracker.track_ids.tolist()
        assert backend.queries.shape == (len(live), cfg.d_q)
        assert backend.history.shape == (len(live), cfg.t_max, cfg.feature_width)
        assert backend.states.shape == (len(live), 6) and backend.frames.shape == (len(live),)
        for i, tid in enumerate(live):
            state, last_frame = emitted[tid]
            assert backend.states[i].tobytes() == state.tobytes()
            assert backend.frames[i] == last_frame
            rows = detection_features(detections_table(histories[tid]), cfg)
            assert_history_block(backend, i, rows, cfg.t_max)
            (expected,) = queries_from_histories(
                TINY_STT_PARAMS, cfg, *history_blocks([rows], cfg.t_max)
            )
            np.testing.assert_allclose(
                backend.queries[i], expected, rtol=1e-12, atol=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.booleans(), st.floats(-0.6, 0.6)), min_size=3, max_size=3),
        min_size=4,
        max_size=10,
    ),
    st.sampled_from(["tsd", "tdi"]),
)
@example([[(True, 0.0)] * 3] * 2 * TINY_STT.t_max, "tsd")
def test_stt_history_rows_are_the_last_t_max_matches(presence, state_source):
    # Three objects that come and go, and every scored pair matchable, so
    # that most tracks are matched more than t_max times.
    cfg = dataclasses.replace(TINY_STT, state_source=state_source)
    lifecycle = LifecycleConfig(creation_score_threshold=0.0)
    backend = SttBackend(TINY_STT_PARAMS, cfg, lifecycle, 0.1)
    tracker = Tracker(backend, lifecycle)
    histories: dict[int, list[Detection]] = {}
    for frame, cells in enumerate(presence):
        dets = [
            make_detection(5.0 * j + jitter, 0.0, frame, j)
            for j, (present, jitter) in enumerate(cells) if present
        ]
        record_histories(histories, tracker, step(tracker, frame, dets), dets, cfg.t_max)
        assert len(backend.history) == len(backend.history_len) == len(tracker.track_ids)
        for i, tid in enumerate(tracker.track_ids.tolist()):
            want = detection_features(detections_table(histories[tid]), cfg)
            assert_history_block(backend, i, want, cfg.t_max)


def test_stt_tdi_states_come_from_the_association_pass():
    # at frame 2 the track's history holds two detections; its anchor is the
    # centre of the later one
    lifecycle = LifecycleConfig(creation_score_threshold=0.0)
    first, second, third = (
        make_detection(x, y, frame, 0)
        for frame, (x, y) in enumerate([(0.0, 0.0), (0.5, 0.2), (1.1, 0.3)])
    )
    for state_source in ("tsd", "tdi"):
        cfg = dataclasses.replace(TINY_STT, state_source=state_source)
        tracker = Tracker(SttBackend(TINY_STT_PARAMS, cfg, lifecycle, 0.1), lifecycle)
        step(tracker, 0, [first])
        step(tracker, 1, [second])
        query = tracker.backend.queries[0].copy()  # track 1's row
        out = step(tracker, 2, [third])
        assert out.track_ids == [1]
        _, (rel,) = context_scores(  # the association pass's state, read under "tdi"
            TINY_STT_PARAMS, dataclasses.replace(cfg, state_source="tdi"), query[None],
            detection_features(detections_table([third]), cfg), [1], [second.box.center[:2]],
        )
        tdi = rel + [*second.box.center[:2], 0, 0, 0, 0]
        assert (out.states[0].tolist() == tdi.tolist()) == (state_source == "tdi")


@pytest.mark.parametrize("extra_rows, extra_cols", [(1, 0), (0, 1), (-1, 0)])
def test_tracker_rejects_costs_of_the_wrong_shape(extra_rows, extra_cols):
    def misshapen(states, dets):
        return np.zeros((len(states) + extra_rows, len(dets.ids) + extra_cols))

    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    step(tracker, 0, [make_detection(0, 0, 0, 0)])
    tracker.backend.cost_fn = misshapen
    shape = (1 + extra_rows, 2 + extra_cols)
    with pytest.raises(ValueError, match=rf"frame 1: costs of shape \({shape[0]}, {shape[1]}\)"
                                         " for 1 tracks and 2 detections"):
        step(tracker, 1, [make_detection(0, 0, 1, 0), make_detection(9, 0, 1, 1)])


def test_kalman_forget_drops_bank_rows():
    params = KfParams()
    backend = KalmanBackend(params, 0.1)
    det, other = make_detection(0.0, 0.0, 0, 0), make_detection(9.0, 0.0, 0, 1)
    backend.create_tracks(0, [0, 1], detections_table([det, other]))
    backend.forget([0])
    assert backend.bank.mean.shape == (1, 6)
    assert backend.bank.covariance.shape == (1, 6, 6)
    want = init_state(other.box.center[:2], params).mean
    assert backend.bank.mean[0].tobytes() == want.tobytes()
    assert backend.boxes.tolist() == [list(other.box.as_row())]
    assert backend.frame_costs(1, detections_table([det])).shape == (1, 1)


def test_stt_backend_rows_come_from_the_frame_it_costed():
    lifecycle = LifecycleConfig()
    backend = SttBackend(TINY_STT_PARAMS, TINY_STT, lifecycle, 0.1)
    dets = detections_table([make_detection(0.0, 0.0, 0, 0)])
    with pytest.raises(ValueError, match="frame 0: frame_costs ran last for frame None"):
        backend.create_tracks(0, [0], dets)
    backend.frame_costs(0, dets)
    backend.create_tracks(0, [0], dets)
    with pytest.raises(ValueError, match="frame 1: frame_costs ran last for frame 0"):
        backend.update_matched(1, [(0, 0)], detections_table([make_detection(0.5, 0.0, 1, 0)]))


def test_min_confidence_filters_detections():
    tracker = Tracker(
        ScriptedBackend(overlap_costs), LifecycleConfig(min_confidence=0.5)
    )
    assert step(tracker, 0, [make_detection(0, 0, 0, 0, conf=0.2)]).track_ids == []
    assert tracker.track_ids.tolist() == [] and tracker.misses.tolist() == []


def test_duplicate_detection_ids_abort():
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    with pytest.raises(DuplicateDetectionError):
        step(tracker, 0, [make_detection(0, 0, 0, 7), make_detection(5, 5, 0, 7)])


def test_monotone_frame_indices_enforced():
    tracker = Tracker(ScriptedBackend(overlap_costs), LifecycleConfig())
    step(tracker, 3, [])
    with pytest.raises(ValueError):
        step(tracker, 3, [])


def test_backend_isolation_identical_costs_identical_lifecycle():
    # Lifecycle decisions must depend only on the cost matrix.
    def run(backend):
        tracker = Tracker(backend, LifecycleConfig(max_misses=1))
        trace = []
        frames = [
            [make_detection(0, 0, 0, 0), make_detection(10, 0, 0, 1)],
            [make_detection(0.4, 0, 1, 0)],
            [],
            [make_detection(0.8, 0, 3, 0), make_detection(20, 0, 3, 1)],
        ]
        for k, frame in enumerate(frames):
            out = step(tracker, k, frame)
            trace.append((tracker.track_ids.tolist(), out.track_ids, tracker.misses.tolist()))
        return trace

    assert run(ScriptedBackend(overlap_costs)) == run(ScriptedBackend(overlap_costs))


def zero_noise_scenario(n_objects=4, frames=30):
    specs = tuple(
        ObjectSpec(
            ClassId.VEHICLE,
            MotionProfile.constant_velocity(1.0 + 0.3 * i, 0.5 * i),
            (12.0 * i, -8.0 * i),
            0.0,
            SIZE,
        )
        for i in range(n_objects)
    )
    cfg = SimConfig(frames=frames, noise=NOISELESS)
    return generate(cfg, specs, seed=0)


def test_kalman_zero_noise_no_fragmentation():
    scenario = zero_noise_scenario()
    backend = KalmanBackend(KfParams(), scenario.dt)
    output = run_sequence(scenario.detections, backend, LifecycleConfig())
    assert len(output.frames) == scenario.frames
    # map each emitted row back to its ground-truth object by box center
    track_of_object = {}
    for k, out in enumerate(output.frames):
        centers = {
            (round(cx, 9), round(cy, 9)): t.object_id
            for t in scenario.gt_tracks
            for cx, cy in (t.boxes[k, :2].tolist(),)
        }
        for tid, (cx, cy) in zip(out.track_ids, out.boxes[:, :2].tolist()):
            oid = centers[round(cx, 9), round(cy, 9)]
            track_of_object.setdefault(oid, set()).add(tid)
    assert len(track_of_object) == len(scenario.gt_tracks)
    for oid, tids in track_of_object.items():
        assert len(tids) == 1, f"object {oid} fragmented across tracks {tids}"


def test_run_sequence_deterministic():
    scenario = zero_noise_scenario(n_objects=3, frames=20)
    def run():
        backend = KalmanBackend(KfParams(), scenario.dt)
        return run_sequence(scenario.detections, backend, LifecycleConfig())

    assert tracker_rows(run()) == tracker_rows(run())


def test_spurious_tracks_bounded_emissions():
    specs = (ObjectSpec(ClassId.VEHICLE, MotionProfile.static(), (0.0, 0.0), 0.0, SIZE),)
    cfg = SimConfig(
        frames=80,
        noise=NoiseModel(0.02, 0.01, 0.01, 0.05, fp_rate=1.0, miss_prob=0.0,
                         confidence_noise=0.0),
    )
    scenario = generate(cfg, specs, seed=4)
    lifecycle = LifecycleConfig(max_misses=2, min_confidence=0.0)
    backend = KalmanBackend(KfParams(), scenario.dt)
    output = run_sequence(scenario.detections, backend, lifecycle)
    emissions = {}
    for out in output.frames:
        for tid in out.track_ids:
            emissions[tid] = emissions.get(tid, 0) + 1
    # the real object dominates one long track; spurious tracks stay short
    longest = max(emissions.values())
    spurious = [n for n in emissions.values() if n != longest]
    assert all(n <= lifecycle.max_misses + 1 for n in spurious)


def stt_scenario(frames=25, d_a=8):
    specs = (
        ObjectSpec(ClassId.VEHICLE, MotionProfile.static(), (0.0, 0.0), 0.1, SIZE),
        ObjectSpec(ClassId.VEHICLE, MotionProfile.constant_velocity(2.0, 0.0),
                   (-10.0, 6.0), 0.0, SIZE),
    )
    cfg = SimConfig(
        frames=frames,
        noise=NoiseModel(0.05, 0.01, 0.01, 0.1, fp_rate=0.2, miss_prob=0.05,
                         confidence_noise=0.02),
        appearance_dim=d_a,
    )
    return generate(cfg, specs, seed=9)


def test_stt_backend_runs_and_is_deterministic():
    scenario = stt_scenario()
    cfg = SttConfig(d_q=16, d_a=8, d_m=2, t_max=5, k_max=8, heads=2, mlp_hidden=16)
    params = init_params(cfg, seed=0)
    lifecycle = LifecycleConfig()

    def run():
        backend = SttBackend(params, cfg, lifecycle, scenario.dt)
        return run_sequence(scenario.detections, backend, lifecycle)

    out_a = run()
    assert tracker_rows(out_a) == tracker_rows(run())
    assert len(out_a.frames) == scenario.frames
    assert sum(len(out.track_ids) for out in out_a.frames) > 0
    # creation-frame rows carry zero initial velocity and acceleration
    first = out_a.frames[0]
    assert len(first.track_ids) and not first.states[:, 2:].any()


def nan_params(params: dict, names=None) -> dict:
    """`params` with the named tensors, or all of them, filled with NaN."""
    return {
        name: Tensor(np.full_like(t.data, math.nan)) if names is None or name in names else t
        for name, t in params.items()
    }


def default_scene(frames=20):
    cfg = RunConfig()
    sim = dataclasses.replace(cfg.sim, frames=frames)
    return cfg, cli.build_scenario(dataclasses.replace(cfg, sim=sim), 0)


def test_stt_with_all_nan_parameters_raises_naming_the_frame():
    # without the finiteness checks every detection started its own track:
    # 399 rows under 399 track ids on these 20 frames
    cfg, scene = default_scene()
    params = nan_params(init_params(cfg.stt, seed=0))
    backend = SttBackend(params, cfg.stt, cfg.lifecycle, scene.dt)
    with pytest.raises(ValueError, match="^frame 0: non-finite track query: nan$"):
        run_sequence(scene.detections, backend, cfg.lifecycle)


@pytest.mark.parametrize(
    "names, stage, message",
    [
        # queries stay finite; the scores of frame 1's contexts do not
        (["tdi.score_b2"], "frame_costs", "frame 1: non-finite association score: nan"),
        # scores stay finite; the new queries of matched and new tracks do not
        (["tf.pe"], "update_matched", "frame 1: non-finite track query: nan"),
        (["tf.pe"], "create_tracks", "frame 1: non-finite track query: nan"),
    ],
)
def test_stt_backend_rejects_a_non_finite_score_or_query(names, stage, message):
    cfg, scene = default_scene(frames=2)
    params = init_params(cfg.stt, seed=0)
    backend = SttBackend(params, cfg.stt, cfg.lifecycle, scene.dt)
    Tracker(backend, cfg.lifecycle).step(0, scene.detections[0])
    dets = scene.detections[1]
    backend.params = nan_params(params, names)
    if stage == "frame_costs":
        with pytest.raises(ValueError, match=f"^{message}$"):
            backend.frame_costs(1, dets)
        return
    backend.frame_costs(1, dets)  # raises nothing: the scores are finite
    with pytest.raises(ValueError, match=f"^{message}$"):
        if stage == "update_matched":
            backend.update_matched(1, [(0, 0)], dets)
        else:
            backend.create_tracks(1, [0], dets)


def kf_filter(box, velocity, params):
    """A filter at the center of `box` with the given velocity."""
    state = init_state(box.center[:2], params)
    state.mean[2:4] = velocity
    return state


def box_at(center, size, heading):
    return Box7((float(center[0]), float(center[1]), 0.75), size, heading)


def predicted_box(mean, last_box):
    """`last_box` carried to the predicted center, the first two entries of
    one filter's `mean`."""
    return Box7((float(mean[0]), float(mean[1]), last_box.center[2]), last_box.size,
                last_box.heading)


def gate_edge_boxes(pred_box, gate, direction):
    """Two boxes like `pred_box` moved along `direction`, with BEV IoU just
    above and just at or below `gate` (bisection on the offset)."""
    ux, uy = math.cos(direction), math.sin(direction)
    cx, cy = pred_box.center[:2]

    def moved(d):
        return box_at((cx + d * ux, cy + d * uy), pred_box.size, pred_box.heading)

    lo, hi = 0.0, math.hypot(pred_box.size[0], pred_box.size[1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bev_iou(pred_box.as_row(), moved(mid).as_row()) > gate:
            lo = mid
        else:
            hi = mid
    return moved(lo), moved(hi)


def reference_kf_costs(states, tids, last_boxes, dets, dt, params):
    """Per-pair costs from `kf_association_cost` on independently predicted filters."""
    costs = np.full((len(tids), len(dets)), assign.FORBIDDEN)
    for i, tid in enumerate(tids):
        pred = predict(states[tid], dt, params)
        for j, det in enumerate(dets):
            costs[i, j] = kf_association_cost(
                pred, last_boxes[tid].as_row(), det.box.as_row(), params
            )
    return costs


def kalman_backend_with(tids, states, last_boxes, dt, params):
    """A Kalman backend whose filter bank holds the `states` of the tracks
    `tids`, in order, and whose boxes are their `last_boxes`."""
    backend = KalmanBackend(params, dt)
    backend.bank = KfState(
        np.array([states[tid].mean for tid in tids]).reshape(-1, 6),
        np.array([states[tid].covariance for tid in tids]).reshape(-1, 6, 6),
    )
    backend.boxes = np.array([last_boxes[tid].as_row() for tid in tids]).reshape(-1, 7)
    return backend


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kalman_frame_costs_bitwise_equal_to_per_pair_cost(seed):
    rng = np.random.default_rng(seed)
    params = KfParams(iou_gate=0.1 + 0.2 * seed)
    dt = 0.1
    tids, states, last_boxes = list(range(1, 13)), {}, {}
    for tid in tids:
        size = tuple(rng.uniform(0.5, 5.0, 3))
        box = box_at(rng.uniform(0.0, 12.0, 2), size, rng.uniform(-math.pi, math.pi))
        states[tid], last_boxes[tid] = kf_filter(box, rng.normal(0.0, 3.0, 2), params), box
    boxes = [
        box_at(rng.uniform(0.0, 12.0, 2), tuple(rng.uniform(0.5, 5.0, 3)),
               rng.uniform(-math.pi, math.pi))
        for _ in range(15)
    ]
    for tid in tids[:4]:
        pred_box = predicted_box(predict(states[tid], dt, params).mean, last_boxes[tid])
        direction = rng.uniform(-math.pi, math.pi)
        boxes.extend(gate_edge_boxes(pred_box, params.iou_gate, direction))
        other = tuple(rng.uniform(0.5, 5.0, 3))
        reach = 0.5 * math.hypot(*pred_box.size[:2]) + 0.5 * math.hypot(*other[:2])
        for scale in (1.0 - 1e-3, 1.0, 1.0 + 1e-12):
            offset = scale * reach * np.array([math.cos(direction), math.sin(direction)])
            boxes.append(box_at(np.array(pred_box.center[:2]) + offset, other,
                                rng.uniform(-math.pi, math.pi)))
    dets = [
        Detection(b, (0.1,) * 3, (0.0, 0.0), 0.9, 1, 100 + j, ClassId.VEHICLE)
        for j, b in enumerate(boxes)
    ]

    reference = reference_kf_costs(states, tids, last_boxes, dets, dt, params)
    backend = kalman_backend_with(tids, states, last_boxes, dt, params)
    costs = backend.frame_costs(1, detections_table(dets))
    assert costs.dtype == reference.dtype and costs.shape == reference.shape
    assert costs.tobytes() == reference.tobytes()
    finite = np.isfinite(reference)
    assert finite.any() and not finite.all()
    # each bisected pair straddles the gate: one side passes, the other does not
    for i in range(4):
        inside, outside = reference[i, 15 + 5 * i], reference[i, 16 + 5 * i]
        assert inside < assign.FORBIDDEN and outside == assign.FORBIDDEN

    for n_tracks, n_dets in ((0, len(dets)), (len(tids), 0)):
        backend = kalman_backend_with(tids[:n_tracks], states, last_boxes, dt, params)
        costs = backend.frame_costs(1, detections_table(dets[:n_dets]))
        assert costs.shape == (n_tracks, n_dets) and costs.dtype == np.float64
