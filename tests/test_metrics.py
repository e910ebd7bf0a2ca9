import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NOISELESS,
    Box7,
    PerFrameEvaluator,
    evaluate_sequences,
    frame_table,
    label_frames_from_scenario,
    state_error,
)
from sttrack import metrics
from sttrack.core import ClassId, StateVector
from sttrack.metrics import (
    INF,
    EvalBox,
    EvalTable,
    Evaluator,
    MatchingPolicy,
    format_report,
    report_csv_rows,
)
from sttrack.sim import (
    MotionProfile,
    ObjectSpec,
    SimConfig,
    generate,
)

SIZE = (2.0, 4.5, 1.5)
VEH = ClassId.VEHICLE


def ebox(ident, cx, cy, vel=(0.0, 0.0), acc=(0.0, 0.0), cls=VEH, heading=0.0, size=SIZE):
    return EvalBox(
        ident=ident,
        class_id=cls,
        box=Box7((cx, cy, 0.75), size, heading).as_row(),
        state=StateVector((cx, cy), vel, acc),
    )


def single_class(report, cls="vehicle"):
    return report["classes"][cls]


def test_identical_boxes_matched():
    labels = [[ebox(0, 0, 0)]]
    preds = [[ebox(1, 0, 0)]]
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["matches"] == 1
    assert row["mota"] == 1.0
    assert row["s_mota"] == 1.0


def test_velocity_gate_blocks_smota_but_not_mota():
    # High IoU but a 2 m/s velocity error: feasible for MOTA, gated for
    # S-MOTA at the 1.0 m/s vehicle threshold.
    labels = [[ebox(0, 0, 0, vel=(0.0, 0.0))]]
    preds = [[ebox(1, 0.1, 0.0, vel=(2.0, 0.0))]]
    report = evaluate_sequences([(labels, preds)])
    row = single_class(report)
    assert row["mota"] == 1.0
    assert row["s_mota"] == pytest.approx(1.0 - 2.0 / 1.0)  # fp + miss of 1 each
    assert row["s_mota_components"]["matches"] == 0


def test_crafted_three_by_three_optimal_matching():
    # Objects spaced so each prediction overlaps two labels with distinct
    # IoUs; the optimal feasible matching is forced and verified by hand.
    labels = [[ebox(0, 0.0, 0.0), ebox(1, 4.0, 0.0), ebox(2, 8.0, 0.0)]]
    preds = [[ebox(10, 0.6, 0.0), ebox(11, 4.4, 0.0), ebox(12, 8.2, 0.0)]]
    policy = MatchingPolicy(iou_threshold={VEH: 0.1})
    row = single_class(evaluate_sequences([(labels, preds)], policy))
    assert row["matches"] == 3
    assert row["fp"] == 0 and row["miss"] == 0
    # independent check of the chosen pairs via total distance: identity
    # pairing is the unique optimum by construction (offsets 0.6, 0.4, 0.2)
    assert row["motp_position"] == pytest.approx((0.6 + 0.4 + 0.2) / 3)


def test_hand_enumerated_three_frame_scenario():
    a, b = (0.0, 0.0), (10.0, 0.0)
    labels = [
        [ebox(0, *a), ebox(1, *b)],
        [ebox(0, *a), ebox(1, *b)],
        [ebox(0, *a), ebox(1, *b)],
    ]
    preds = [
        [ebox(101, *a), ebox(102, *b)],
        [ebox(102, *b)],  # object 0 missed
        [ebox(101, *a), ebox(103, *b)],  # object 1 switches to a new track id
    ]
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["fp"] == 0
    assert row["miss"] == 1
    assert row["mismatch"] == 1
    assert row["gt_total"] == 6
    assert row["mota"] == pytest.approx(1.0 - 2.0 / 6.0)
    assert round(row["mota"], 3) == 0.667


def test_perfect_tracker_full_scores():
    rng = np.random.default_rng(0)
    frames = []
    for k in range(10):
        frame = [
            ebox(i, 5.0 * i + 0.1 * k, rng.uniform(-1, 1), vel=(1.0, 0.0))
            for i in range(4)
        ]
        frames.append(frame)
    preds = [[EvalBox(100 + b.ident, b.class_id, b.box, b.state) for b in f] for f in frames]
    row = single_class(evaluate_sequences([(frames, preds)]))
    assert row["mota"] == 1.0
    assert row["s_mota"] == 1.0
    assert row["fp"] == row["miss"] == row["mismatch"] == 0
    assert row["motp_position"] == 0.0
    assert row["motp"]["velocity"]["all"] == 0.0
    assert row["motp_counts"] == {"velocity": 0, "acceleration": 0}


def random_sequence(seed, frames=12, n=5, drop=0.2, fp=0.3):
    rng = np.random.default_rng(seed)
    labels, preds = [], []
    for k in range(frames):
        lf, pf = [], []
        for i in range(n):
            cx, cy = 8.0 * i, 3.0 * (i % 3) + 0.05 * k
            vel = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            lf.append(ebox(i, cx, cy, vel=vel))
            if rng.random() > drop:
                pf.append(
                    ebox(
                        200 + i,
                        cx + rng.normal(0, 0.15),
                        cy + rng.normal(0, 0.15),
                        vel=(vel[0] + rng.normal(0, 0.6), vel[1] + rng.normal(0, 0.6)),
                    )
                )
        if rng.random() < fp:
            pf.append(ebox(900 + k, rng.uniform(-30, -20), rng.uniform(-30, -20)))
        labels.append(lf)
        preds.append(pf)
    return labels, preds


def test_smota_with_infinite_thresholds_equals_mota_bit_exact():
    for seed in range(25):
        labels, preds = random_sequence(seed)
        policy = MatchingPolicy(iou_threshold={VEH: 0.3}).mota_only()
        row = single_class(evaluate_sequences([(labels, preds)], policy))
        assert row["s_mota"] == row["mota"]
        assert row["s_mota_components"]["fp"] == row["fp"]
        assert row["s_mota_components"]["miss"] == row["miss"]
        assert row["s_mota_components"]["mismatch"] == row["mismatch"]


def test_zero_velocity_tracker_scores_below_mota_on_fast_objects():
    labels, preds = [], []
    for k in range(10):
        lf, pf = [], []
        for i in range(3):
            cx = -20.0 + 5.0 * i + 0.8 * k  # 8 m/s: fast for vehicles
            lf.append(ebox(i, cx, 4.0 * i, vel=(8.0, 0.0)))
            pf.append(ebox(50 + i, cx, 4.0 * i, vel=(0.0, 0.0)))
        labels.append(lf)
        preds.append(pf)
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["mota"] == 1.0
    assert row["s_mota"] < row["mota"]
    assert row["s_mota_components"]["matches"] == 0  # every match gated out


def test_raising_one_state_error_can_raise_smota():
    """MOTA and S-MOTA keep separate correspondences. Vehicles A (at rest)
    and B (0.8 m/s) stand 0.8 m apart, in boxes 1.4 m long: a box 0.7 m
    from a vehicle clears IoU 0.3 with it (0.33), one 0.8 m away does not
    (0.27). In frame 0 the prediction X sits 0.1 m from A and Y 0.1 m from
    B; after that Y sits on A and X on B. MOTA matches X to A in frame 0,
    so frame 1 switches both. Once X's frame-0 velocity is 1.6 m/s, its
    error against A (1.6) fails the 1.0 gate, while against B it is 0.8:
    S-MOTA matches X to B from the start and counts no mismatch."""
    size = (1.0, 1.4, 1.5)  # heading 0: the 1.4 m length along x

    def sequence(x_velocity):
        labels = [[ebox(0, 0.0, 0.0, size=size), ebox(1, 0.8, 0.0, vel=(0.8, 0.0), size=size)]
                  for _ in range(4)]
        preds = [[ebox(10, 0.1, 0.0, vel=(x_velocity, 0.0), size=size),
                  ebox(11, 0.7, 0.0, vel=(0.8, 0.0), size=size)]]
        preds += [[ebox(10, 0.8, 0.0, vel=(0.8, 0.0), size=size), ebox(11, 0.0, 0.0, size=size)]
                  for _ in range(3)]
        return labels, preds

    policy = MatchingPolicy(iou_threshold={VEH: 0.3})
    low, high = (
        single_class(evaluate_sequences([sequence(v)], policy)) for v in (0.4, 1.6)
    )
    assert low["mota"] == high["mota"] == 0.75
    assert low["mismatch"] == high["mismatch"] == 2
    assert (low["s_mota"], low["s_mota_components"]["mismatch"]) == (0.75, 2)
    assert (high["s_mota"], high["s_mota_components"]["mismatch"]) == (1.0, 0)


def test_matched_count_monotone_under_tightening_thresholds():
    labels, preds = random_sequence(99, frames=8)
    prev = None
    for limit in [INF, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1]:
        policy = MatchingPolicy(
            iou_threshold={VEH: 0.3},
            state_thresholds={VEH: {"velocity": limit, "acceleration": INF}},
        )
        row = single_class(evaluate_sequences([(labels, preds)], policy))
        matched = row["s_mota_components"]["matches"]
        if prev is not None:
            assert matched <= prev
        prev = matched


def test_motp_single_velocity_error():
    labels = [[ebox(0, 0, 0, vel=(0.0, 0.0))]]
    preds = [[ebox(1, 0, 0, vel=(1.0, 0.0))]]
    policy = MatchingPolicy(
        iou_threshold={VEH: 0.5},
        state_thresholds={VEH: {"velocity": INF, "acceleration": INF}},
        alpha_s={VEH: {"velocity": 0.9, "acceleration": 0.9}},
    )
    row = single_class(evaluate_sequences([(labels, preds)], policy))
    assert row["motp"]["velocity"]["all"] == pytest.approx(1.0)
    assert row["motp"]["velocity"]["static"] == pytest.approx(1.0)
    assert row["motp_counts"]["velocity"] == 1  # 1.0 > alpha 0.9

    policy_high = MatchingPolicy(
        iou_threshold={VEH: 0.5},
        state_thresholds={VEH: {"velocity": INF, "acceleration": INF}},
        alpha_s={VEH: {"velocity": 1.1, "acceleration": 1.1}},
    )
    row = single_class(evaluate_sequences([(labels, preds)], policy_high))
    assert row["motp_counts"]["velocity"] == 0


def test_motp_position_matches_independent_classic_motp():
    # Objects are far apart so the matching is unambiguous; re-derive classic
    # MOTP as the plain mean center distance over per-frame nearest pairs.
    rng = np.random.default_rng(5)
    labels, preds, distances = [], [], []
    for k in range(15):
        lf, pf = [], []
        for i in range(4):
            cx, cy = 20.0 * i, 0.1 * k
            dx, dy = rng.normal(0, 0.2, 2)
            lf.append(ebox(i, cx, cy))
            pf.append(ebox(70 + i, cx + dx, cy + dy))
            distances.append(math.hypot(dx, dy))
        labels.append(lf)
        preds.append(pf)
    policy = MatchingPolicy(iou_threshold={VEH: 0.3}).mota_only()
    row = single_class(evaluate_sequences([(labels, preds)], policy))
    assert row["matches"] == len(distances)
    assert row["motp_position"] == pytest.approx(float(np.mean(distances)), abs=1e-12)


def test_count_conservation_per_class():
    for seed in (3, 17, 42):
        labels, preds = random_sequence(seed)
        row = single_class(evaluate_sequences([(labels, preds)]))
        n_preds = sum(len(f) for f in preds)
        assert row["fp"] + row["matches"] == n_preds
        assert row["miss"] + row["matches"] == row["gt_total"]


def test_empty_gt_reports_absent():
    labels = [[], []]
    preds = [[ebox(1, 0, 0)], []]
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["mota"] is None
    assert row["gt_total"] == 0
    assert row["fp"] == 1


def test_empty_buckets_absent():
    labels = [[ebox(0, 0, 0)]]  # static object only
    preds = [[ebox(1, 0, 0)]]
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["motp"]["velocity"]["fast"] is None
    assert row["motp"]["velocity"]["static"] == 0.0


def test_persistence_prefers_previous_correspondence():
    # Two overlapping predictions; the carried correspondence must win even
    # when the other prediction has slightly better IoU.
    labels = [
        [ebox(0, 0.0, 0.0)],
        [ebox(0, 0.0, 0.0)],
    ]
    preds = [
        [ebox(11, 0.2, 0.0)],
        [ebox(11, 0.2, 0.0), ebox(12, 0.1, 0.0)],
    ]
    row = single_class(
        evaluate_sequences([(labels, preds)], MatchingPolicy(iou_threshold={VEH: 0.3}))
    )
    assert row["mismatch"] == 0
    assert row["fp"] == 1

    # without persistence the better-IoU newcomer wins and flips the identity
    row = single_class(
        evaluate_sequences(
            [(labels, preds)],
            MatchingPolicy(iou_threshold={VEH: 0.3}, persistence=False),
        )
    )
    assert row["mismatch"] == 1


def test_persistence_shared_track_goes_to_lower_label_index():
    # Labels 0 and 1 were last matched to the same track 11 (frames 0 and 1).
    # In frame 2 track 11 can match either; 12 can only match label 1.
    policy = MatchingPolicy(iou_threshold={VEH: 0.3})
    label_0, label_1 = ebox(0, 0.0, 0.0), ebox(1, 0.0, 1.0)
    first = [[label_0], [label_1]]
    first_preds = [[ebox(11, 0.0, 0.0)], [ebox(11, 0.0, 1.0)]]
    preds = first_preds + [[ebox(11, 0.0, 0.5), ebox(12, 0.0, 1.5)]]

    # label 0 comes first and keeps 11; label 1 goes to the solver and takes 12
    row = single_class(
        evaluate_sequences([(first + [[label_0, label_1]], preds)], policy)
    )
    assert (row["matches"], row["miss"], row["fp"], row["mismatch"]) == (4, 0, 0, 1)
    assert row["s_mota_components"]["mismatch"] == 1

    # label 1 comes first and keeps 11; label 0 cannot match 12
    row = single_class(
        evaluate_sequences([(first + [[label_1, label_0]], preds)], policy)
    )
    assert (row["matches"], row["miss"], row["fp"], row["mismatch"]) == (3, 1, 1, 0)


def test_mismatch_counted_once_at_change_frame():
    labels = [[ebox(0, 0, 0)] for _ in range(4)]
    preds = [
        [ebox(21, 0, 0)],
        [ebox(21, 0, 0)],
        [ebox(22, 0, 0)],  # switch here
        [ebox(22, 0, 0)],
    ]
    row = single_class(evaluate_sequences([(labels, preds)]))
    assert row["mismatch"] == 1


def test_report_formats():
    labels, preds = random_sequence(1)
    report = evaluate_sequences([(labels, preds)])
    text = format_report(report)
    assert "MOTA" in text and "vehicle" in text
    rows = report_csv_rows(report)
    assert rows[0]["class"] == "vehicle"
    assert "motp_velocity_all" in rows[0]


def test_label_frames_from_scenario_roundtrip():
    spec = ObjectSpec(VEH, MotionProfile.constant_velocity(1.0, 0.0), (0, 0), 0.0, SIZE)
    scenario = generate(
        SimConfig(frames=5, noise=NOISELESS), (spec,), seed=0
    )
    frames = label_frames_from_scenario(scenario)
    assert len(frames) == 5
    assert frames[0][0].ident == 0
    assert frames[2][0].state.velocity == (1.0, 0.0)


def test_state_error_helper():
    a = StateVector((0, 0), (3.0, 4.0), (0, 0))
    b = StateVector((1, 1), (0.0, 0.0), (0, 0))
    assert state_error(a, b, "velocity") == pytest.approx(5.0)
    assert state_error(a, b, "position") == pytest.approx(math.sqrt(2))


# --- the batched IoU pass against per-frame matrices ------------------------

PED = ClassId.PEDESTRIAN
EVAL_ROW = st.tuples(
    st.sampled_from([VEH, PED]),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),  # center
    st.floats(0.3, 3.0), st.floats(0.3, 5.0),  # width, length
    st.floats(-math.pi, math.pi, exclude_min=True),
    st.tuples(*[st.floats(-2.0, 2.0)] * 4),  # velocity, acceleration
)


@st.composite
def eval_frame(draw):
    """One frame's rows: empty, labels only, predictions only or both; ids
    from a small pool, so that they recur across frames."""
    kind = draw(st.sampled_from(["empty", "labels", "preds", "both"]))
    sides = []
    for side in ("labels", "preds"):
        present = kind in (side, "both")
        ids = draw(st.lists(st.integers(0, 5), unique=True, max_size=5)) if present else []
        sides.append([(ident, *draw(EVAL_ROW)) for ident in ids])
    return sides


def eval_table(frames) -> EvalTable:
    rows = [row for frame in frames for row in frame]
    return EvalTable(
        np.cumsum([0, *map(len, frames)]),
        [r[0] for r in rows],
        [r[1] for r in rows],
        np.array([(cx, cy, 0.75, w, l, 1.5, h) for _, _, cx, cy, w, l, h, _ in rows]).reshape(-1, 7),
        np.array([(cx, cy, *motion) for _, _, cx, cy, _, _, _, motion in rows]).reshape(-1, 6),
    )


# A state gate or alpha_s per class and gated state: errors between the
# rows of `EVAL_ROW` run from 0 to about 5.7, so finite values bite.
GATE = st.floats(0.1, 4.0) | st.just(INF)
PER_STATE = st.fixed_dictionaries({"velocity": GATE, "acceleration": GATE})


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(eval_frame(), max_size=6), min_size=1, max_size=3),
    st.integers(1, 4),
    st.sampled_from([0.1, 0.5]),
    st.booleans(),
    st.fixed_dictionaries({VEH: PER_STATE, PED: PER_STATE}),
    st.fixed_dictionaries({VEH: PER_STATE, PED: PER_STATE}),
)
def test_batched_iou_pass_reports_as_per_frame_matrices(
    sequences, chunk, threshold, persistence, gates, alpha
):
    """Sequences of random frames of two classes, with empty, labels-only and
    predictions-only frames, clipped a few pairs at a time so that chunks
    span frames, under state gates and alpha_s drawn per class and state and
    under the same policy with no gate: the report equals, byte for byte,
    that of per-frame `bev_iou_matrix` IoUs, state gates over every pair of
    a frame and MOTP sums added match by match."""
    policy = MatchingPolicy(
        iou_threshold={VEH: threshold, PED: threshold},
        state_thresholds=gates,
        alpha_s=alpha,
        persistence=persistence,
    )
    for variant in (policy, policy.mota_only()):
        batched, per_frame = Evaluator(variant), PerFrameEvaluator(variant)
        with mock.patch.object(metrics, "_CHUNK_PAIRS", chunk):
            for frames in sequences:
                labels = eval_table([f[0] for f in frames])
                preds = eval_table([f[1] for f in frames])
                batched.add_sequence(labels, preds)
                per_frame.add_sequence(labels, preds)
        want = per_frame.report()
        assert json.dumps(batched.report()) == json.dumps(want)


MOTA_KEYS = ("gt_total", "matches", "fp", "miss", "mismatch", "mota",
             "fp_pct", "miss_pct", "mismatch_pct")


def raise_state_error(preds: EvalTable, labels: EvalTable, row: int, state: str, angle: float):
    """`preds` with prediction `row`'s `state` pushed, in direction `angle`,
    by 1 plus twice its largest error against any label of its frame: its
    error against every label of the frame rises by at least 1."""
    k = int(np.searchsorted(preds.offsets, row, side="right")) - 1
    c = metrics._STATE_COLUMNS[state]
    frame_labels = labels.states[labels.offsets[k] : labels.offsets[k + 1], c : c + 2]
    errors = np.hypot(*(frame_labels - preds.states[row, c : c + 2]).T)
    push = 1.0 + 2.0 * errors.max(initial=0.0)
    states = preds.states.copy()
    states[row, c : c + 2] += push * np.array([math.cos(angle), math.sin(angle)])
    return EvalTable(preds.offsets, preds.ids, preds.classes, preds.boxes, states)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(eval_frame(), min_size=1, max_size=6),
    st.data(),
    st.sampled_from([0.1, 0.5]),
    st.floats(0.2, 3.0),
    st.booleans(),
)
def test_raising_one_state_error_keeps_mota_and_never_raises_one_frame_smota(
    frames, data, threshold, gate, persistence
):
    """ROADMAP item 18's property as it can hold: raising one prediction's
    state error (against every label of its frame) leaves MOTA and every
    MOTA count unchanged over a sequence, and in a one-frame sequence, where
    the S-MOTA matching is one of maximum cardinality among the pairs that
    pass the gates, it never raises S-MOTA."""
    labels = eval_table([f[0] for f in frames])
    preds = eval_table([f[1] for f in frames])
    if not preds.ids:
        return
    row = data.draw(st.integers(0, len(preds.ids) - 1))
    state = data.draw(st.sampled_from(metrics.GATED_STATES))
    raised = raise_state_error(preds, labels, row, state, data.draw(st.floats(-math.pi, math.pi)))
    policy = MatchingPolicy(
        iou_threshold={VEH: threshold, PED: threshold},
        state_thresholds={cls: {"velocity": gate, "acceleration": gate} for cls in (VEH, PED)},
        persistence=persistence,
    )

    def report(label_table, pred_table):
        evaluator = Evaluator(policy)
        evaluator.add_sequence(label_table, pred_table)
        return evaluator.report()["classes"]

    before, after = report(labels, preds), report(labels, raised)
    assert before.keys() == after.keys()
    for cls in before:
        assert {k: after[cls][k] for k in MOTA_KEYS} == {k: before[cls][k] for k in MOTA_KEYS}

    k = int(np.searchsorted(preds.offsets, row, side="right")) - 1
    one_frame = frame_table(labels, k)
    before, after = report(one_frame, frame_table(preds, k)), report(one_frame, frame_table(raised, k))
    for cls in before:
        if before[cls]["s_mota"] is not None:
            assert after[cls]["s_mota"] <= before[cls]["s_mota"]


def test_motp_sums_run_on_across_sequences_in_match_order():
    """Velocity errors 0.1, then 0.2 and 0.3 in a second sequence: the sum is
    ((0.1 + 0.2) + 0.3), added in match order from the running total, not
    0.1 + (0.2 + 0.3)."""
    def sequence(errors):
        labels = [[ebox(i, 10.0 * i, 0.0) for i in range(len(errors))]]
        preds = [[ebox(i, 10.0 * i, 0.0, vel=(e, 0.0)) for i, e in enumerate(errors)]]
        return labels, preds

    row = single_class(evaluate_sequences([sequence([0.1]), sequence([0.2, 0.3])]))
    assert row["motp"]["velocity"]["all"] == ((0.1 + 0.2) + 0.3) / 3
    assert row["motp"]["velocity"]["all"] != (0.1 + (0.2 + 0.3)) / 3
