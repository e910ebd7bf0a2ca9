import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Box7,
    Detection,
    center_distance,
    detections_table,
    euler_extrapolate,
    frame_rows,
    mc_bev_iou,
    normalize_heading,
    parallel_crossings,
    state_array,
    state_at,
    state_from_array,
    table_rows,
)
from sttrack import core
from sttrack.core import (
    ClassId,
    StateVector,
    bev_iou,
    bev_iou_matrix,
    bev_iou_pairs,
    extrapolate,
)


def make_box(cx=0.0, cy=0.0, w=2.0, l=4.0, heading=0.0, cz=1.0, h=1.5):
    return Box7((cx, cy, cz), (w, l, h), heading)


def make_detection(cx=0.0, cy=0.0, frame=0, det_id=0, heading=0.0, conf=0.9):
    return Detection(
        box=make_box(cx, cy, heading=heading),
        appearance=(0.1, 0.2 * det_id),
        motion=(0.0, -0.5 * det_id),
        confidence=conf,
        frame_index=frame,
        detection_id=det_id,
        class_id=ClassId.VEHICLE if det_id % 2 else ClassId.PEDESTRIAN,
    )


def iou(a: Box7, b: Box7) -> float:
    return bev_iou(a.as_row(), b.as_row())


def random_box(rng):
    return make_box(
        cx=rng.uniform(-5, 5),
        cy=rng.uniform(-5, 5),
        w=rng.uniform(0.5, 3.0),
        l=rng.uniform(0.5, 5.0),
        heading=rng.uniform(-math.pi, math.pi),
    )


# --- bev_iou ---------------------------------------------------------------


def test_iou_identical_boxes():
    b = make_box(heading=0.7)
    assert iou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_iou_disjoint():
    a = make_box(0, 0, w=2, l=2)
    b = make_box(100, 0, w=2, l=2)
    assert iou(a, b) == 0.0


def test_iou_unit_squares_rotated_45deg():
    a = make_box(0, 0, w=1, l=1)
    b = make_box(0, 0, w=1, l=1, heading=math.pi / 4)
    got = iou(a, b)
    # frozen from the Monte-Carlo oracle (1e6 samples, seed 0): 0.70684
    assert got == pytest.approx(0.70684, abs=0.01)
    assert got == pytest.approx(mc_bev_iou(a, b), abs=0.01)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        ab = iou(a, b)
        assert ab == pytest.approx(iou(b, a), abs=1e-12)
        assert 0.0 <= ab <= 1.0


def test_iou_rigid_transform_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = random_box(rng), random_box(rng)
        base = iou(a, b)
        theta = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-20, 20, size=2)
        ct, st = math.cos(theta), math.sin(theta)

        def moved(box):
            x, y, z = box.center
            return Box7(
                (x * ct - y * st + tx, x * st + y * ct + ty, z),
                box.size,
                box.heading + theta,
            )

        assert iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_iou_partial_overlap_against_monte_carlo():
    rng = np.random.default_rng(21)
    for i in range(5):
        a = random_box(rng)
        b = make_box(
            cx=a.center[0] + rng.uniform(-1, 1),
            cy=a.center[1] + rng.uniform(-1, 1),
            w=rng.uniform(0.5, 3),
            l=rng.uniform(0.5, 5),
            heading=rng.uniform(-math.pi, math.pi),
        )
        assert iou(a, b) == pytest.approx(
            mc_bev_iou(a, b, n_samples=200_000, seed=i), abs=0.01
        )


def test_iou_matrix_matches_pairwise():
    rng = np.random.default_rng(8)
    boxes_a = [random_box(rng) for _ in range(6)]
    boxes_b = [random_box(rng) for _ in range(4)]
    m = bev_iou_matrix([b.as_row() for b in boxes_a], [b.as_row() for b in boxes_b])
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)
    assert bev_iou_matrix([], [b.as_row() for b in boxes_b]).shape == (0, 4)


RAW_BOX = st.tuples(
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),  # center
    st.floats(0.2, 5.0), st.floats(0.2, 6.0),  # width, length
    st.floats(-4 * math.pi, 4 * math.pi) | st.sampled_from([math.pi, -math.pi, 2 * math.pi]),
)


def raw_box(cx, cy, w, l, heading):
    return Box7((cx, cy, 0.75), (w, l, 1.5), heading)  # normalizes the heading


TOUCHING = st.tuples(
    RAW_BOX, st.floats(-math.pi, math.pi), st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12])
)


def touching_boxes(boxes_a, touching):
    """Boxes placed where their circumcircles just touch one of `boxes_a`."""
    placed = []
    for i, ((_, _, w, l, heading), direction, scale) in enumerate(touching):
        a = boxes_a[i % len(boxes_a)]
        reach = 0.5 * math.hypot(*a.size[:2]) + 0.5 * math.hypot(w, l)
        cx = a.center[0] + scale * reach * math.cos(direction)
        cy = a.center[1] + scale * reach * math.sin(direction)
        placed.append(raw_box(cx, cy, w, l, heading))
    return placed


def overlapping(a, b):
    dx, dy = a.center[0] - b.center[0], a.center[1] - b.center[1]
    reach = 0.5 * math.hypot(*a.size[:2]) + 0.5 * math.hypot(*b.size[:2])
    return dx * dx + dy * dy < reach * reach


@settings(max_examples=150, deadline=None)
@given(
    st.lists(RAW_BOX, min_size=1, max_size=5),
    st.lists(RAW_BOX, max_size=5),
    st.lists(TOUCHING, max_size=4),
)
def test_iou_matrix_equals_per_pair_iou_bit_for_bit(raw_a, raw_b, touching):
    """Box rows of `Box7`s, also with headings outside (-pi, pi] and boxes
    placed where their circumcircles just touch one of `boxes_a`: the matrix
    holds each pair's `bev_iou`, and calls it on exactly the pairs whose
    circumcircles overlap."""
    boxes_a = [raw_box(*r) for r in raw_a]
    boxes_b = [raw_box(*r) for r in raw_b] + touching_boxes(boxes_a, touching)
    rows_a = np.array([b.as_row() for b in boxes_a])
    rows_b = np.array([b.as_row() for b in boxes_b]).reshape(-1, 7)
    with mock.patch.object(core, "bev_iou", wraps=core.bev_iou) as per_pair:
        got = bev_iou_matrix(rows_a, rows_b)
    expected = np.array([[iou(a, b) for b in boxes_b] for a in boxes_a]).reshape(got.shape)
    assert got.tobytes() == expected.tobytes()

    called = [(tuple(a), tuple(b)) for (a, b), _ in per_pair.call_args_list]
    assert called == [
        (a.as_row(), b.as_row()) for a in boxes_a for b in boxes_b if overlapping(a, b)
    ]


def assert_pairs_equal_per_pair_iou(rows_a, rows_b):
    """`bev_iou_pairs` of the rows equals `bev_iou` of each pair, byte for byte."""
    rows_a, rows_b = np.reshape(rows_a, (-1, 7)), np.reshape(rows_b, (-1, 7))
    got = bev_iou_pairs(rows_a, rows_b)
    expected = np.array([bev_iou(a, b) for a, b in zip(rows_a.tolist(), rows_b.tolist())])
    assert got.shape == (len(rows_a),)
    assert got.tobytes() == expected.reshape(-1).tobytes()
    return got


@settings(max_examples=150, deadline=None)
@given(
    st.lists(RAW_BOX, min_size=1, max_size=6),
    st.lists(RAW_BOX, max_size=6),
    st.lists(TOUCHING, max_size=6),
)
def test_iou_pairs_equal_per_pair_iou_bit_for_bit(raw_a, raw_b, touching):
    """Every gated pair of `boxes_a` with `boxes_b`, also boxes whose
    circumcircles just touch, clipped in one batch: each IoU is `bev_iou`'s."""
    boxes_a = [raw_box(*r) for r in raw_a]
    boxes_b = [raw_box(*r) for r in raw_b] + touching_boxes(boxes_a, touching)
    pairs = [(a.as_row(), b.as_row()) for a in boxes_a for b in boxes_b if overlapping(a, b)]
    assert_pairs_equal_per_pair_iou([a for a, _ in pairs], [b for _, b in pairs])


def rect(cx, cy, w, l, heading):
    return (cx, cy, 0.75, w, l, 1.5, heading)


def test_iou_pairs_identical_and_nested_boxes():
    big, small = rect(1.0, -2.0, 3.0, 5.0, 0.3), rect(1.2, -2.1, 1.0, 2.0, -1.1)
    got = assert_pairs_equal_per_pair_iou([big, small, big], [big, big, small])
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert got[1] == got[2] == pytest.approx(2.0 / 15.0, abs=1e-12)


def test_iou_pairs_parallel_edges_skip_like_the_scalar_clip():
    # Two boxes of one size and heading, one shifted along that heading: an
    # edge of each lies on a line of the other, and rounding puts the
    # endpoints of some subject edges on both sides of a clip edge they
    # parallel, where `_clip_polygon` skips the intersection.
    a = [rect(-1.0510199014170043, 0.7584596278805664, 2.0, 4.0, 0.8216636824571206),
         rect(4.721002692327158, 3.2602491308551365, 0.5, 4.0, math.pi / 4),
         rect(-2.184112956876766, 4.6939502484846365, 2.0, 4.0, math.pi / 4)]
    b = [rect(-2.0248782652178026, -0.2887250600148914, 2.0, 4.0, 0.8216636824571206),
         rect(7.248383739728315, 5.787630178256293, 0.5, 4.0, math.pi / 4),
         rect(-1.7886257704538886, 5.089437434907514, 2.0, 4.0, math.pi / 4)]
    for ra, rb in zip(a, b):
        subject = core._footprint(ra[0], ra[1], ra[3], ra[4], ra[6])
        clip = core._footprint(rb[0], rb[1], rb[3], rb[4], rb[6])
        assert parallel_crossings(subject, clip) > 0
    assert_pairs_equal_per_pair_iou(a, b)


def test_iou_pairs_of_only_disjoint_gated_pairs_are_zero():
    # thin parallel strips side by side: circumcircles overlap, footprints
    # do not, so one clip edge empties every polygon and the batch's vertex
    # arrays go to width 0
    a = [rect(0.0, 0.0, 0.2, 6.0, 0.0), rect(5.0, 5.0, 0.2, 6.0, math.pi / 2)]
    b = [rect(0.0, 1.0, 0.2, 6.0, 0.0), rect(4.0, 5.0, 0.3, 6.0, -math.pi / 2)]
    for ra, rb in zip(a, b):
        assert overlapping(Box7(ra[:3], ra[3:6], ra[6]), Box7(rb[:3], rb[3:6], rb[6]))
    assert assert_pairs_equal_per_pair_iou(a, b).tolist() == [0.0, 0.0]


def test_iou_pairs_of_no_pairs():
    assert bev_iou_pairs(np.empty((0, 7)), np.empty((0, 7))).shape == (0,)
    assert bev_iou_pairs([], []).shape == (0,)


def test_iou_pairs_headings_at_plus_and_minus_pi():
    # raw rows at -pi, which `Box7` would normalize to pi, against both
    a = [rect(0.0, 0.0, 2.0, 4.0, -math.pi), rect(0.0, 0.0, 2.0, 4.0, math.pi),
         rect(0.3, 0.1, 2.0, 4.0, -math.pi), rect(0.3, 0.1, 1.5, 3.0, math.pi)]
    b = [rect(0.0, 0.0, 2.0, 4.0, math.pi), rect(0.5, 0.2, 2.0, 4.0, -math.pi),
         rect(0.0, 0.0, 2.0, 4.0, math.pi / 2), rect(0.0, 0.0, 2.0, 4.0, -math.pi)]
    got = assert_pairs_equal_per_pair_iou(a, b)
    assert got[0] == pytest.approx(1.0, abs=1e-12)


# --- extrapolate -----------------------------------------------------------


def test_extrapolate_static():
    s = state_array(state_at(0.0, 0.0))
    assert extrapolate(s, 0.1).tolist() == s.tolist()


def test_extrapolate_constant_velocity():
    out = extrapolate(state_array(StateVector((0, 0), (2, 0), (0, 0))), 0.5)
    assert out[:2] == pytest.approx((1.0, 0.0))
    assert out[2:4].tolist() == [2.0, 0.0]


def random_states(rng, n):
    return np.concatenate(
        [rng.uniform(-5, 5, (n, 2)), rng.uniform(-3, 3, (n, 2)), rng.uniform(-2, 2, (n, 2))],
        axis=1,
    )


def test_extrapolate_against_integrator():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = random_states(rng, 1)[0]
        dt = rng.uniform(0.01, 2.0)
        got = state_from_array(extrapolate(s, dt))
        ref = euler_extrapolate(state_from_array(s), dt)
        assert got.position == pytest.approx(ref.position, abs=1e-6)
        assert got.velocity == pytest.approx(ref.velocity, abs=1e-9)


def test_extrapolate_semigroup():
    rng = np.random.default_rng(14)
    for _ in range(30):
        s = random_states(rng, 1)[0]
        t1, t2 = rng.uniform(0, 1, 2)
        two_step = extrapolate(extrapolate(s, t1), t2)
        one_step = extrapolate(s, t1 + t2)
        assert two_step[:2] == pytest.approx(one_step[:2], abs=1e-9)


def test_extrapolate_stacked_is_each_state_in_python_floats():
    # each row, with its own dt, as `p + v*dt + 0.5*a*dt*dt` in Python floats
    rng = np.random.default_rng(24)
    states, dts = random_states(rng, 12), rng.uniform(0, 2, 12)
    dts[3] = 0.0
    got = extrapolate(states.reshape(3, 4, 6), dts.reshape(3, 4)).reshape(12, 6)
    for row, s, dt in zip(got.tolist(), states.tolist(), dts.tolist()):
        px, py, vx, vy, ax, ay = s
        assert row == [
            px + vx * dt + 0.5 * ax * dt * dt, py + vy * dt + 0.5 * ay * dt * dt,
            vx + ax * dt, vy + ay * dt, ax, ay,
        ]
    assert extrapolate(states, 0.3).tolist() == extrapolate(states, np.full(12, 0.3)).tolist()


def test_extrapolate_rejects_negative_dt():
    with pytest.raises(ValueError, match="dt must be >= 0"):
        extrapolate(state_array(state_at(0.0, 0.0)), -0.1)
    with pytest.raises(ValueError, match="dt must be >= 0"):
        extrapolate(np.zeros((3, 6)), [0.1, -0.1, 0.0])
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        extrapolate(state_array(StateVector((1e308, 0), (1e308, 0), (0, 0))), 2.0)


# --- center_distance -------------------------------------------------------


def test_center_distance_coincident():
    s = state_at(3.0, 4.0)
    assert center_distance(s, make_box(3, 4)) == 0.0


def test_center_distance_345():
    s = state_at(0.0, 0.0)
    assert center_distance(s, make_box(3, 4, cz=7.0)) == pytest.approx(5.0)


def test_center_distance_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        px, py, bx, by = rng.uniform(-10, 10, 4)
        s = state_at(px, py)
        d = center_distance(s, make_box(bx, by))
        assert d == pytest.approx(math.sqrt((px - bx) ** 2 + (py - by) ** 2))


# --- type invariants -------------------------------------------------------


def test_heading_normalized_into_half_open_interval():
    assert normalize_heading(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert normalize_heading(-math.pi) == pytest.approx(math.pi)
    assert normalize_heading(math.pi) == pytest.approx(math.pi)
    b = make_box(heading=2 * math.pi + 0.25)
    assert b.heading == pytest.approx(0.25)


def test_box_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Box7((0, 0, 0), (0.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        Box7((0, 0, 0), (1.0, -2.0, 1.0), 0.0)


def test_state_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        StateVector((math.nan, 0.0), (0.0, 0.0), (0.0, 0.0))


def test_state_vector_array_round_trip():
    s = StateVector((1.25, -2.5), (0.1, 0.2), (-0.3, 0.7))
    assert state_from_array(state_array(s)) == s
    states = [s, StateVector((-0.0, 5e-324), (1e300, -0.0), (0.0, -1.5))]
    back = StateVector.from_rows(np.stack([state_array(s) for s in states]))
    assert back == states
    assert [math.copysign(1.0, v) for v in (*back[1].position, *back[1].velocity)] == [
        -1.0, 1.0, 1.0, -1.0,
    ]
    assert StateVector.from_rows(np.empty((0, 6))) == []
    with pytest.raises(ValueError, match="non-finite"):
        StateVector.from_rows(np.array([[0.0, 0.0, math.inf, 0.0, 0.0, 0.0]]))


def test_detections_take_and_split_keep_every_column():
    dets = [make_detection(1.5 * j, -0.5 * j, det_id=j, conf=0.1 * j) for j in range(6)]
    table = detections_table(dets)
    taken = table.take([4, 0, 5])
    assert repr(table_rows(taken)) == repr((dets[4], dets[0], dets[5]))
    assert repr(table_rows(table.take([]))) == "()"
    frames = table.split([0, 2, 2, 6])
    assert repr(frame_rows(frames)) == repr((
        tuple(dets[:2]),
        (),
        tuple(dataclasses.replace(det, frame_index=2) for det in dets[2:]),
    ))
    assert [f.appearance.shape for f in frames] == [(2, 2), (0, 2), (4, 2)]
