import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttrack import autodiff as ad
from sttrack import model as m
from sttrack.autodiff import Tensor
from sttrack.core import ClassId, StateVector
from sttrack.model import (
    Examples,
    SttConfig,
    TrainSettings,
    context_scores,
    decode_states,
    detection_features,
    encode_batch,
    extract_examples,
    init_params,
    pack_batch,
    queries_from_histories,
    select_context,
    train,
)
from sttrack.sim import MotionProfile, NoiseModel, ObjectSpec, SimConfig, generate

from oracles import (
    Box7,
    Detection,
    detection_features_row,
    detections_table,
    frame_rows,
    history_blocks,
    state_at,
    extract_examples_per_detection,
    limit_padded,
    op_by_op_blocks,
    state_from_array,
    zero_filled_backward,
)
from oracles import select_context as select_context_per_row

TINY = SttConfig(d_q=8, d_a=3, d_m=2, t_max=3, k_max=4, heads=2, mlp_hidden=8)


def _evaluate_loss(table, examples, params, cfg, batch_size=256):
    """Mean total loss over a dataset (no gradient bookkeeping)."""
    total, n = 0.0, len(examples.positive)
    with ad.no_grad():
        for lo in range(0, n, batch_size):
            chunk = examples.take(slice(lo, lo + batch_size))
            loss = m.loss_components_batch(params, cfg, pack_batch(table, chunk, cfg))["total"]
            total += loss.item() * len(chunk.positive)
    return total / n


def _association_accuracy(table, examples, params, cfg, batch_size=256):
    """Fraction of positive-labeled examples whose positive wins the argmax."""
    hits = 0
    with_positive = examples.take(examples.positive >= 0)
    totals = len(with_positive.positive)
    with ad.no_grad():
        for lo in range(0, totals, batch_size):
            chunk = with_positive.take(slice(lo, lo + batch_size))
            batch = pack_batch(table, chunk, cfg)
            logits, _, _ = m.forward_batch(params, cfg, batch)
            live = np.where(batch.ctx_mask, logits.data, -np.inf)
            hits += int((live.argmax(axis=1) == chunk.positive).sum())
    return hits / totals if totals else float("nan")


def make_detection(cx=0.0, cy=0.0, frame=0, det_id=0, cfg=TINY, motion=(0.0, 0.0),
                   appearance=None, conf=0.9, heading=0.2):
    if appearance is None:
        appearance = tuple(0.1 * (i + 1) for i in range(cfg.d_a))
    return Detection(
        box=Box7((cx, cy, 0.75), (2.0, 4.5, 1.5), heading),
        appearance=appearance,
        motion=motion,
        confidence=conf,
        frame_index=frame,
        detection_id=det_id,
        class_id=ClassId.VEHICLE,
    )


def make_example(cfg=TINY, n_hist=2, n_ctx=3, positive=0, offset=(0.0, 0.0)):
    """An example as (history, context, labels, state_t, state_prev), with
    detections in place of table rows (see `index_examples`)."""
    ox, oy = offset
    history = tuple(
        make_detection(ox + 0.1 * i, oy, frame=i, det_id=i, cfg=cfg)
        for i in range(n_hist)
    )
    context = tuple(
        make_detection(ox + 0.5 * j, oy + 0.3, frame=n_hist, det_id=j, cfg=cfg)
        for j in range(n_ctx)
    )
    labels = tuple(1 if j == positive else 0 for j in range(n_ctx))
    state_t = np.array([ox + 0.2, oy, 1.0, 0.0, 0.1, 0.0])
    state_prev = np.array([ox + 0.1, oy, 1.0, 0.0, 0.1, 0.0])
    return history, context, labels, state_t, state_prev


def as_columns(examples, cfg=TINY):
    """`Examples` of (history rows, context rows, labels, state_t,
    state_prev) tuples, filled in one example at a time."""
    n = len(examples)
    out = Examples(
        np.zeros((n, cfg.t_max), int), np.zeros(n, int), np.zeros((n, cfg.k_max), int),
        np.zeros(n, int), np.full(n, -1), np.zeros((n, 6)), np.zeros((n, 6)),
    )
    for i, (history, context, labels, state_t, state_prev) in enumerate(examples):
        out.history[i, cfg.t_max - len(history) :] = history
        out.context[i, : len(context)] = context
        out.hist_len[i], out.ctx_len[i] = len(history), len(context)
        if 1 in labels:
            out.positive[i] = labels.index(1)
        out.state_t[i], out.state_prev[i] = state_t, state_prev
    return out


def index_examples(raw, cfg=TINY):
    """(table, examples): the feature table of `make_example`-style raw
    examples' detections, and `Examples` that name them by row."""
    dets, examples = [], []
    for history, context, *rest in raw:
        rows = []
        for group in (history, context):
            rows.append(tuple(range(len(dets), len(dets) + len(group))))
            dets.extend(group)
        examples.append((*rows, *rest))
    return detection_features(detections_table(dets), cfg), as_columns(examples, cfg)


def pack(raw, cfg=TINY):
    return pack_batch(*index_examples(raw, cfg), cfg)


def grouped(groups, cfg=TINY):
    """(rows, lengths) of detection groups, as `context_scores` takes them."""
    dets = detections_table([det for g in groups for det in g], cfg.d_a, cfg.d_m)
    return detection_features(dets, cfg), [len(g) for g in groups]


def histories(groups, cfg=TINY):
    """(blocks, lengths) of detection histories, as `queries_from_histories`
    takes them."""
    return history_blocks(
        [detection_features(detections_table(g, cfg.d_a, cfg.d_m), cfg) for g in groups],
        cfg.t_max,
    )


# --- features and encoder ----------------------------------------------------


def test_features_bitwise_equal_to_row_reference():
    # Headings at and next to +-pi, and detections from several frames in
    # one group, so nothing depends on a frame or on heading wrap-around.
    cfg = TINY
    rng = np.random.default_rng(4)
    headings = [math.pi, -math.pi, math.nextafter(-math.pi, 0.0),
                math.nextafter(math.pi, 0.0), 0.0, -0.0, 1e-300]
    dets = [
        make_detection(rng.uniform(-50, 50), rng.uniform(-50, 50), frame=int(f),
                       det_id=i, motion=tuple(rng.normal(0, 3, cfg.d_m)),
                       appearance=tuple(rng.normal(0, 1, cfg.d_a)),
                       conf=rng.uniform(0, 1), heading=h)
        for i, (f, h) in enumerate(zip(rng.permutation(len(headings)), headings))
    ]
    rows = detection_features(detections_table(dets), cfg)
    # two examples share detections 1 and 2, and the table holds a row no
    # example names
    examples = as_columns([
        ((0, 1), (2, 3, 4), (0, 1, 0), np.zeros(6), np.zeros(6)),
        ((2, 5, 1), (1,), (1,), np.zeros(6), np.zeros(6)),
    ], cfg)
    assert_packed_as_rows(pack_batch(rows, examples, cfg), examples, dets, cfg)
    want = np.array([detection_features_row(d, (0.0, 0.0), cfg) for d in dets])
    assert rows.tobytes() == want.tobytes()


def assert_packed_as_rows(batch, examples, dets, cfg):
    """Every slot of `batch` is bitwise the reference row of the detection
    its example names, relative to the example's anchor, the centre of its
    last history detection; pads are zero. The labels mark the positive slot
    and the state targets are the states relative to the anchor, bitwise."""
    for i, (history, hist_len, context, ctx_len, positive, *states) in enumerate(zip(*examples)):
        history, context = history[cfg.t_max - hist_len :], context[:ctx_len]
        anchor = dets[history[-1]].box.center[:2]
        for feat, mask, group in ((batch.hist_feat, batch.hist_mask, history),
                                  (batch.ctx_feat, batch.ctx_mask, context)):
            n = len(group)
            want = np.array([detection_features_row(dets[r], anchor, cfg) for r in group])
            assert feat[i, :n].tobytes() == want.tobytes()
            assert mask[i].tolist() == [j < n for j in range(mask.shape[1])]
            assert not feat[i, n:].any()
        assert batch.labels[i].tolist() == [float(j == positive) for j in range(len(mask[i]))]
        for target, state in zip((batch.target_t[i], batch.target_prev[i]), states):
            want = [state[0] - anchor[0], state[1] - anchor[1], *state[2:].tolist()]
            assert target.tobytes() == np.array(want).tobytes()


def test_encode_output_width():
    params = init_params(TINY, seed=0)
    rows = detection_features(detections_table([make_detection()]), TINY)
    out = encode_batch(params, Tensor(rows))
    assert out.shape == (1, TINY.d_q)


def test_encode_deterministic():
    params = init_params(TINY, seed=0)
    dets = detections_table([make_detection(1.0, 2.0), make_detection(-3.0, 0.5, det_id=1)])
    a = encode_batch(params, Tensor(detection_features(dets, TINY))).data
    b = encode_batch(params, Tensor(detection_features(dets, TINY))).data
    assert a.tobytes() == b.tobytes()


def test_encode_rejects_wrong_widths():
    bad = detections_table([make_detection(appearance=(0.1,) * 7)] * 2)
    with pytest.raises(ValueError, match="appearance width 7 != configured d_a 3"):
        detection_features(bad, TINY)
    # an empty table has no rows to check
    assert detection_features(detections_table([]), TINY).shape == (0, TINY.feature_width)


def test_features_reject_wrong_motion_width():
    bad = detections_table([make_detection(motion=(0.0,) * 5)])
    with pytest.raises(ValueError, match="motion width 5 != configured d_m 2"):
        detection_features(bad, TINY)


def test_encode_gradient_wrt_input_features():
    # d(readout)/d(feature) via the graph matches central differences
    params = init_params(TINY, seed=1)
    rng = np.random.default_rng(0)
    feat = rng.normal(0, 1, (1, TINY.feature_width))
    readout = Tensor(rng.normal(0, 1, (TINY.d_q, 1)))

    leaf = Tensor(feat, requires_grad=True)
    out = m.ad.matmul(m.encode_batch(params, leaf), readout)
    out.backward()
    analytic = leaf.grad.copy()

    h = 1e-5
    for i in range(TINY.feature_width):
        feat_hi = feat.copy()
        feat_hi[0, i] += h
        feat_lo = feat.copy()
        feat_lo[0, i] -= h
        hi = m.ad.matmul(m.encode_batch(params, Tensor(feat_hi)), readout).item()
        lo = m.ad.matmul(m.encode_batch(params, Tensor(feat_lo)), readout).item()
        fd = (hi - lo) / (2 * h)
        rel = abs(analytic[0, i] - fd) / max(abs(analytic[0, i]) + abs(fd), 1e-3)
        assert rel <= 1e-4


# --- temporal fusion ---------------------------------------------------------


def test_fuse_single_embedding_deterministic_function():
    params = init_params(TINY, seed=0)
    det = make_detection(0.3, -0.2)
    out1 = queries_from_histories(params, TINY, *histories([[det]]))
    out2 = queries_from_histories(params, TINY, *histories([[det]]))
    assert out1.shape == (1, TINY.d_q)
    assert out1.tobytes() == out2.tobytes()


def test_fuse_rejects_empty_and_overlong_history():
    params = init_params(TINY, seed=0)
    ok = [make_detection()]
    with pytest.raises(ValueError, match="non-empty"):
        queries_from_histories(params, TINY, *histories([ok, []]))
    overlong = [make_detection(frame=f) for f in range(TINY.t_max + 1)]
    with pytest.raises(ValueError, match="4 detections exceeds t_max 3"):
        queries_from_histories(params, TINY, *histories([ok, overlong]))


def test_padding_relayout_invariance():
    # Whatever sits in the masked-off slots must not change any loss term.
    cfg = TINY
    params = init_params(cfg, seed=3)
    batch = pack(
        [make_example(cfg, n_hist=2, n_ctx=2),
         make_example(cfg, n_hist=1, n_ctx=3, positive=2, offset=(2.0, 1.0))],
        cfg,
    )
    base = m.loss_components_batch(params, cfg, batch)
    rng = np.random.default_rng(8)
    batch.hist_feat[~batch.hist_mask] = rng.normal(0, 1, (int((~batch.hist_mask).sum()),
                                                            cfg.feature_width))
    batch.ctx_feat[~batch.ctx_mask] = rng.normal(0, 1, (int((~batch.ctx_mask).sum()),
                                                          cfg.feature_width))
    noisy = m.loss_components_batch(params, cfg, batch)
    for key in ("loss_d", "loss_s_t", "loss_s_prev", "total"):
        assert noisy[key].item() == base[key].item()


def test_fuse_gradient_check():
    cfg = TINY
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    emb = Tensor(rng.normal(0, 1, (2, cfg.t_max, cfg.d_q)), requires_grad=True)
    mask = np.array([[True, True, False], [True, True, True]])
    onehot = np.zeros((2, 3, 3))
    onehot[0, 0, 1] = onehot[0, 1, 2] = 1.0
    onehot[1, 0, 0] = onehot[1, 1, 1] = onehot[1, 2, 2] = 1.0
    pool = np.zeros((2, 1, 3))
    pool[0, 0, :2] = 0.5
    pool[1, 0, :] = 1 / 3
    readout = Tensor(rng.normal(0, 1, (cfg.d_q, 1)))

    def build():
        fused = m.temporal_fuse_batch(params, cfg, emb, mask, onehot, pool)
        return m.ad.sum_(m.ad.matmul(fused, readout))

    from test_autodiff import check_grad

    check_grad(build, {"emb": emb, "wq": params["tf.wq"], "pe": params["tf.pe"],
                       "ln_g": params["tf.ln_g"]})


# --- state decoding ----------------------------------------------------------


def test_decode_state_six_components():
    params = init_params(TINY, seed=0)
    out = decode_states(params, np.linspace(-1, 1, TINY.d_q)[None, :])
    assert out.shape == (1, 6)
    assert isinstance(state_from_array(out[0]), StateVector)


# --- context selection -------------------------------------------------------


def frame_context(pred, dets, d, k):
    """`select_context` for one position, as detections."""
    (cols,) = select_context(
        [pred.position], [det.box.center[:2] for det in dets],
        [det.detection_id for det in dets], d, k,
    )
    return [dets[j] for j in cols]


def test_select_context_empty_when_out_of_radius():
    pred = state_at(0.0, 0.0)
    dets = [make_detection(100.0, 0.0)]
    assert frame_context(pred, dets, d=5.0, k=3) == []


def test_select_context_singleton_at_zero_distance():
    pred = state_at(1.0, 1.0)
    det = make_detection(1.0, 1.0)
    assert frame_context(pred, [det], d=5.0, k=3) == [det]


def test_select_context_truncates_to_k_nearest():
    rng = np.random.default_rng(7)
    pred = state_at(0.0, 0.0)
    dets = [
        make_detection(rng.uniform(-8, 8), rng.uniform(-8, 8), det_id=i)
        for i in range(30)
    ]
    got = frame_context(pred, dets, d=20.0, k=20)
    assert len(got) == 20
    # independent full sort
    ranked = sorted(
        dets, key=lambda det: (math.hypot(det.box.center[0], det.box.center[1]),
                               det.detection_id)
    )
    assert got == ranked[:20]


# Half-metre grid coordinates make equal distances (and points exactly on a
# radius of whole metres) common; a few free floats cover the rest.
_coordinate = st.one_of(
    st.integers(-16, 16).map(lambda v: 0.5 * v),
    st.floats(-8.0, 8.0, allow_nan=False),
)
_point = st.tuples(_coordinate, _coordinate)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_point, min_size=1, max_size=6),
    st.lists(_point, min_size=0, max_size=12),
    st.sampled_from([0.5, 1.0, 2.5, 3.0, 5.0, 30.0]),
    st.integers(1, 5),
    st.randoms(use_true_random=False),
)
def test_select_context_matrix_equals_per_row_loop(positions, centers, d, k, random):
    # ids in shuffled order, so that ties are not broken by column order
    ids = random.sample(range(100), len(centers))
    dets = [make_detection(cx, cy, det_id=i) for (cx, cy), i in zip(centers, ids)]
    got = select_context(positions, [det.box.center[:2] for det in dets], ids, d, k)
    assert len(got) == len(positions)
    for (px, py), cols in zip(positions, got):
        want = select_context_per_row(state_at(px, py), dets, d, k)
        assert [dets[j] for j in cols] == want


def test_select_context_orders_ties_by_id_and_excludes_the_radius():
    # three detections exactly 5 m away (ids 9, 3, 7 in column order) and
    # two nearer; k = 4 cuts the last of the ties
    centers = [(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (1.0, 0.0), (0.0, 2.0)]
    ids = [9, 3, 7, 4, 8]
    (cols,) = select_context([(0.0, 0.0)], centers, ids, 5.0 + 1e-9, 4)
    assert [ids[j] for j in cols] == [4, 8, 3, 7]
    (cols,) = select_context([(0.0, 0.0)], centers, ids, 5.0, 4)
    assert [ids[j] for j in cols] == [4, 8]
    # hypot(17, 52) == hypot(28, 47) as math.hypot rounds them, while
    # np.hypot puts one an ulp above the other
    for ids in ([1, 2], [2, 1]):
        (cols,) = select_context([(0.0, 0.0)], [(17.0, 52.0), (28.0, 47.0)], ids, 60.0, 2)
        assert [ids[j] for j in cols] == [1, 2]


def test_select_context_centres_an_ulp_apart_rank_as_math_hypot():
    # np.hypot ties the first pair and orders the second the other way round
    # from math.hypot
    pairs = [
        [(6.8114332354307, 3.971976052828065), (6.811433235430701, 3.971976052828065)],
        [(-1.907671867025769, -1.1236150211427738),
         (-1.9076718670257689, -1.1236150211427738)],
    ]
    for centers in pairs:
        for ids in ([1, 2], [2, 1]):
            dets = [make_detection(cx, cy, det_id=i) for (cx, cy), i in zip(centers, ids)]
            (cols,) = select_context([(0.0, 0.0)], centers, ids, 30.0, 2)
            want = select_context_per_row(state_at(0.0, 0.0), dets, 30.0, 2)
            assert [dets[j] for j in cols] == want
    # np.hypot puts this centre an ulp inside a radius that math.hypot puts
    # it on
    center = (6.811433235430701, 3.971976052828065)
    d = math.hypot(*center)
    (cols,) = select_context([(0.0, 0.0)], [center], [0], d, 1)
    assert cols.tolist() == []
    (cols,) = select_context([(0.0, 0.0)], [center], [0], math.nextafter(d, math.inf), 1)
    assert cols.tolist() == [0]


# --- TDI ---------------------------------------------------------------------


def test_tdi_single_live_slot():
    # beside a three-detection context the batch is three slots wide, so the
    # one-detection context has two padded slots; the state head runs only
    # under state_source "tdi", and the scores do not depend on it
    params = init_params(TINY, seed=0)
    queries = np.stack([np.linspace(-1, 1, TINY.d_q)] * 2)
    longer = [make_detection(0.5 * j, 0.1, det_id=j) for j in range(3)]
    contexts = (*grouped([[make_detection()], longer]), [(0.0, 0.0)] * 2)
    scores, states = context_scores(
        params, dataclasses.replace(TINY, state_source="tdi"), queries, *contexts
    )
    assert scores.shape == (2, 3)
    assert scores[0, 0] > 0.0
    assert np.all(scores[0, 1:] == 0.0)
    assert np.all(scores[1] > 0.0)
    assert states.shape == (2, 6)
    assert isinstance(state_from_array(states[0]), StateVector)
    tsd_scores, tsd_states = context_scores(params, TINY, queries, *contexts)
    assert tsd_scores.tobytes() == scores.tobytes() and tsd_states is None


def test_tdi_scores_in_sigmoid_range():
    params = init_params(TINY, seed=2)
    query = np.linspace(-0.5, 0.5, TINY.d_q)[None, :]
    context = [make_detection(0.5 * j, 0.1, det_id=j) for j in range(3)]
    scores, _ = context_scores(params, TINY, query, *grouped([context]), [(0.0, 0.0)])
    assert np.all((scores[0, :3] > 0.0) & (scores[0, :3] < 1.0))
    assert np.all(scores[0, 3:] == 0.0)


def test_tdi_rejects_empty_context():
    params = init_params(TINY, seed=0)
    queries = np.zeros((2, TINY.d_q))
    with pytest.raises(ValueError, match="non-empty"):
        context_scores(params, TINY, queries, *grouped([[make_detection()], []]),
                       [(0.0, 0.0)] * 2)
    overlong = [make_detection(det_id=j) for j in range(TINY.k_max + 1)]
    with pytest.raises(ValueError, match="5 detections exceeds k_max 4"):
        context_scores(params, TINY, queries, *grouped([[make_detection()], overlong]),
                       [(0.0, 0.0)] * 2)


# --- padding to the longest group -------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, TINY.t_max), st.integers(1, TINY.k_max)),
             min_size=1, max_size=6),
    st.sampled_from(["mean", "last"]),
    st.integers(0, 2**32 - 1),
)
def test_longest_group_padding_equals_limit_padding(sizes, pooling, seed):
    cfg = dataclasses.replace(TINY, pooling=pooling, state_source="tdi")
    params = init_params(cfg, seed=seed % 5)
    rng = np.random.default_rng(seed)
    hist_lengths = [h for h, _ in sizes]
    ctx_lengths = [c for _, c in sizes]
    hist_rows = rng.normal(0, 3, (sum(hist_lengths), cfg.feature_width))
    ctx_rows = rng.normal(0, 3, (sum(ctx_lengths), cfg.feature_width))
    # each track's anchor is the centre of its history's last row
    anchors = hist_rows[np.cumsum(hist_lengths) - 1, :2].tolist()
    blocks = history_blocks(np.split(hist_rows, np.cumsum(hist_lengths)[:-1]), cfg.t_max)

    queries = queries_from_histories(params, cfg, *blocks)
    scores, states = context_scores(params, cfg, queries, ctx_rows, ctx_lengths, anchors)
    with limit_padded():
        want = queries_from_histories(params, cfg, *blocks)
        want_scores, want_states = context_scores(
            params, cfg, queries, ctx_rows, ctx_lengths, anchors
        )
    assert want_scores.shape == (len(sizes), cfg.k_max)
    np.testing.assert_allclose(queries, want, rtol=0, atol=1e-12)
    width = max(ctx_lengths)
    assert scores.shape == (len(sizes), width)
    live = np.arange(width) < np.array(ctx_lengths)[:, None]
    np.testing.assert_allclose(scores[live], want_scores[:, :width][live], rtol=0, atol=1e-12)
    assert not scores[~live].any()
    np.testing.assert_allclose(states, want_states, rtol=0, atol=1e-12)


def test_longest_group_batch_loss_and_gradients_equal_limit_padded():
    # the longest history (2) and context (3) are shorter than t_max and k_max
    cfg = TINY
    raw = [
        make_example(cfg, n_hist=h, n_ctx=c, positive=c - 1, offset=(2.0 * i, -1.0 * i))
        for i, (h, c) in enumerate([(1, 2), (2, 1), (1, 3), (2, 3)])
    ]
    table, examples = index_examples(raw, cfg)
    trimmed = pack_batch(table, examples, cfg)
    with limit_padded():
        full = pack_batch(table, examples, cfg)
    assert trimmed.hist_feat.shape[1] == 2 and trimmed.ctx_feat.shape[1] == 3
    assert full.hist_feat.shape[1] == cfg.t_max and full.ctx_feat.shape[1] == cfg.k_max
    results = []
    for batch in (trimmed, full):
        params = init_params(cfg, seed=6)
        losses = m.loss_components_batch(params, cfg, batch)
        losses["total"].backward()
        results.append(({k: v.item() for k, v in losses.items()}, params))
    (losses, params), (want_losses, want_params) = results
    for key, value in want_losses.items():
        assert losses[key] == pytest.approx(value, rel=0, abs=1e-12)
    for name, param in want_params.items():
        np.testing.assert_allclose(params[name].grad, param.grad, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pooling", ["mean", "last"])
def test_forward_batch_without_gradients_is_bitwise_the_training_forward(pooling):
    # tracking runs the network under no_grad, training with the graph on:
    # the ops must compute the same values either way
    cfg = dataclasses.replace(TINY, pooling=pooling)
    params = init_params(cfg, seed=4)
    batch = pack([
        make_example(cfg, n_hist=h, n_ctx=c, positive=c - 1, offset=(1.5 * i, 0.5 * i))
        for i, (h, c) in enumerate([(3, 4), (1, 2), (2, 1), (3, 3)])
    ], cfg)
    with_graph = m.forward_batch(params, cfg, batch)
    assert all(out.requires_grad for out in with_graph)
    with ad.no_grad():
        without = m.forward_batch(params, cfg, batch)
    assert not any(out.requires_grad for out in without)
    for got, want in zip(without, with_graph):
        assert got.data.tobytes() == want.data.tobytes()


# --- losses ------------------------------------------------------------------


def test_loss_single_context_half_score():
    # Zeroed score/state heads give AS = 0.5 exactly and zero state outputs;
    # with perfect zero targets the loss is gamma * ln 2.
    cfg = TINY
    params = init_params(cfg, seed=0)
    for name in ("tdi.score_w2", "tdi.score_b2", "tsd.w2", "tsd.b2",
                 "tdi.state_w2", "tdi.state_b2"):
        params[name].data[:] = 0.0
    det = make_detection(0.0, 0.0)
    ex = (
        (det,),
        (make_detection(0.0, 0.0, frame=1, det_id=0),),
        (1,),
        np.zeros(6),
        np.zeros(6),
    )
    loss = m.loss_components_batch(params, cfg, pack([ex], cfg))["total"]
    assert loss.item() == pytest.approx(cfg.gamma * math.log(2.0), abs=1e-12)
    assert loss.item() == pytest.approx(6.931, abs=1e-3)


def test_loss_zero_in_saturated_limit():
    logits = Tensor(np.array([[40.0, -40.0, -40.0]]))
    labels = np.array([[1.0, 0.0, 0.0]])
    mask = np.ones((1, 3), dtype=bool)
    bce = m.binary_cross_entropy_with_logits(logits, labels, mask)
    assert bce.item() == pytest.approx(0.0, abs=1e-12)


def test_full_model_gradient_check():
    cfg = TINY
    params = init_params(cfg, seed=11)
    ex = make_example(cfg, n_hist=3, n_ctx=4, positive=2)
    ex2 = make_example(cfg, n_hist=1, n_ctx=2, positive=1, offset=(3.0, -1.0))

    def build():
        batch = pack([ex, ex2], cfg)
        return m.loss_components_batch(params, cfg, batch)["total"]

    from test_autodiff import check_grad

    check_grad(build, params)


def test_shape_invariants_across_cardinalities():
    # each example is batched with a one-detection history and context, so
    # the batch is as wide as the example and the short rows are padded
    cfg = TINY
    params = init_params(cfg, seed=1)
    short = make_example(cfg, n_hist=1, n_ctx=1, offset=(4.0, 2.0))
    for n_hist in range(1, cfg.t_max + 1):
        for n_ctx in range(1, cfg.k_max + 1):
            ex = make_example(cfg, n_hist=n_hist, n_ctx=n_ctx, positive=n_ctx - 1)
            batch = pack([ex, short], cfg)
            hist_emb = m.encode_batch(params, Tensor(batch.hist_feat))
            assert hist_emb.shape == (2, n_hist, cfg.d_q)
            assert batch.pe_onehot.shape == (2, n_hist, cfg.t_max)
            query = m.temporal_fuse_batch(
                params, cfg, hist_emb, batch.hist_mask, batch.pe_onehot,
                batch.pool_weights,
            )
            assert query.shape == (2, cfg.d_q)
            ctx_emb = m.encode_batch(params, Tensor(batch.ctx_feat))
            logits, state = m.tdi_batch(params, cfg, query, ctx_emb, batch.ctx_mask)
            assert logits.shape == (2, n_ctx)
            assert state.shape == (2, 6)
            assert np.isfinite(logits.data).all()


def test_translation_equivariance():
    cfg = TINY
    params = init_params(cfg, seed=9)
    base = make_example(cfg, n_hist=3, n_ctx=3, positive=1)
    shifted = make_example(cfg, n_hist=3, n_ctx=3, positive=1, offset=(50.0, -20.0))

    def forward(ex):
        logits, state_t, state_prev = m.forward_batch(params, cfg, pack([ex], cfg))
        anchor = ex[0][-1].box.center[:2]  # the last history detection's centre
        return logits.data, state_prev.data, state_t.data, np.array(anchor)

    s_a, prev_a, st_a, anchor_a = forward(base)
    s_b, prev_b, st_b, anchor_b = forward(shifted)
    offset = anchor_b - anchor_a
    assert offset == pytest.approx([50.0, -20.0])
    assert s_b == pytest.approx(s_a, abs=1e-5)
    # anchor-relative outputs are identical; absolute positions shift by offset
    assert prev_b == pytest.approx(prev_a, abs=1e-5)
    assert st_b == pytest.approx(st_a, abs=1e-5)
    abs_a = prev_a[0, :2] + anchor_a
    abs_b = prev_b[0, :2] + anchor_b
    assert abs_b - abs_a == pytest.approx(offset, abs=1e-5)


# --- extraction and training --------------------------------------------------


def small_scenario(seed=0, frames=40):
    specs = (
        ObjectSpec(ClassId.VEHICLE, MotionProfile.static(), (0.0, 0.0), 0.1,
                   (2.0, 4.5, 1.5)),
        ObjectSpec(ClassId.VEHICLE, MotionProfile.constant_velocity(2.0, 0.5),
                   (-10.0, 5.0), 0.0, (2.0, 4.5, 1.5)),
    )
    cfg = SimConfig(
        frames=frames,
        noise=NoiseModel(center_sigma=0.05, heading_sigma=0.01, size_sigma=0.01,
                         appearance_sigma=0.1, fp_rate=0.3, miss_prob=0.05,
                         confidence_noise=0.02),
        appearance_dim=TINY.d_a,
    )
    return generate(cfg, specs, seed=seed)


def test_extract_examples_labels_align_with_provenance():
    scenario = small_scenario()
    _, examples = extract_examples(scenario, TINY)
    assert len(examples.positive) > 20
    assert ((1 <= examples.hist_len) & (examples.hist_len <= TINY.t_max)).all()
    assert ((1 <= examples.ctx_len) & (examples.ctx_len <= TINY.k_max)).all()
    assert ((-1 <= examples.positive) & (examples.positive < examples.ctx_len)).all()
    assert (examples.positive >= 0).sum() > 10


def test_extract_examples_name_the_per_detection_examples_by_row():
    scenario = small_scenario()
    table, examples = extract_examples(scenario, TINY, first_row=5)
    dets = [det for frame in frame_rows(scenario.detections) for det in frame]
    want = np.array([detection_features_row(det, (0.0, 0.0), TINY) for det in dets])
    assert table.tobytes() == want.tobytes()
    named = [
        (tuple(dets[r - 5] for r in history[TINY.t_max - hist_len :]),
         tuple(dets[r - 5] for r in context[:ctx_len]),
         tuple(int(j == positive) for j in range(ctx_len)), state_t.tolist(), state_prev.tolist())
        for history, hist_len, context, ctx_len, positive, state_t, state_prev in zip(*examples)
    ]
    assert repr(named) == repr(extract_examples_per_detection(scenario, TINY))
    # stacked below another scene's 5 rows, as `cli.train_on_directory` does
    stacked = np.concatenate([np.full((5, TINY.feature_width), np.nan), table])
    some = examples.take(slice(None, None, 7))
    assert_packed_as_rows(pack_batch(stacked, some, TINY), some, [None] * 5 + dets, TINY)


def test_pack_batch_of_a_train_draw_equals_the_row_reference():
    # `train` draws its batches with repeats and out of order
    scenario = small_scenario()
    table, examples = extract_examples(scenario, TINY, first_row=5)
    dets = [None] * 5 + [det for frame in frame_rows(scenario.detections) for det in frame]
    stacked = np.concatenate([np.full((5, TINY.feature_width), np.nan), table])
    n = len(examples.positive)
    idx = np.random.default_rng(3).integers(0, n, size=min(TrainSettings().batch_size, n))
    assert len(set(idx.tolist())) < len(idx) and (np.diff(idx) < 0).any()
    drawn = examples.take(idx)
    assert_packed_as_rows(pack_batch(stacked, drawn, TINY), drawn, dets, TINY)


def test_parameter_gradients_bitwise_equal_zero_filled_backward():
    cfg = SttConfig(d_a=TINY.d_a)  # the default network widths
    table, examples = extract_examples(small_scenario(), cfg)
    batch = pack_batch(table, examples.take(slice(64)), cfg)
    params = init_params(cfg, seed=5)
    m.loss_components_batch(params, cfg, batch)["total"].backward()
    lazy = {name: p.grad.copy() for name, p in params.items()}
    zero_filled_backward(m.loss_components_batch(params, cfg, batch)["total"])
    for name, p in params.items():
        assert lazy[name].tobytes() == p.grad.tobytes(), name


@pytest.mark.parametrize("pooling", ["mean", "last"])
def test_fused_blocks_keep_the_op_by_op_losses_and_gradients_bitwise(pooling):
    # the model with `layer_norm` and `attention` as single ops against the
    # same model running their op-by-op graphs: every loss and gradient bit
    cfg = SttConfig(d_q=24, d_a=TINY.d_a, pooling=pooling)  # heads of 12: 1 / sqrt(12) inexact
    table, examples = extract_examples(small_scenario(), cfg)
    batch = pack_batch(table, examples.take(slice(64)), cfg)
    results = []
    for blocks in (contextlib.nullcontext, op_by_op_blocks):
        params = init_params(cfg, seed=5)
        with blocks():
            losses = m.loss_components_batch(params, cfg, batch)
            losses["total"].backward()
        results.append((
            {name: loss.data.tobytes() for name, loss in losses.items()},
            {name: p.grad.tobytes() for name, p in params.items()},
        ))
    assert results[0] == results[1]


def test_train_reduces_loss_and_is_deterministic():
    scenario = small_scenario()
    table, examples = extract_examples(scenario, TINY)
    settings = TrainSettings(
        steps=60,
        batch_size=16,
        log_every=10,
        learning_rate=3e-3,
        weight_decay=0.01,
        warmup_steps=5,
    )
    params_a, log_a = train(table, examples, TINY, settings, seed=0)
    params_b, _ = train(table, examples, TINY, settings, seed=0)
    for name in params_a:
        assert params_a[name].data.tobytes() == params_b[name].data.tobytes()
    first = examples.take(slice(50))
    start = _evaluate_loss(table, first, init_params(TINY, seed=0), TINY)
    end = _evaluate_loss(table, first, params_a, TINY)
    assert end < start
    assert log_a[0]["step"] == 1
    assert log_a[-1]["step"] == 60


def test_association_only_ablation_trains():
    cfg = SttConfig(d_q=8, d_a=3, d_m=2, t_max=3, k_max=4, heads=2, mlp_hidden=8,
                    lambda_position=0.0, lambda_velocity=0.0,
                    lambda_acceleration=0.0, alpha=0.0)
    scenario = small_scenario()
    table, examples = extract_examples(scenario, cfg)
    settings = TrainSettings(steps=30, batch_size=8, log_every=10, learning_rate=3e-3,
                             warmup_steps=0, final_lr_fraction=1.0)
    params, log = train(table, examples, cfg, settings, seed=1)
    assert all(math.isfinite(row["total"]) for row in log)
    # state losses carry zero weight in the total
    assert log[-1]["total"] == pytest.approx(10.0 * log[-1]["loss_d"], rel=1e-9)


def test_lr_schedule_warmup_then_linear_decay():
    settings = TrainSettings(
        steps=110, learning_rate=1e-3, warmup_steps=10, final_lr_fraction=0.5
    )
    assert settings.lr_at(1) == pytest.approx(1e-4)
    assert settings.lr_at(10) == pytest.approx(1e-3)
    assert settings.lr_at(60) == pytest.approx(1e-3 * 0.75)
    assert settings.lr_at(110) == pytest.approx(5e-4)
    assert settings.lr_at(500) == pytest.approx(5e-4)


def test_lr_schedule_without_warmup_or_decay_is_constant():
    settings = TrainSettings(
        steps=20, learning_rate=3e-3, warmup_steps=0, final_lr_fraction=1.0
    )
    assert all(settings.lr_at(step) == 3e-3 for step in range(1, 30))


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="non-empty dataset"):
        train(np.empty((0, TINY.feature_width)), as_columns([]), TINY,
              TrainSettings(steps=1, batch_size=1), seed=0)


def test_association_accuracy_on_trained_model():
    scenario = small_scenario(seed=3, frames=60)
    table, examples = extract_examples(scenario, TINY)
    settings = TrainSettings(
        steps=150, batch_size=16, log_every=50, learning_rate=3e-3, weight_decay=0.01,
        warmup_steps=0, final_lr_fraction=1.0,
    )
    params, _ = train(table, examples, TINY, settings, seed=2)
    held_out = extract_examples(small_scenario(seed=77, frames=60), TINY)
    acc = _association_accuracy(*held_out, params, TINY)
    assert acc > 0.8
