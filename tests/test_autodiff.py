import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttrack import autodiff as ad
from sttrack.autodiff import AdamW, Tensor

from oracles import attention_ops, batched_weight_grad, div, layer_norm_ops, softmax, sqrt


def check_grad(build, params, h=1e-5, tol=1e-4):
    """Central finite differences against the reverse-mode gradients."""
    out = build()
    out.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build().item()
            flat[i] = orig - h
            lo = build().item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
        fd = fd.reshape(p.shape)
        a = analytic[name]
        err = np.abs(a - fd) / np.maximum(np.abs(a) + np.abs(fd), 1e-3)
        assert err.max() <= tol, f"{name}: max rel err {err.max():.2e}"


def scalarize(out, seed=0):
    """Project a tensor output to a scalar with a fixed random readout."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(0, 1, out.shape))
    return ad.sum_(ad.mul(out, w))


# --- forward values ----------------------------------------------------------


_SPECIALS = np.array([
    0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
    5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5,
])


def relu_layouts():
    grid = np.resize(_SPECIALS, (6, 8, 5))
    yield "contiguous", grid
    yield "strided", grid[::2, 1::3, ::-2]
    yield "fortran", np.asfortranarray(grid)
    yield "transposed", grid.transpose(2, 0, 1)
    for value in _SPECIALS:
        yield "0-d", np.array(value)


@pytest.mark.parametrize("layout, x", list(relu_layouts()))
def test_relu_matches_where_bit_for_bit(layout, x):
    expected = np.where(x > 0, x, 0.0)
    for requires_grad in (False, True):
        out = ad.relu(Tensor(x, requires_grad=requires_grad)).data
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


def test_relu_gradient_passes_only_positive_inputs():
    x = Tensor(_SPECIALS.copy(), requires_grad=True)
    ad.sum_(ad.relu(x)).backward()
    assert x.grad.tobytes() == (_SPECIALS > 0).astype(float).tobytes()


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)


def test_sigmoid_extreme_inputs_stable():
    out = ad.sigmoid(Tensor([-1000.0, 1000.0]))
    assert out.data == pytest.approx([0.0, 1.0], abs=1e-12)


def test_softmax_uniform():
    out = softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
    assert out.data == pytest.approx([0.25] * 4)


def test_softplus_at_zero():
    assert ad.softplus(Tensor(0.0)).item() == pytest.approx(math.log(2.0))


def test_layer_norm_standardizes():
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)
    assert out.data.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.data.std() == pytest.approx(1.0, abs=1e-9)


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (3, 5))
    w = rng.normal(0, 1, (5, 4))

    def run():
        return softmax(ad.matmul(Tensor(x), Tensor(w)), axis=-1).data.tobytes()

    assert run() == run()


@pytest.mark.parametrize("op, fn, ufunc", [
    ("add", ad.add, np.add), ("sub", ad.sub, np.subtract), ("mul", ad.mul, np.multiply),
    ("div", div, np.divide),
], ids=["add", "sub", "mul", "div"])
def test_shape_mismatch_reports_both_shapes(op, fn, ufunc):
    with pytest.raises(ValueError, match=rf"^{op}: incompatible shapes \(2, 3\) and \(7,\)$"):
        fn(Tensor(np.zeros((2, 3))), Tensor(np.zeros(7)))
    rng = np.random.default_rng(0)
    a, b = rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 1)) + 3.0
    out = fn(Tensor(a), Tensor(b))
    assert out.data.tobytes() == ufunc(a, b).tobytes()


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# --- gradient checks ---------------------------------------------------------


def rand_param(rng, shape, avoid_kink=False, positive=False):
    data = rng.normal(0, 1, shape)
    if avoid_kink:
        data = np.where(np.abs(data) < 0.05, 0.3, data)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


def test_grad_elementwise_ops():
    rng = np.random.default_rng(1)
    a = rand_param(rng, (3, 4))
    b = rand_param(rng, (3, 4))
    c = rand_param(rng, (4,))  # broadcast operand
    check_grad(
        lambda: scalarize(ad.add(ad.mul(a, b), ad.sub(ad.mul(a, c), b))),
        {"a": a, "b": b, "c": c},
    )


def test_grad_div():
    rng = np.random.default_rng(2)
    a = rand_param(rng, (2, 5))
    b = rand_param(rng, (2, 5), positive=True)
    check_grad(lambda: scalarize(div(a, b)), {"a": a, "b": b})


def test_grad_matmul_batched():
    rng = np.random.default_rng(3)
    a = rand_param(rng, (2, 3, 4))
    b = rand_param(rng, (2, 4, 5))
    w = rand_param(rng, (5, 2))  # broadcast against batch
    check_grad(
        lambda: scalarize(ad.matmul(ad.matmul(a, b), w)), {"a": a, "b": b, "w": w}
    )


def test_grad_unary_chain():
    rng = np.random.default_rng(4)
    x = rand_param(rng, (4, 3), avoid_kink=True)
    y = rand_param(rng, (4, 3), positive=True)

    def build():
        out = ad.relu(x)
        out = ad.add(out, ad.sigmoid(x))
        out = ad.add(out, sqrt(y))
        out = ad.add(out, ad.softplus(x))
        out = ad.add(out, ad.abs_(x))
        return scalarize(out)

    check_grad(build, {"x": x, "y": y})


def test_grad_reductions_and_shapes():
    rng = np.random.default_rng(5)
    x = rand_param(rng, (3, 4, 5))

    def build():
        a = ad.sum_(x, axis=1)
        b = ad.mean(x, axis=-1)
        c = ad.transpose(x, (1, 0, 2))
        d = ad.reshape(x, (12, 5))
        out = ad.add(ad.sum_(a), ad.sum_(b))
        return ad.add(out, ad.add(scalarize(c, 1), scalarize(d, 2)))

    check_grad(build, {"x": x})


def test_grad_concat_slice():
    rng = np.random.default_rng(6)
    a = rand_param(rng, (2, 3))
    b = rand_param(rng, (2, 4))

    def build():
        # concat's backward slices the gradient back to each operand
        return scalarize(ad.concat([a, b], axis=1))

    check_grad(build, {"a": a, "b": b})


def test_grad_softmax_layernorm():
    rng = np.random.default_rng(7)
    x = rand_param(rng, (3, 6))
    g = rand_param(rng, (6,))
    b = rand_param(rng, (6,))

    def build():
        return scalarize(softmax(ad.layer_norm(x, g, b), axis=-1))

    check_grad(build, {"x": x, "g": g, "b": b})


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4]).flatmap(lambda n: st.permutations(range(n))),
    st.integers(0, 2**32 - 1),
)
def test_transpose_gradient_for_every_permutation(axes, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 1, (2, 3, 4, 5)[: len(axes)]), requires_grad=True)
    w = rng.normal(0, 1, tuple(x.shape[i] for i in axes))
    ad.sum_(ad.mul(ad.transpose(x, tuple(axes)), Tensor(w))).backward()
    assert x.grad.shape == x.shape
    # d/dx of sum(x.transpose(axes) * w) is w with the axes moved back
    assert x.grad.transpose(axes).tobytes() == w.tobytes()


@pytest.mark.parametrize("lead", [(), (7,), (3, 5), (64,), (4, 2, 6)])
def test_weight_gradient_is_the_batched_sum(lead):
    rng = np.random.default_rng(len(lead))
    a = Tensor(rng.normal(0, 1, (*lead, 6, 5)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (5, 4)), requires_grad=True)
    g = rng.normal(0, 1, (*lead, 6, 4))
    ad.sum_(ad.mul(ad.matmul(a, w), Tensor(g))).backward()
    expected = batched_weight_grad(a.data, g)
    if not lead:  # one product: the same GEMM
        assert w.grad.tobytes() == expected.tobytes()
    else:  # the sum runs in another order
        assert np.abs(w.grad - expected).max() <= 1e-12 * np.abs(expected).max()
    assert a.grad.tobytes() == np.matmul(g, w.data.T).tobytes()


# --- gradient buffers --------------------------------------------------------


@pytest.mark.parametrize("view", ["reshape", "transpose", "concat"])
@pytest.mark.parametrize("view_first", [True, False])
def test_gradient_through_a_view_leaves_the_upstream_gradient_unchanged(view, view_first):
    # x's contributions: one through a view of the viewing node's gradient,
    # one from a second consumer; either may come first
    rng = np.random.default_rng(12)
    x = rand_param(rng, (2, 3))
    viewed = {
        "reshape": lambda: ad.reshape(x, (3, 2)),
        "transpose": lambda: ad.transpose(x),
        "concat": lambda: ad.concat([Tensor(np.ones((2, 1))), x], axis=1),
    }[view]()
    w = rng.normal(0, 1, viewed.shape)
    u = rng.normal(0, 1, x.shape)
    terms = [ad.sum_(ad.mul(viewed, Tensor(w))), ad.sum_(ad.mul(x, Tensor(u)))]
    ad.add(*(terms if view_first else terms[::-1])).backward()
    assert viewed.grad.tobytes() == w.tobytes()
    back = {"reshape": lambda: w.reshape(2, 3), "transpose": lambda: w.T,
            "concat": lambda: w[:, 1:]}[view]()
    assert x.grad.tobytes() == (back + u).tobytes()


def test_parameter_without_gradient_keeps_none_and_adamw_reads_zero():
    used = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    unused = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    twin = Tensor(unused.data.copy(), requires_grad=True)
    twin.grad = np.zeros(2)
    ad.sum_(ad.mul(used, used)).backward()
    assert unused.grad is None
    for p in (unused, twin):
        opt = AdamW({"used": used, "p": p}, weight_decay=0.03, **BETAS_EPS)
        for step in (1, 2):
            opt.step(step, 1e-2)
    assert unused.data.tobytes() == twin.data.tobytes()
    assert unused.grad is None


# --- attention ---------------------------------------------------------------


def test_attention_single_matching_key_returns_value():
    q = Tensor(np.array([[1.0, 2.0, 3.0]]))
    k = Tensor(np.array([[1.0, 2.0, 3.0]]))
    v = Tensor(np.array([[7.0, -4.0]]))
    out = ad.attention(q, k, v)
    assert out.data[0] == pytest.approx([7.0, -4.0])


def test_attention_saturates_to_best_value():
    d = 4
    scale = 20.0 * math.sqrt(d)  # logit gap of 20 after 1/sqrt(d)
    q = Tensor(np.array([[scale, 0.0, 0.0, 0.0]]))
    k = Tensor(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = ad.attention(q, k, v)
    assert out.data[0] == pytest.approx([1.0, 0.0], abs=1e-3)


def test_attention_rows_sum_to_one_over_unmasked():
    rng = np.random.default_rng(8)
    q = Tensor(rng.normal(0, 1, (2, 3, 4)))
    k = Tensor(rng.normal(0, 1, (2, 5, 4)))
    mask = np.ones((2, 1, 5), dtype=bool)
    mask[0, 0, 3:] = False
    scores = ad.matmul(q, ad.transpose(k, (0, 2, 1)))
    scores = ad.add(scores, Tensor(np.where(mask, 0.0, -1e30)))
    w = softmax(scores, axis=-1)
    sums = w.data.sum(axis=-1)
    assert sums == pytest.approx(np.ones((2, 3)), abs=1e-6)
    assert w.data[0, :, 3:].max() == 0.0


def test_attention_all_masked_rows_output_zeros():
    rng = np.random.default_rng(9)
    q = Tensor(rng.normal(0, 1, (2, 4)))
    k = Tensor(rng.normal(0, 1, (3, 4)))
    v = Tensor(rng.normal(0, 1, (3, 2)))
    mask = np.zeros((2, 3), dtype=bool)
    mask[0, :] = True  # row 1 has no valid keys
    out = ad.attention(q, k, v, key_mask=mask)
    assert np.all(out.data[1] == 0.0)
    assert np.any(out.data[0] != 0.0)


def test_attention_gradients():
    rng = np.random.default_rng(10)
    q = rand_param(rng, (2, 3, 4))
    k = rand_param(rng, (2, 5, 4))
    v = rand_param(rng, (2, 5, 3))
    mask = rng.random((2, 1, 5)) > 0.3
    mask[:, :, 0] = True  # keep every row alive

    def build():
        return scalarize(ad.attention(q, k, v, key_mask=mask))

    check_grad(build, {"q": q, "k": k, "v": v})


# --- fused blocks against their op-by-op graphs --------------------------------


def fused_and_op_by_op(fused, op_by_op, operands, seed=0):
    """Forward bytes and every operand's gradient bytes, for the fused op and
    for its op-by-op graph, each read out through weights with signed zeros
    among them, so that zero gradients of both signs flow back too."""
    results = []
    for build in (fused, op_by_op):
        for t in operands:
            t.grad = None
        out = build()
        w = np.random.default_rng(seed).normal(0, 1, out.shape)
        w.reshape(-1)[::5] = 0.0
        w.reshape(-1)[2::7] = -0.0
        loss = ad.sum_(ad.mul(out, Tensor(w)))
        if loss.requires_grad:
            loss.backward()
        grads = [None if t.grad is None else (t.grad.shape, t.grad.tobytes()) for t in operands]
        results.append((out.shape, out.data.tobytes(), grads))
    return results


GRAD_SETS = [(True, True, True), (True, False, False), (False, True, False),
             (False, False, True), (False, True, True), (False, False, False)]


@pytest.mark.parametrize("requires", GRAD_SETS)
@pytest.mark.parametrize("x_shape, gain_shape, bias_shape", [
    ((6,), (6,), (6,)),
    ((3, 6), (6,), (6,)),
    ((2, 4, 6), (6,), (6,)),
    ((2, 1, 6), (1, 1, 6), (1, 6)),  # keepdims-shaped gain and bias
    ((6,), (2, 6), (6,)),  # the gain broadcasts the output up
    ((4, 1), (1,), (1,)),  # one feature
])
def test_fused_layer_norm_is_bitwise_the_op_by_op_graph(x_shape, gain_shape, bias_shape, requires):
    rng = np.random.default_rng(len(x_shape) + 7 * len(gain_shape))
    x, gain, bias = (
        Tensor(rng.normal(0, 2, shape), requires_grad=r)
        for shape, r in zip((x_shape, gain_shape, bias_shape), requires)
    )
    fused, by_ops = fused_and_op_by_op(
        lambda: ad.layer_norm(x, gain, bias), lambda: layer_norm_ops(x, gain, bias),
        [x, gain, bias],
    )
    assert fused == by_ops
    assert [g is not None for g in fused[2]] == list(requires)


def _masks():
    padded = np.ones((2, 1, 1, 5), dtype=bool)
    padded[0, ..., 3:] = False  # three live keys
    padded[1, ..., 1:] = False  # one live key
    dead_row = padded.copy()
    dead_row[1] = False  # no live key: the row outputs zeros
    return padded, dead_row


@pytest.mark.parametrize("requires", GRAD_SETS)
@pytest.mark.parametrize("shapes, mask", [
    # head widths of 3 and 5, so that the 1 / sqrt(d) scale is inexact
    (((2, 2, 3, 5), (2, 2, 5, 5), (2, 2, 5, 5)), _masks()[0]),  # padded keys
    (((2, 2, 3, 5), (2, 2, 5, 5), (2, 2, 5, 5)), _masks()[1]),  # a row without keys
    (((2, 2, 1, 5), (2, 2, 5, 5), (2, 2, 5, 5)), _masks()[0]),  # one query, as the TDI's
    (((2, 2, 1, 5), (2, 2, 1, 5), (2, 2, 1, 5)), np.ones((2, 1, 1, 1), bool)),  # one-key history
    (((2, 3, 3), (2, 5, 3), (2, 5, 4)), None),
    (((3, 5), (5, 5), (5, 2)), np.array([True, True, False, True, False])),  # 2-D: weight paths
    (((3, 5), (4, 5), (4, 2)), np.array([[[1, 0, 1, 1]], [[0, 0, 0, 0]]], bool)),  # mask adds an axis
], ids=["padded", "dead-row", "one-query", "one-key", "unmasked-3d", "2d", "mask-adds-axis"])
def test_fused_attention_is_bitwise_the_op_by_op_graph(shapes, mask, requires):
    rng = np.random.default_rng(sum(map(len, shapes)))
    q, k, v = (
        Tensor(rng.normal(0, 1.5, shape), requires_grad=r) for shape, r in zip(shapes, requires)
    )
    fused, by_ops = fused_and_op_by_op(
        lambda: ad.attention(q, k, v, key_mask=mask),
        lambda: attention_ops(q, k, v, key_mask=mask),
        [q, k, v],
    )
    assert fused == by_ops
    assert [g is not None for g in fused[2]] == list(requires)


# --- optimizer ---------------------------------------------------------------

BETAS_EPS = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}


def test_adamw_zero_grad_no_decay_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, weight_decay=0.0, **BETAS_EPS)
    opt.step(1, 1e-3)
    assert p.data == pytest.approx([1.0, -2.0])


def test_adamw_zero_grad_decay_scales_params():
    lr = 1e-3
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, weight_decay=0.03, **BETAS_EPS)
    opt.step(1, lr)
    assert p.data == pytest.approx(np.array([1.0, -2.0]) * (1 - lr * 0.03))


def test_adamw_descends_quadratic_bowl():
    target = np.array([3.0, -1.0, 0.5])
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0, **BETAS_EPS)

    def loss_value():
        return float(((p.data - target) ** 2).sum())

    start = loss_value()
    for step in range(1, 200):
        diff = ad.sub(p, Tensor(target))
        loss = ad.sum_(ad.mul(diff, diff))
        loss.backward()
        opt.step(step, 0.05)
    assert loss_value() < start
    assert p.data == pytest.approx(target, abs=0.05)


# --- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    params = {
        "enc.w": Tensor(rng.normal(0, 1, (4, 7)), requires_grad=True),
        "enc.b": Tensor(rng.normal(0, 1, (7,)), requires_grad=True),
        "head.w": Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True),
    }
    meta = {"d_q": 4, "note": "round-trip"}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, params, meta)
    arrays, loaded_meta = ad.load_checkpoint(path)
    assert loaded_meta == meta
    assert set(arrays) == set(params)
    for name, p in params.items():
        assert arrays[name].shape == p.shape
        assert arrays[name] == pytest.approx(p.data.astype(np.float32), abs=0)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        ad.load_checkpoint(path)


def test_checkpoint_rejects_every_truncation_and_trailing_bytes(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "a": Tensor(rng.normal(0, 1, (2, 3))),
        "b": Tensor(rng.normal(0, 1, ())),
    }
    good = tmp_path / "good.ckpt"
    ad.save_checkpoint(good, params, {"k": "v"})
    blob = good.read_bytes()
    path = tmp_path / "bad.ckpt"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            ad.load_checkpoint(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="1 bytes after the tensor data"):
        ad.load_checkpoint(path)
    arrays, meta = ad.load_checkpoint(good)
    assert meta == {"k": "v"} and arrays["b"].shape == ()


def test_no_grad_blocks_graph():
    # under no_grad, or with no operand requiring grad, every op returns a
    # bare node: no parents and no backward rule
    rng = np.random.default_rng(3)

    def every_op(requires):
        a, b = (Tensor(rng.uniform(0.5, 2.0, (2, 3, 4)), requires_grad=requires) for _ in "ab")
        w = Tensor(rng.normal(0, 1, (4, 4)), requires_grad=requires)
        gain, bias = (Tensor(rng.normal(0, 1, 4), requires_grad=requires) for _ in "gb")
        mask = np.array([True, True, False])
        return {
            "add": ad.add(a, b), "sub": ad.sub(a, b), "mul": ad.mul(a, b), "div": div(a, b),
            "relu": ad.relu(a), "sigmoid": ad.sigmoid(a), "softplus": ad.softplus(a),
            "sqrt": sqrt(a), "abs_": ad.abs_(a), "matmul": ad.matmul(a, w),
            "reshape": ad.reshape(a, (6, 4)), "transpose": ad.transpose(a, (2, 0, 1)),
            "concat": ad.concat([a, b], axis=1), "sum_": ad.sum_(a), "mean": ad.mean(a, axis=1),
            "softmax": softmax(a), "layer_norm": ad.layer_norm(a, gain, bias),
            "attention": ad.attention(a, b, b, key_mask=mask),
        }

    with ad.no_grad():
        under_no_grad = every_op(requires=True)
    for name, out in [*under_no_grad.items(), *every_op(requires=False).items()]:
        assert not out.requires_grad, name
        assert out._parents == () and out._backward_fn is None, name
        assert out.data.dtype == np.float64, name
    recorded = every_op(requires=True)
    assert all(out._backward_fn is not None for out in recorded.values())

    array = rng.normal(0, 1, (2, 3))
    assert Tensor(array).data is array
    assert Tensor(array[:, ::2]).data.base is array  # a view stays a view
    for raw in ([1, 2], np.array([1, 2]), np.array([1.5, -2.0], dtype=np.float32), 2.5):
        t = Tensor(raw)
        assert t.data.__class__ is np.ndarray and t.data.dtype == np.float64
        assert t.data.tolist() == np.asarray(raw, dtype=np.float64).tolist()
    assert Tensor(np.float64(2.0)).data.shape == ()
