"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64 throughout, single-threaded, deterministic. Just enough surface to
express small MLP/attention networks and their losses. Shapes stay desk
scale, so an op's cost is mostly its per-call overhead, and the forward
pass of every op is the one numpy expression it stands for, with or
without gradients.

Whether an op records is decided in one place, `_recording`, before the op
builds its backward rule: only with gradients enabled and an operand that
requires grad. Otherwise, under `no_grad` or over constants, the op returns
a bare node with no parents and no rule, so inference pays for its numpy
calls and one `Tensor` per op. A `Tensor` keeps a float64 ndarray as it is
given and converts anything else.

Every op but `matmul`, `concat`, `layer_norm` and `attention` is built on
one of two scaffolds. `_unary` serves the one-operand ops and `_binary` the
broadcasting `add`, `sub` and `mul`, whose errors name the op and both
shapes. The op-by-op `div`, `sqrt` and `softmax` that the fused ops replaced
live on the same scaffolds in `tests/oracles.py`. An op computes its forward result and hands the scaffold a
module-level gradient rule. A gradient rule reads its operands' data when
backward runs, not when the op runs. That is sound because no op writes
into an operand and nothing else does before backward: `AdamW.step`
updates the parameters only after it.

`layer_norm` and `attention` are single ops. Their forward computes what
the ten and seven ops they once were computed, in the same order, and their
backward runs those ops' gradient expressions in the order the op-by-op
graph ran them, down to `_accumulate`'s `0.0 + x` on each intermediate's
first contribution and the two equal `centered` terms of the variance. That
keeps every forward and gradient bit of the op-by-op graph (the
`tests/oracles.py` forms), under one premise: each operand has the fused op
as its only consumer, as in the model. An operand used elsewhere too could
take its contributions in another order and differ in the last bits.

A 2-D right operand of `matmul`, as every weight is, gets its gradient
from one GEMM over the left operand's flattened leading axes; summed in
that order, it may differ from a per-batch sum in the last bits.

`Tensor.backward` starts every node's `grad` at None and runs only the nodes
a gradient reached; every backward rule adds its contributions through
`_accumulate`, so a node's first contribution allocates its gradient. A
parameter the output does not depend on keeps `grad is None`, which
`AdamW.step` reads as a zero gradient.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct

import numpy as np

_grad_enabled = True
_FLOAT64 = np.dtype(np.float64)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        if data.__class__ is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Reverse-mode pass from a scalar output; a node that receives no
        gradient keeps `grad is None`."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _recording(operands: tuple[Tensor, ...]) -> bool:
    """Whether an op over `operands` records a node: gradients are enabled
    and an operand requires grad."""
    if _grad_enabled:
        for t in operands:  # a loop: `any` over a generator costs about 0.5 µs
            if t.requires_grad:
                return True
    return False


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """`data` as a recorded node; callers check `_recording(parents)` first."""
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward_fn = backward_fn
    return out


def _first(x: np.ndarray, shape: tuple[int, ...], op=np.add) -> np.ndarray:
    """`op(0.0, x)` in a fresh C-contiguous array of `shape`: a node's first
    gradient contribution (see `_accumulate`)."""
    return op(0.0, x, out=np.empty(shape))


def _accumulate(t: Tensor, x: np.ndarray, op=np.add) -> None:
    """Add (or with `op=np.subtract`, subtract) a gradient contribution to
    `t.grad`.

    The first contribution is stored as `op(0.0, x)` in a fresh C-contiguous
    array of `t`'s shape: the bits a zero-filled buffer would hold, and never
    a view of an upstream gradient, which a later in-place contribution would
    overwrite and whose strides (a transposed view) would change BLAS's
    summation order.
    """
    if t.grad is None:
        t.grad = _first(x, t.shape, op)
    else:
        op(t.grad, x, out=t.grad)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """`ufunc(a.data, b.data)`, its broadcast error naming `op` and both shapes."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


# --- op scaffolds ----------------------------------------------------------


def _unary(a: Tensor, out: np.ndarray, grad, *args) -> Tensor:
    """`out`, computed from `a`, as a node whose backward adds `grad(g, a.data,
    out, *args)` to `a`'s gradient; `args` are the op's settings, like an axis."""
    parents = (a,)
    if not _recording(parents):
        return Tensor(out)
    return _node(out, parents, lambda g: _accumulate(a, grad(g, a.data, out, *args)))


def _binary(ufunc, name: str, a: Tensor, b: Tensor, grad_a, grad_b, b_op=np.add) -> Tensor:
    """`ufunc(a.data, b.data)` as a node; backward gives each operand that
    requires grad its rule's term, summed to its shape (`b`'s with `b_op`)."""
    out = _broadcast(ufunc, a, b, name)
    parents = (a, b)
    if not _recording(parents):
        return Tensor(out)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad_a(g, a.data, b.data), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad_b(g, a.data, b.data), b.shape), b_op)

    return _node(out, parents, backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


# --- gradient rules --------------------------------------------------------
#
# A rule maps the output gradient `g` to one operand's contribution. A binary
# rule gets both operands' data `x` and `y`; a unary rule gets its operand's
# data `x`, the op's output `out` and the op's settings.

def _pass(g, x, y): return g
def _mul_grad_a(g, x, y): return g * y
def _mul_grad_b(g, x, y): return g * x
def _relu_grad(g, x, out): return g * (out > 0)
def _sigmoid_grad(g, x, out): return g * out * (1.0 - out)
def _softplus_grad(g, x, out): return g * _stable_sigmoid(x)
def _abs_grad(g, x, out): return g * np.sign(x)
def _reshape_grad(g, x, out): return g.reshape(x.shape)
def _softmax_grad(g, x, out, axis): return out * (g - (g * out).sum(axis=axis, keepdims=True))


def _transpose_grad(g, x, out, axes):
    return g.transpose(sorted(range(len(axes)), key=axes.__getitem__))


def _sum_grad(g, x, out, axis, keepdims):
    # g broadcasts to x's shape once the axis a reduction without keepdims dropped is back
    return g if axis is None or keepdims else np.expand_dims(g, axis)


def _mean_grad(g, x, out, axis, keepdims):
    return _sum_grad(g, x, out, axis, keepdims) / (x.size if axis is None else x.shape[axis])


def _matmul_grad_a(g, x, y):
    return _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape)


def _matmul_grad_b(g, x, y):
    if y.ndim == 2:  # a weight: one GEMM over x's leading axes
        return x.reshape(-1, y.shape[0]).T @ g.reshape(-1, y.shape[1])
    return _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape)


# --- elementwise -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.add, "add", a, b, _pass, _pass)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.subtract, "sub", a, b, _pass, _pass, np.subtract)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.multiply, "mul", a, b, _mul_grad_a, _mul_grad_b)


def relu(a: Tensor) -> Tensor:
    """max(x, 0) with the bits of `np.where(x > 0, x, 0.0)`: `fmax` maps NaN
    to 0 but may keep a -0.0 input, which adding +0.0 turns into +0.0. The
    rule's `out > 0` is `x > 0`, and `out` is in cache at backward, `x` not."""
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _unary(a, out, _relu_grad)


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, _stable_sigmoid(a.data), _sigmoid_grad)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    x = a.data
    return _unary(a, np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), _softplus_grad)


def abs_(a: Tensor) -> Tensor:
    return _unary(a, np.abs(a.data), _abs_grad)


# --- shape ops -------------------------------------------------------------


def _check_matmul(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> None:
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a_shape} @ {b_shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a.shape, b.shape)
    out = np.matmul(a.data, b.data)
    parents = (a, b)
    if not _recording(parents):
        return Tensor(out)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _matmul_grad_a(g, a.data, b.data))
        if b.requires_grad:
            _accumulate(b, _matmul_grad_b(g, a.data, b.data))

    return _node(out, parents, backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _unary(a, a.data.reshape(shape), _reshape_grad)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    return _unary(a, a.data.transpose(axes), _transpose_grad, axes)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    if not _recording(tensors):
        return Tensor(out)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(index)])

    return _node(out, tensors, backward)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return _unary(a, a.data.sum(axis=axis, keepdims=keepdims), _sum_grad, axis, keepdims)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return _unary(a, a.data.mean(axis=axis, keepdims=keepdims), _mean_grad, axis, keepdims)


# --- fused blocks ----------------------------------------------------------
#
# Each backward names the op-by-op graph's nodes in its comments; `g_<node>`
# is that node's gradient, allocated by `_first` where the graph's
# `_accumulate` allocated it. Only the operands' contributions must come in
# the graph's order; the intermediates feed nothing else.


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift, as one op.

    A mean is taken as `ndarray.mean` takes it, `np.add.reduce` over the axis
    divided by its length, without the Python wrapper around that."""
    n = x.shape[-1]
    mu = np.add.reduce(x.data, -1, keepdims=True) / n
    c = x.data - mu
    var = np.add.reduce(c * c, -1, keepdims=True) / n
    s = np.sqrt(var + eps)
    inv = 1.0 / s
    ci = c * inv
    try:
        cig = ci * gain.data
        out = cig + bias.data
    except ValueError:
        raise ValueError(
            f"layer_norm: input {x.shape}, gain {gain.shape} and bias {bias.shape} "
            f"do not broadcast"
        ) from None
    parents = (x, gain, bias)
    if not _recording(parents):
        return Tensor(out)

    def backward(g):
        if bias.requires_grad:  # out = cig + bias
            _accumulate(bias, _unbroadcast(g, bias.shape))
        if not (x.requires_grad or gain.requires_grad):
            return
        g_cig = _first(_unbroadcast(g, cig.shape), cig.shape)
        if gain.requires_grad:  # cig = ci * gain
            _accumulate(gain, _unbroadcast(g_cig * ci, gain.shape))
        if not x.requires_grad:
            return
        g_ci = _first(_unbroadcast(g_cig * gain.data, ci.shape), ci.shape)
        g_c = _first(g_ci * inv, c.shape)  # ci = c * inv
        g_inv = _first(_unbroadcast(g_ci * c, inv.shape), inv.shape)
        g_s = _first(-g_inv * 1.0 / (s * s), s.shape)  # inv = 1 / s, by div's rule
        g_ve = _first(g_s * 0.5 / s, s.shape)  # s = sqrt(var + eps)
        g_var = _first(g_ve, var.shape)  # ve = var + eps
        g_sq = _first(g_var / n, c.shape)  # var = mean(sq); sq = c * c
        term = g_sq * c
        g_c += term
        g_c += term
        _accumulate(x, g_c)  # c = x - mu
        g_mu = _first(_unbroadcast(g_c, mu.shape), mu.shape, np.subtract)
        _accumulate(x, g_mu / n)  # mu = mean(x)

    return _node(out, parents, backward)


def attention(
    q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray | None = None
) -> Tensor:
    """Scaled dot-product attention, as one op.

    key_mask marks valid keys (broadcastable to the score shape); masked keys
    get zero weight, and rows whose keys are all masked output zeros. The
    softmax's max and sum are `np.maximum.reduce` and `np.add.reduce`, what
    `ndarray.max` and `ndarray.sum` call.
    """
    axes = (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)
    k_t = k.data.transpose(axes)
    _check_matmul(q.shape, k_t.shape)
    qk = np.matmul(q.data, k_t)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = qk * scale
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        try:
            masked = scores + np.where(key_mask, 0.0, -1e30)
        except ValueError:
            raise ValueError(
                f"attention: key mask {key_mask.shape} does not broadcast with "
                f"scores {scores.shape}"
            ) from None
    else:
        masked = scores
    e = np.exp(masked - np.maximum.reduce(masked, -1, keepdims=True))
    weights = e / np.add.reduce(e, -1, keepdims=True)
    if key_mask is not None:
        # whether a row has a live key; the product broadcasts it over the rows
        row_valid = key_mask.any(axis=-1, keepdims=True).astype(float)
        kept = weights * row_valid
    else:
        kept = weights
    _check_matmul(kept.shape, v.shape)
    out = np.matmul(kept, v.data)
    parents = (q, k, v)
    if not _recording(parents):
        return Tensor(out)

    def backward(g):
        if v.requires_grad:  # out = kept @ v
            _accumulate(v, _matmul_grad_b(g, kept, v.data))
        if not (q.requires_grad or k.requires_grad):
            return
        g_kept = _first(_matmul_grad_a(g, kept, v.data), kept.shape)
        g_w = g_kept
        if key_mask is not None:  # kept = weights * row_valid
            g_w = _first(_unbroadcast(g_kept * row_valid, weights.shape), weights.shape)
        g_masked = _first(_softmax_grad(g_w, masked, weights, -1), masked.shape)
        g_scores = g_masked
        if key_mask is not None:  # masked = scores + mask
            g_scores = _first(_unbroadcast(g_masked, scores.shape), scores.shape)
        g_qk = _first(_unbroadcast(g_scores * scale, qk.shape), qk.shape)  # scores = qk * scale
        if q.requires_grad:  # qk = q @ k_t
            _accumulate(q, _matmul_grad_a(g_qk, q.data, k_t))
        if k.requires_grad:
            g_kt = _first(_matmul_grad_b(g_qk, q.data, k_t), k_t.shape)
            _accumulate(k, _transpose_grad(g_kt, k_t, k_t, axes))  # k_t = transpose(k)

    return _node(out, parents, backward)


# --- optimizer -------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict; the caller
    passes each step's learning rate."""

    def __init__(
        self,
        params: dict[str, Tensor],
        *,
        weight_decay: float,
        beta1: float,
        beta2: float,
        epsilon: float,
    ):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._names = sorted(params)
        self._m = {n: np.zeros_like(params[n].data) for n in self._names}
        self._v = {n: np.zeros_like(params[n].data) for n in self._names}

    def step(self, step: int, lr: float) -> None:
        """Apply one update at learning rate `lr`; `step` starts at 1."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        beta1, beta2 = self.beta1, self.beta2
        for name in self._names:
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay > 0:
                p.data *= 1.0 - lr * self.weight_decay
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


# --- checkpoint format -----------------------------------------------------
#
# Flat binary layout, all integers little-endian:
#   8 bytes   magic  b"STTCKPT\x01"
#   u32       metadata length, then that many bytes of UTF-8 JSON
#   u32       tensor count
#   per tensor: u16 name length, name bytes, u8 ndim, ndim * u32 dims
#   payload:  concatenated float32 little-endian tensor data, declared order

CHECKPOINT_MAGIC = b"STTCKPT\x01"


def save_checkpoint(path, params: dict[str, Tensor], metadata: dict) -> None:
    names = sorted(params)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            shape = params[name].shape
            f.write(struct.pack("<B", len(shape)))
            for dim in shape:
                f.write(struct.pack("<I", dim))
        for name in names:
            f.write(params[name].data.astype("<f4").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and metadata of a checkpoint. A file that is not one, is cut
    short or has bytes after the tensor data raises ValueError naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    offset = 8

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"truncated: needs {offset + n} bytes, has {len(blob)}")
        offset += n
        return blob[offset - n : offset]

    try:
        (meta_len,) = struct.unpack("<I", take(4))
        metadata = json.loads(take(meta_len).decode("utf-8"))
        (count,) = struct.unpack("<I", take(4))
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1))
            shapes.append((name, struct.unpack(f"<{ndim}I", take(4 * ndim))))
        arrays: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(take(4 * n), dtype="<f4")
            arrays[name] = arr.reshape(shape).astype(np.float64)
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} bytes after the tensor data")
    except ValueError as exc:  # also bad UTF-8 or JSON in the metadata or names
        raise ValueError(f"{path}: invalid checkpoint: {exc}") from None
    return arrays, metadata
