"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64 throughout, single-threaded, deterministic. Just enough surface to
express small MLP/attention networks and their losses. Shapes stay desk
scale, so an op's cost is mostly its per-call overhead, and the forward
pass of every op is the one numpy expression it stands for, with or
without gradients: `add`, `sub`, `mul` and `div` let numpy broadcast and
only turn its error into one naming the op and both shapes, and
`transpose` inverts its permutation in the backward rule, not per call.
Under `no_grad` an op's result records neither its parents nor its
backward rule.

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
        self.data = np.asarray(data, dtype=np.float64)
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


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


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
        t.grad = op(0.0, x, out=np.empty(t.shape))
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


# --- elementwise -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _broadcast(np.add, a, b, "add")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _broadcast(np.subtract, a, b, "sub")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), np.subtract)

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _broadcast(np.multiply, a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _broadcast(np.divide, a, b, "div")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    """max(x, 0) with the bits of `np.where(x > 0, x, 0.0)`: `fmax` maps NaN
    to 0 but may keep a -0.0 input, which adding +0.0 turns into +0.0."""
    a = _lift(a)
    out = np.fmax(a.data, 0.0)
    out += 0.0
    backward = None
    if _grad_enabled and a.requires_grad:
        mask = a.data > 0

        def backward(g):
            _accumulate(a, g * mask)

    return _make(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = _lift(a)
    x = a.data
    ex = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out * (1.0 - out))

    return _make(out, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    a = _lift(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    ex = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * sig)

    return _make(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = _lift(a)
    out = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * 0.5 / out)

    return _make(out, (a,), backward)


def abs_(a: Tensor) -> Tensor:
    a = _lift(a)
    sign = np.sign(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * sign)

    return _make(np.abs(a.data), (a,), backward)


# --- shape ops -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad and b.ndim == 2:  # a weight: one GEMM over a's leading axes
            _accumulate(b, a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1]))
        elif b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _lift(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _lift(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))

    def backward(g):
        if a.requires_grad:
            inverse = sorted(range(len(axes)), key=axes.__getitem__)
            _accumulate(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(index)])

    return _make(
        np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward
    )


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _lift(a)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None or keepdims:  # a scalar g broadcasts to a's shape
            _accumulate(a, g)
        else:
            _accumulate(a, np.expand_dims(g, axis))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None or keepdims:
            _accumulate(a, g / count)
        else:
            _accumulate(a, np.expand_dims(g, axis) / count)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * out).sum(axis=axis, keepdims=True)
            _accumulate(a, out * (g - inner))

    return _make(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = div(_lift(1.0), sqrt(add(var, _lift(eps))))
    return add(mul(mul(centered, inv), gain), bias)


def attention(
    q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray | None = None
) -> Tensor:
    """Scaled dot-product attention.

    key_mask marks valid keys (broadcastable to the score shape); masked keys
    get zero weight, and rows whose keys are all masked output zeros.
    """
    d = q.shape[-1]
    scores = mul(matmul(q, transpose(k, _swap_last(k.ndim))), _lift(1.0 / math.sqrt(d)))
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        scores = add(scores, Tensor(np.where(key_mask, 0.0, -1e30)))
    weights = softmax(scores, axis=-1)
    if key_mask is not None:
        row_valid = np.broadcast_to(key_mask, scores.shape).any(axis=-1, keepdims=True)
        weights = mul(weights, Tensor(row_valid.astype(float)))
    return matmul(weights, v)


def _swap_last(ndim: int) -> tuple[int, ...]:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


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
