"""Minimal reverse-mode autograd over numpy arrays.

Covers exactly the operations the temporal convolutional models need:
dilated 1-D convolution, affine layers, GELU, channel concatenation,
elementwise maximum, residual adds, and scalar reductions. Computation is
float64 throughout; persisted weights are float32 (see serialize module).

An op records a graph node (its parents and a backward closure) only when
one of its inputs requires a gradient, and then its output requires one
too. A forward pass over :func:`constant` tensors alone therefore leaves
no graph behind: inference and validation build nothing to throw away.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str = "",
        _parents: tuple = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node; scalar roots default to grad 1."""
        if not self.requires_grad:
            raise ValueError("backward() from a tensor that does not require a gradient")
        if grad is None:
            if self.data.ndim != 0 and self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: Tensor) -> None:
            stack = [(node, False)]
            while stack:
                cur, expanded = stack.pop()
                if expanded:
                    order.append(cur)
                    continue
                if id(cur) in seen:
                    continue
                seen.add(id(cur))
                stack.append((cur, True))
                for p in cur._parents:
                    stack.append((p, False))

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}, name={self.name!r})"


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def _node(data, parents: tuple, backward: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output: a graph node if any parent requires a gradient, else plain data."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _node(a.data + b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias broadcast over rows)."""
    data = x.data @ weight.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    if bias is not None:
        data = data + bias.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return _node(data, parents, bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x)."""
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))

    def bw(g):
        if x.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
            x._accumulate(g * (phi + x.data * pdf))

    return _node(x.data * phi, (x,), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on exact ties the gradient routes to ``a``."""
    take_a = a.data >= b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.where(take_a, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(take_a, 0.0, g))

    return _node(np.where(take_a, a.data, b.data), (a, b), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]

    def bw(g):
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[:, offset : offset + w])
            offset += w

    return _node(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bw)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None, dilation: int) -> Tensor:
    """Same-length dilated 1-D convolution over a (T, C_in) sequence.

    ``weight`` has shape (k, C_in, C_out) with odd k; taps are centered, so
    tap j reads x[t + (j - (k-1)//2) * dilation] with zero padding outside
    the sequence.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    k, c_in, c_out = weight.data.shape
    if k % 2 != 1:
        raise ValueError("kernel size must be odd for same-length output")
    if x.data.shape[1] != c_in:
        raise ValueError(f"input width {x.data.shape[1]} != kernel C_in {c_in}")
    T = x.data.shape[0]
    half = (k - 1) // 2
    pad = half * dilation
    xp = np.zeros((T + 2 * pad, c_in), dtype=x.data.dtype)
    xp[pad : pad + T] = x.data
    y = np.zeros((T, c_out))
    for j in range(k):
        y += xp[j * dilation : j * dilation + T] @ weight.data[j]
    if bias is not None:
        y = y + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = xp[j * dilation : j * dilation + T].T @ g
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j * dilation : j * dilation + T] += g @ weight.data[j].T
            x._accumulate(gxp[pad : pad + T])

    return _node(y, parents, bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(g)))

    return _node(np.float64(x.data.sum()), (x,), bw)


def external_loss(logits: Tensor, value: float, grad_wrt_logits: np.ndarray) -> Tensor:
    """Wrap an externally computed scalar loss into the graph.

    Used for losses whose gradients come from their own dynamic programs
    (CTC forward-backward, binary cross-entropy closed form).
    """
    grad_wrt_logits = np.asarray(grad_wrt_logits, dtype=np.float64)
    if grad_wrt_logits.shape != logits.data.shape:
        raise ValueError("loss gradient shape must match logits shape")

    def bw(g):
        if logits.requires_grad:
            logits._accumulate(float(g) * grad_wrt_logits)

    return _node(np.float64(value), (logits,), bw)


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(z))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all entries, numerically stable."""
    z = logits.data
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != z.shape:
        raise ValueError("targets shape must match logits shape")
    # log(1 + exp(-|z|)) + max(z, 0) - z*t
    loss = float(np.mean(np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - z * t))
    grad = (sigmoid(z) - t) / z.size
    return external_loss(logits, loss, grad)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
