"""Minimal reverse-mode autograd over numpy arrays.

Covers exactly the operations the temporal convolutional models need: a
whole multi-scale block (dilated convolutions, GELU, residual) as one op,
affine layers, elementwise maximum, and scalar reductions. Computation is
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


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on exact ties the gradient routes to ``a``."""
    take_a = a.data >= b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.where(take_a, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(take_a, 0.0, g))

    return _node(np.where(take_a, a.data, b.data), (a, b), bw)


def conv_block(
    h: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    dilations: Sequence[int],
    proj: Tensor | None,
) -> Tensor:
    """One multi-scale TCN block over a (T, C_in) sequence, as one graph node.

    Branch i is a same-length convolution with ``weights[i]`` (k, C_in, C_i),
    odd k, whose tap j reads h[t + (j - (k-1)//2) * dilations[i]] (zero outside
    the sequence), plus ``biases[i]``. The branches fill consecutive columns of
    one pre-activation, exact-erf GELU is applied once, and the residual
    ``h @ proj`` (``h`` when ``proj`` is None) is added. Values and gradients
    are bit-identical to one node per branch conv and GELU, a column concat, a
    matmul and an add, because each element sees the same IEEE operations:

    - each branch starts from zeros, adds taps j = 0..k-1 in order, then its bias;
    - the gradient into ``h`` is ``((gx0 + gx1) + gx2) + g @ proj.T`` with a
      projection and ``((g + gx0) + gx1) + gx2`` without one;
    - branch gradient slices are made contiguous before the GEMMs and bias sums.
    """
    T, c_in = h.data.shape
    k = weights[0].data.shape[0]
    if k % 2 != 1 or min(dilations) < 1 or any(w.data.shape[:2] != (k, c_in) for w in weights):
        shapes = [w.data.shape for w in weights]
        raise ValueError(f"branch kernels {shapes} need odd k and C_in {c_in}, dilations >= 1")
    half = (k - 1) // 2
    pad = half * max(dilations)
    xp = np.zeros((T + 2 * pad, c_in))
    xp[pad : pad + T] = h.data
    edges = np.cumsum([0] + [w.data.shape[2] for w in weights])
    # Per branch: weight, bias, its columns, and the first xp row of each tap.
    branches = [
        (w, b, slice(lo, hi), [pad + (j - half) * d for j in range(k)])
        for w, b, d, lo, hi in zip(weights, biases, dilations, edges, edges[1:])
    ]
    ys = [np.zeros((T, w.data.shape[2])) for w in weights]
    for y, (w, b, _, rows) in zip(ys, branches):
        for j, r in enumerate(rows):
            y += xp[r : r + T] @ w.data[j]
        y += b.data
    z = np.concatenate(ys, axis=1)
    phi = z / _SQRT2  # then 0.5 * (1 + erf(phi)), in place
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = z * phi
    out += h.data @ proj.data if proj is not None else h.data
    parents = (h, *weights, *biases) if proj is None else (h, *weights, *biases, proj)

    def bw(g):
        gz = g * (phi + z * (_INV_SQRT_2PI * np.exp(-0.5 * z * z)))
        gh = g if proj is None else None
        for w, b, col, rows in branches:
            gb = np.ascontiguousarray(gz[:, col])
            if w.requires_grad:
                w._accumulate(np.stack([xp[r : r + T].T @ gb for r in rows]))
            if b.requires_grad:
                b._accumulate(gb.sum(axis=0))
            if h.requires_grad:
                gxp = np.zeros_like(xp)
                for j, r in enumerate(rows):
                    gxp[r : r + T] += gb @ w.data[j].T
                gh = gxp[pad : pad + T] if gh is None else gh + gxp[pad : pad + T]
        if proj is not None and proj.requires_grad:
            proj._accumulate(h.data.T @ g)
        if h.requires_grad:
            h._accumulate(gh if proj is None else gh + g @ proj.data.T)

    return _node(out, parents, bw)


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
