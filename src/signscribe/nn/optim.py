"""AdamW with decoupled weight decay, plus cosine learning-rate annealing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator floor


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place AdamW update with bias correction and decoupled decay: per element,
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; param -= lr*(m/c1) / (sqrt(v/c2) + eps)."""
    state.t += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    den = (1.0 - BETA2) * grad
    den *= grad
    state.v *= BETA2
    state.v += den
    np.sqrt(np.divide(state.v, 1.0 - BETA2 ** state.t, out=den), out=den)
    den += EPS
    step = state.m / (1.0 - BETA1 ** state.t)
    step *= lr
    step /= den
    param -= step
    if weight_decay:
        param -= lr * weight_decay * param


class AdamW:
    """AdamW over one flat buffer that each parameter's ``.data`` is rebound to view,
    so :meth:`step` makes one :func:`adamw_step` call over the concatenated gradients."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        if lr < 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.flat = np.concatenate([p.data.ravel() for p in params])
        for p, view in zip(params, np.split(self.flat, np.cumsum([p.data.size for p in params]))):
            p.data = view.reshape(p.data.shape)
        self.state = AdamState(m=np.zeros_like(self.flat), v=np.zeros_like(self.flat))

    def step(self) -> None:
        """Update every parameter; raises ``ValueError`` if one has no gradient."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {i} ({p.name!r}) has no gradient")
        grad = np.concatenate([p.grad.ravel() for p in self.params])
        adamw_step(self.flat, grad, self.state, lr=self.lr, weight_decay=self.weight_decay)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Half-cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return base_lr
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))
