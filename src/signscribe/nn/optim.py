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
    """One in-place AdamW update with bias correction and decoupled decay."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    param -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    if weight_decay:
        param -= lr * weight_decay * param


class AdamW:
    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        if lr < 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.state = [
            AdamState(m=np.zeros_like(p.data), v=np.zeros_like(p.data)) for p in params
        ]

    def step(self) -> None:
        for p, st in zip(self.params, self.state):
            if p.grad is None:
                continue
            adamw_step(p.data, p.grad, st, lr=self.lr, weight_decay=self.weight_decay)

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
