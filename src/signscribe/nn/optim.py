"""AdamW with decoupled weight decay, plus cosine learning-rate annealing."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tcn import Tcn

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator floor


class AdamW:
    """AdamW with bias correction and decoupled weight decay over trainable
    networks (:meth:`Tcn.init`), whose parameters and gradients are rebound to
    view two flat buffers, so :meth:`step` updates them all at once and
    :meth:`zero_grad` is one fill. The moments ``m``, ``v`` and the step
    count ``t`` live on the optimiser."""

    def __init__(self, tcns: Sequence[Tcn], lr: float, weight_decay: float):
        if lr < 0:
            raise ValueError(f"invalid learning rate {lr}")
        if any(tcn.grads is None for tcn in tcns):
            raise ValueError("a frozen network (Tcn.from_arrays) has no gradient to step on")
        self.lr = lr
        self.weight_decay = weight_decay
        slots = [(tcn, name) for tcn in tcns for name in sorted(tcn.params)]
        self.flat = np.concatenate([tcn.params[name].ravel() for tcn, name in slots])
        self.grad = np.zeros_like(self.flat)
        self.grads: list[np.ndarray] = []  # per parameter, in the buffers' order
        start = 0
        for tcn, name in slots:
            shape = tcn.params[name].shape
            stop = start + math.prod(shape)
            tcn.params[name] = self.flat[start:stop].reshape(shape)
            tcn.grads[name] = self.grad[start:stop].reshape(shape)
            self.grads.append(tcn.grads[name])
            start = stop
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self) -> None:
        """One in-place update: per element, m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        param -= lr*(m/c1) / (sqrt(v/c2) + eps), then param -= lr*wd*param."""
        self.t += 1
        self.m *= BETA1
        self.m += (1.0 - BETA1) * self.grad
        den = (1.0 - BETA2) * self.grad
        den *= self.grad
        self.v *= BETA2
        self.v += den
        np.sqrt(np.divide(self.v, 1.0 - BETA2 ** self.t, out=den), out=den)
        den += EPS
        step = self.m / (1.0 - BETA1 ** self.t)
        step *= self.lr
        step /= den
        self.flat -= step
        if self.weight_decay:
            self.flat -= self.lr * self.weight_decay * self.flat

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Half-cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return base_lr
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))
