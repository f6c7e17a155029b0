"""The TCN's one layer with a hand-written backward, and the output it runs in reverse.

A TCN forward is a fixed chain: one :func:`conv_block` per block, then an
affine head. A trainable network keeps each block's backward and returns its
logits as a :class:`Tensor` whose :meth:`Tensor.backward` runs the chain in
reverse; a frozen network keeps nothing. Computation is float64 throughout;
persisted weights are float32 (see serialize module).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


def _load_erf() -> np.ufunc:
    """``scipy.special.erf``, loaded without running ``scipy.special/__init__.py``.

    That package init costs about 0.3 s and 20 MB per process: through its
    array-API layer it imports ``numpy.testing``, ``numpy.f2py``, ``numpy.ma``,
    ``numpy.random`` and more. ``erf`` itself is a ufunc of the compiled
    ``scipy.special._special_ufuncs``, so this loads that file alone, under
    its own name; a later ``import scipy.special`` reuses the module, and its
    ``erf`` is the same object. Without the file or the attribute it falls
    back to the package import.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.erf
    module = None
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        stem = Path(scipy_spec.submodule_search_locations[0], "special", "_special_ufuncs")
        paths = (Path(f"{stem}{suffix}") for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((p for p in paths if p.is_file()), None)
        if path is not None:
            name = "scipy.special._special_ufuncs"
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules[name] = module
    erf = getattr(module, "erf", None)
    if not isinstance(erf, np.ufunc):
        from scipy.special import erf
    return erf


erf = _load_erf()

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A network's output ``data``, and for a trainable network the reverse pass from it."""

    __slots__ = ("data", "_backward")

    def __init__(self, data: np.ndarray, backward: Callable[[np.ndarray], None] | None = None):
        self.data = data
        self._backward = backward

    def backward(self, grad: np.ndarray) -> None:
        """Add the gradients of a loss whose gradient with respect to ``data`` is
        ``grad`` into the network's parameter gradients."""
        if self._backward is None:
            raise ValueError("backward() from the output of a frozen network")
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.data.shape}")
        self._backward(grad)


def conv_block(
    h: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    dilations: Sequence[int],
    proj: np.ndarray | None,
    grads: tuple[Sequence[np.ndarray], Sequence[np.ndarray], np.ndarray | None] | None,
) -> tuple[np.ndarray, Callable[[np.ndarray, bool], np.ndarray | None] | None]:
    """One multi-scale TCN block over a (T, C_in) sequence, and its backward.

    Branch i is a same-length convolution with ``weights[i]`` (k, C_in, C_i),
    odd k, whose tap j reads h[t + (j - (k-1)//2) * dilations[i]] (zero outside
    the sequence), plus ``biases[i]``. The branches fill consecutive columns of
    one pre-activation, exact-erf GELU is applied once, and the residual
    ``h @ proj`` (``h`` when ``proj`` is None) is added.

    With ``grads`` = (weight grads, bias grads, proj grad) the block also
    returns ``backward(g, input_grad)``: it adds the parameters' gradients for
    the upstream gradient ``g`` into those arrays and returns the gradient into
    ``h`` (None unless ``input_grad``). Without ``grads`` it returns None and
    keeps no activations. Values and gradients are bit-identical to one graph
    node per branch conv and GELU, a column concat, a matmul and an add,
    because each element sees the same IEEE operations:

    - each branch starts from zeros, adds taps j = 0..k-1 in order, then its bias;
    - the gradient into ``h`` is ``((gx0 + gx1) + gx2) + g @ proj.T`` with a
      projection and ``((g + gx0) + gx1) + gx2`` without one;
    - branch gradient slices are made contiguous before the GEMMs and bias sums.
    """
    T, c_in = h.shape
    k = weights[0].shape[0]
    if k % 2 != 1 or min(dilations) < 1 or any(w.shape[:2] != (k, c_in) for w in weights):
        shapes = [w.shape for w in weights]
        raise ValueError(f"branch kernels {shapes} need odd k and C_in {c_in}, dilations >= 1")
    half = (k - 1) // 2
    pad = half * max(dilations)
    xp = np.zeros((T + 2 * pad, c_in))
    xp[pad : pad + T] = h
    edges = np.cumsum([0] + [w.shape[2] for w in weights])
    # Per branch: weight, bias, its columns, and the first xp row of each tap.
    branches = [
        (w, b, slice(lo, hi), [pad + (j - half) * d for j in range(k)])
        for w, b, d, lo, hi in zip(weights, biases, dilations, edges, edges[1:])
    ]
    ys = [np.zeros((T, w.shape[2])) for w in weights]
    for y, (w, b, _, rows) in zip(ys, branches):
        for j, r in enumerate(rows):
            y += xp[r : r + T] @ w[j]
        y += b
    z = np.concatenate(ys, axis=1)
    phi = z / _SQRT2  # then 0.5 * (1 + erf(phi)), in place
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = z * phi
    out += h @ proj if proj is not None else h
    if grads is None:
        return out, None
    gweights, gbiases, gproj = grads

    def backward(g: np.ndarray, input_grad: bool) -> np.ndarray | None:
        gz = g * (phi + z * (_INV_SQRT_2PI * np.exp(-0.5 * z * z)))
        gh = g if proj is None else None
        for (w, _, col, rows), gw, gb_sum in zip(branches, gweights, gbiases):
            gb = np.ascontiguousarray(gz[:, col])
            gw += np.stack([xp[r : r + T].T @ gb for r in rows])
            gb_sum += gb.sum(axis=0)
            if input_grad:
                gxp = np.zeros_like(xp)
                for j, r in enumerate(rows):
                    gxp[r : r + T] += gb @ w[j].T
                gh = gxp[pad : pad + T] if gh is None else gh + gxp[pad : pad + T]
        if proj is not None:
            np.add(gproj, h.T @ g, out=gproj)  # in place; `+=` would rebind the name
        if not input_grad:
            return None
        return gh if proj is None else gh + g @ proj.T

    return out, backward


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


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over all entries, numerically stable, and its
    gradient with respect to ``logits``."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError("targets shape must match logits shape")
    # log(1 + exp(-|z|)) + max(z, 0) - z*t
    loss = float(
        np.mean(np.logaddexp(0.0, -np.abs(logits)) + np.maximum(logits, 0.0) - logits * t)
    )
    return loss, (sigmoid(logits) - t) / logits.size
