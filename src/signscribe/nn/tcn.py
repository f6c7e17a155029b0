"""Multi-scale dilated temporal convolutional network.

Each block runs a few parallel dilated branches (same-length convolutions
followed by GELU), concatenates them along channels, and adds a residual
connection (1x1-projected when widths differ). A linear head maps the last
block's features to per-frame logits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import cpus
from .autograd import Tensor, conv_block

FINGERSPELLING_MAX_DILATIONS = (1, 2, 4, 8, 1, 1)  # receptive field 35
ISR_MAX_DILATIONS = (1, 2, 4, 2, 1, 1)  # receptive field 23

# A frozen forward on at least this many rows computes two row halves at once
# (see Tcn.forward): the shortest length at which that gained. On a 2-vCPU VM,
# BLAS on one thread, the three annotate forwards ran x0.80 as fast as whole at
# 256 rows, x0.97 at 384, x1.12 at 512, x1.29 at 768 and x1.44 at 1024. On one
# CPU the halves run in turn: x0.98 at 512 rows, x1.03 from 768.
_SPLIT_ROWS = 512


def branch_dilations(max_dilation: int) -> tuple[int, ...]:
    """Per-block multi-scale branches: (d, ceil(d/2), 1)."""
    return (max_dilation, max(1, math.ceil(max_dilation / 2)), 1)


@dataclass(frozen=True)
class TcnConfig:
    input_dim: int
    output_classes: int
    num_blocks: int = 6
    kernel_size: int = 3
    block_dilations: tuple[tuple[int, ...], ...] = tuple(
        branch_dilations(d) for d in FINGERSPELLING_MAX_DILATIONS
    )
    channels: int = 48

    def __post_init__(self):
        for name in ("input_dim", "output_classes", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_blocks != len(self.block_dilations):
            raise ValueError("block_dilations must list one dilation tuple per block")
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        for dils in self.block_dilations:
            if not dils or any(d < 1 for d in dils):
                raise ValueError("dilations must be >= 1")
            if self.channels % len(dils) != 0:
                raise ValueError("channels must divide evenly across branches")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_classes": self.output_classes,
            "num_blocks": self.num_blocks,
            "kernel_size": self.kernel_size,
            "block_dilations": [list(d) for d in self.block_dilations],
            "channels": self.channels,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TcnConfig":
        return cls(
            input_dim=int(data["input_dim"]),
            output_classes=int(data["output_classes"]),
            num_blocks=int(data["num_blocks"]),
            kernel_size=int(data["kernel_size"]),
            block_dilations=tuple(tuple(int(x) for x in d) for d in data["block_dilations"]),
            channels=int(data["channels"]),
        )


def fingerspelling_config(input_dim: int, output_classes: int, channels: int = 48) -> TcnConfig:
    return TcnConfig(
        input_dim=input_dim,
        output_classes=output_classes,
        block_dilations=tuple(branch_dilations(d) for d in FINGERSPELLING_MAX_DILATIONS),
        channels=channels,
    )


def isr_config(input_dim: int, output_classes: int, channels: int = 48) -> TcnConfig:
    return TcnConfig(
        input_dim=input_dim,
        output_classes=output_classes,
        block_dilations=tuple(branch_dilations(d) for d in ISR_MAX_DILATIONS),
        channels=channels,
    )


def receptive_field(config: TcnConfig) -> int:
    """Input frames influencing one output frame along the widest path."""
    span = sum(max(dils) for dils in config.block_dilations)
    return 1 + (config.kernel_size - 1) * span


def config_fingerprint(config: TcnConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def param_shapes(config: TcnConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, by name, in initialisation order."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_width = config.input_dim
    for b, dils in enumerate(config.block_dilations):
        bw = config.channels // len(dils)
        for br in range(len(dils)):
            shapes[f"block{b}.branch{br}.w"] = (config.kernel_size, in_width, bw)
            shapes[f"block{b}.branch{br}.b"] = (bw,)
        if in_width != config.channels:
            shapes[f"block{b}.proj"] = (in_width, config.channels)
        in_width = config.channels
    shapes["head.w"] = (in_width, config.output_classes)
    shapes["head.b"] = (config.output_classes,)
    return shapes


def _block_arrays(arrays: dict, b: int, dils: tuple[int, ...]) -> tuple:
    """Block ``b``'s branch weights, branch biases and projection (None without one)."""
    names = [f"block{b}.branch{br}" for br in range(len(dils))]
    weights = [arrays[n + ".w"] for n in names]
    return weights, [arrays[n + ".b"] for n in names], arrays.get(f"block{b}.proj")


class Tcn:
    """A TCN over named float64 parameter arrays.

    A network built by :meth:`init` is trainable: ``grads`` holds a gradient
    array beside each parameter, and :meth:`forward` returns logits whose
    ``backward`` adds into them. One built by :meth:`from_arrays` is frozen:
    ``grads`` is None, and its forward keeps no activations.
    """

    def __init__(
        self,
        config: TcnConfig,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray] | None,
    ):
        self.config = config
        self.params = params
        self.grads = grads
        self.fingerprint = config_fingerprint(config)

    @classmethod
    def init(cls, config: TcnConfig, rng: np.random.Generator) -> "Tcn":
        """Weights drawn from N(0, 1/fan_in) in :func:`param_shapes` order; biases zero."""
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config).items():
            if len(shape) == 1:
                params[name] = np.zeros(shape)
            else:
                params[name] = rng.normal(0.0, 1.0 / math.sqrt(math.prod(shape[:-1])), size=shape)
        return cls(config, params, {name: np.zeros_like(p) for name, p in params.items()})

    def forward(self, x: np.ndarray, zero_rows: np.ndarray | None = None) -> Tensor:
        """Per-frame logits for a (T, input_dim) feature matrix.

        On a trainable network, ``backward(dlogits)`` on the result runs each
        block's backward in reverse order, skipping the input gradient of block 0.
        On a frozen one, ``zero_rows`` (a boolean mask over the T rows) sets
        those rows of every block's output back to zero: the gaps of
        :meth:`forward_each`. A frozen forward of at least ``_SPLIT_ROWS`` rows
        and no ``zero_rows`` computes its two row halves with :func:`cpus.run`,
        each with :meth:`_rows`; the logits are byte-identical.
        """
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected (T, {self.config.input_dim}) input, got {x.shape}"
            )
        if zero_rows is not None and self.grads is not None:
            raise ValueError("zero_rows needs a frozen network")
        if self.grads is None and zero_rows is None and len(x) >= _SPLIT_ROWS:
            T, halo = len(x), receptive_field(self.config) // 2
            halves = cpus.run(
                [lambda: self._rows(x, 0, T // 2, halo), lambda: self._rows(x, T // 2, T, halo)]
            )
            return Tensor(np.concatenate(halves))
        return self._forward(x, zero_rows)

    def _rows(self, x: np.ndarray, lo: int, hi: int, halo: int) -> np.ndarray:
        """Rows ``lo:hi`` of the frozen logits of ``x``, from its rows ``lo - halo``
        to ``hi + halo`` (clipped to the input).

        Output row t reads input rows t - r .. t + r, r = receptive_field // 2,
        so with ``halo`` >= r each row sees the operands of the whole forward:
        the same bytes, as in :meth:`forward_each`, wherever BLAS computes a row
        of a GEMM independently of the others (from 2 rows up).
        """
        start, stop = max(0, lo - halo), min(len(x), hi + halo)
        return self._forward(x[start:stop], None).data[lo - start : hi - start]

    def _forward(self, x: np.ndarray, zero_rows: np.ndarray | None) -> Tensor:
        h, steps = x, []
        for b, dils in enumerate(self.config.block_dilations):
            ws, bs, proj = _block_arrays(self.params, b, dils)
            grads = None if self.grads is None else _block_arrays(self.grads, b, dils)
            h, step = conv_block(h, ws, bs, dils, proj, grads)
            if zero_rows is not None:
                h[zero_rows] = 0.0
            steps.append(step)
        g, w = self.grads, self.params["head.w"]
        logits = h @ w + self.params["head.b"]
        if g is None:
            return Tensor(logits)

        def backward(dlogits: np.ndarray) -> None:
            g["head.w"] += h.T @ dlogits
            g["head.b"] += dlogits.sum(axis=0)
            gh = dlogits @ w.T
            for b in reversed(range(len(steps))):
                gh = steps[b](gh, b > 0)

        return Tensor(logits, backward)

    def forward_each(self, xs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Each input's logits, byte-identical to its own ``forward(x).data``,
        from one :meth:`forward` of a frozen network.

        The inputs are laid end to end with ``gap`` = (kernel_size - 1)/2 x
        the largest dilation zero rows between and around them, and the gap
        rows of every block's output are set back to zero. No tap reaches
        past its input's gap, so each row of each product sees the operands
        of its own forward: the same bytes wherever BLAS computes a row of a
        GEMM independently of the others, as it does from 2 rows up. Inputs
        of fewer than 2 frames run on their own, because BLAS computes a
        1-row product on another (matrix-vector) path.
        """
        if self.grads is not None:
            raise ValueError("forward_each runs frozen networks only")
        config = self.config
        gap = (config.kernel_size - 1) // 2 * max(max(d) for d in config.block_dilations)
        out = [self.forward(x).data if len(x) < 2 else None for x in xs]
        long = [i for i, x in enumerate(xs) if len(x) >= 2]
        if long:
            starts = gap + np.cumsum([0] + [len(xs[i]) + gap for i in long])
            x = np.zeros((starts[-1], config.input_dim))
            zero_rows = np.ones(len(x), dtype=bool)
            for i, start in zip(long, starts):
                x[start : start + len(xs[i])] = xs[i]
                zero_rows[start : start + len(xs[i])] = False
            logits = self.forward(x, zero_rows).data
            for i, start in zip(long, starts):
                out[i] = logits[start : start + len(xs[i])]
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(self.params)

    @classmethod
    def from_arrays(cls, config: TcnConfig, arrays: dict[str, np.ndarray]) -> "Tcn":
        """A frozen network over copies of ``arrays``, checked against ``config``.

        Its forward keeps no activations and ``backward`` from its output
        raises; train a :meth:`init` network. Later writes to ``arrays`` (an
        optimiser step, say) do not reach it.
        """
        shapes = param_shapes(config)
        params: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            if name not in arrays:
                raise ValueError(f"missing parameter {name!r}")
            arr = np.array(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            params[name] = arr
        extra = set(arrays) - set(shapes)
        if extra:
            raise ValueError(f"unexpected parameters: {sorted(extra)}")
        return cls(config, params, None)
