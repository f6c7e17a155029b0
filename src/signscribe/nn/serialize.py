"""On-disk model container: JSON manifest plus little-endian float32 blob.

A model directory holds ``manifest.json`` (architecture config, tensor
table with byte offsets, architecture fingerprint, and free-form ``extra``
metadata such as an alphabet or vocabulary) and ``weights.bin`` with all
tensors concatenated as float32 little-endian in manifest order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tcn import TcnConfig, config_fingerprint

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "weights.bin"
_DTYPE = np.dtype("<f4")


class WeightsError(RuntimeError):
    """Corrupt, truncated, or inconsistent weights container."""


@dataclass
class ModelWeights:
    config: TcnConfig
    tensors: dict[str, np.ndarray]  # float32 arrays
    extra: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)

    @classmethod
    def from_float64(cls, config: TcnConfig, arrays: dict[str, np.ndarray], extra: dict | None = None) -> "ModelWeights":
        tensors = {name: np.ascontiguousarray(a, dtype=np.float32) for name, a in arrays.items()}
        return cls(config=config, tensors=tensors, extra=dict(extra or {}))

    def as_float64(self) -> dict[str, np.ndarray]:
        return {name: a.astype(np.float64) for name, a in self.tensors.items()}


def weights_digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 of the arrays as stored: float32 little-endian in sorted-name order.

    This is the sha256 of the ``weights.bin`` that :func:`save_weights`
    writes for them, so a trained model and its reloaded copy agree.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(np.ascontiguousarray(arrays[name], dtype=_DTYPE).tobytes())
    return h.hexdigest()


def save_weights(directory: str | Path, weights: ModelWeights) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = []
    offset = 0
    chunks = []
    for name in sorted(weights.tensors):
        arr = np.ascontiguousarray(weights.tensors[name], dtype=_DTYPE)
        raw = arr.tobytes()
        table.append({"name": name, "shape": list(arr.shape), "offset_bytes": offset})
        offset += len(raw)
        chunks.append(raw)
    manifest = {
        "format_version": 1,
        "config": weights.config.to_dict(),
        "fingerprint": weights.fingerprint,
        "tensors": table,
        "total_bytes": offset,
        "extra": weights.extra,
    }
    (directory / BLOB_NAME).write_bytes(b"".join(chunks))
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def load_weights(directory: str | Path) -> ModelWeights:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise WeightsError(f"{directory} is not a model directory")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise WeightsError(f"unreadable manifest: {exc}") from exc
    try:
        config = TcnConfig.from_dict(manifest["config"])
        table = manifest["tensors"]
        total = int(manifest["total_bytes"])
        stored_fp = manifest["fingerprint"]
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightsError(f"malformed manifest: {exc}") from exc
    if config_fingerprint(config) != stored_fp:
        raise WeightsError("fingerprint does not match the manifest config")
    blob = blob_path.read_bytes()
    if len(blob) != total:
        raise WeightsError(
            f"weights blob has {len(blob)} bytes, manifest declares {total}"
        )
    tensors: dict[str, np.ndarray] = {}
    for entry in table:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = int(entry["offset_bytes"])
        end = start + count * _DTYPE.itemsize
        if end > len(blob):
            raise WeightsError(f"tensor {entry['name']!r} overruns the blob")
        arr = np.frombuffer(blob[start:end], dtype=_DTYPE)
        if arr.size != count:
            raise WeightsError(f"tensor {entry['name']!r} is truncated")
        tensors[entry["name"]] = arr.reshape(shape).copy()
    return ModelWeights(config=config, tensors=tensors, extra=dict(manifest.get("extra", {})))
