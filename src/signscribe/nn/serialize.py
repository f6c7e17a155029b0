"""On-disk model directory: JSON manifest plus little-endian float32 blob.

A model directory holds ``manifest.json`` (architecture config, tensor
table with byte offsets, architecture fingerprint, and free-form ``extra``
metadata: the ``model_kind`` and, say, an alphabet) and ``weights.bin``
with all tensors concatenated as float32 little-endian in sorted-name order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .tcn import Tcn, TcnConfig, config_fingerprint

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "weights.bin"
_DTYPE = np.dtype("<f4")


class WeightsError(RuntimeError):
    """Corrupt, truncated, or inconsistent model directory, or one of another kind."""


def _blob(arrays: dict[str, np.ndarray]) -> bytes:
    """The arrays as ``weights.bin`` holds them: float32 little-endian in sorted-name order."""
    return b"".join(np.ascontiguousarray(arrays[name], dtype=_DTYPE).tobytes() for name in sorted(arrays))


def weights_digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 of the ``weights.bin`` that :func:`save_tcn` writes for the arrays,
    so a trained model and its reloaded copy agree."""
    return hashlib.sha256(_blob(arrays)).hexdigest()


def save_tcn(directory: str | Path, tcn: Tcn, extra: dict) -> None:
    """Write ``tcn``'s config and float32 weights, with ``extra`` in the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = tcn.state_arrays()
    table, offset = [], 0
    for name in sorted(arrays):
        table.append({"name": name, "shape": list(arrays[name].shape), "offset_bytes": offset})
        offset += arrays[name].size * _DTYPE.itemsize
    manifest = {
        "format_version": 1,
        "config": tcn.config.to_dict(),
        "fingerprint": tcn.fingerprint,
        "tensors": table,
        "total_bytes": offset,
        "extra": extra,
    }
    (directory / BLOB_NAME).write_bytes(_blob(arrays))
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def load_tcn(directory: str | Path, model_kind: str) -> tuple[Tcn, dict]:
    """The frozen network that :func:`save_tcn` wrote to ``directory``, and its
    ``extra``; raise :class:`WeightsError` unless ``extra`` names ``model_kind``."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise WeightsError(f"{directory} is not a model directory")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WeightsError(f"{directory}: unreadable manifest: {exc}") from exc
    try:
        config = TcnConfig.from_dict(manifest["config"])
        table = manifest["tensors"]
        total = int(manifest["total_bytes"])
        stored_fp = manifest["fingerprint"]
        extra = dict(manifest.get("extra", {}))
        if extra.get("model_kind") != model_kind:
            raise WeightsError(
                f"{directory} holds model_kind {extra.get('model_kind')!r}, not {model_kind!r}"
            )
        if config_fingerprint(config) != stored_fp:
            raise WeightsError(f"{directory}: fingerprint does not match the manifest config")
        blob = blob_path.read_bytes()
        if len(blob) != total:
            raise WeightsError(
                f"{directory}: weights blob has {len(blob)} bytes, manifest declares {total}"
            )
        arrays: dict[str, np.ndarray] = {}
        for entry in table:
            shape = tuple(int(s) for s in entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = int(entry["offset_bytes"])
            end = start + count * _DTYPE.itemsize
            if start < 0 or end > len(blob):
                raise WeightsError(f"{directory}: tensor {entry['name']!r} overruns the blob")
            arr = np.frombuffer(blob[start:end], dtype=_DTYPE)
            if arr.size != count:
                raise WeightsError(f"{directory}: tensor {entry['name']!r} is truncated")
            arrays[entry["name"]] = arr.reshape(shape)
        return Tcn.from_arrays(config, arrays), extra  # refuses shapes that do not fit the config
    except (KeyError, TypeError, ValueError) as exc:  # a manifest field missing or of the wrong kind
        raise WeightsError(f"{directory}: malformed manifest: {exc!r}") from exc
