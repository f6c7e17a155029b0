"""Paths, thread pinning and package import shared by the benchmark scripts.

Every script here is started as ``python3 perfbench/<script>.py`` from the
root of a source checkout. The package is imported from that checkout's
``src/`` and nowhere else, and BLAS is pinned to one thread before numpy is
first imported, so ``--jobs 2`` means two compute threads.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "signscribe"
STATE = ROOT / ".perfbench"  # models, scratch inputs, results; never committed

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict[str, str]:
    """Environment for child processes: pinned BLAS, package on the path.

    Bytecode caching stays on, as for an installed package, so the set-up
    probe does not count compiling the package's sources.
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_package() -> None:
    """Import ``signscribe`` from this checkout; exit non-zero if it is absent."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import signscribe

    if Path(signscribe.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported signscribe from {signscribe.__file__}")


def source_digest() -> str:
    """sha256 over every package source file (path and bytes), sorted by path."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
