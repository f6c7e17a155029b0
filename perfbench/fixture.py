"""Model fixture: the two toy models every annotate workload loads.

The models are trained once per package source tree with the package's
public trainers, at the fixed seeds and recipe the test suite uses, and
saved under ``.perfbench/models/<source digest>/`` in the layout
``annotate --model-dir`` expects. Later runs reuse them. A change to the
package retrains; a change to the benchmark does not.

Run as ``python3 perfbench/fixture.py <model dir>`` to train into that
directory. ``run.py`` starts it as a child process, so training never falls
inside a timed region, the set-up probe, or the measured process's memory.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import PACKAGE, ROOT, STATE, child_env, file_sha256, source_digest

# Recipe of tests/conftest.py, on the package's default synthetic world.
FS_CORPUS = dict(num_phrases=500, num_signers=10, seed=7)
ISR_CORPUS = dict(clips_per_class=15, num_signers=10, seed=11)
FS_TRAIN = dict(epochs=40, seed=0, channels=48)
ISR_TRAIN = dict(epochs=25, seed=0, channels=48, lr=1e-3)
TRAIN_TIMEOUT_S = 840


def model_dir() -> Path:
    return STATE / "models" / source_digest()[:16]


def weight_digests(root: Path) -> dict[str, str]:
    """sha256 of every weights.bin under the model directory, by subdirectory."""
    return {
        blob.parent.relative_to(root).as_posix(): file_sha256(blob)
        for blob in sorted(root.rglob("weights.bin"))
    }


def ensure_models() -> Path:
    """Return the fixture directory, training it in a child process if absent."""
    target = model_dir()
    if (target / "fingerspelling").is_dir() and (target / "isr").is_dir():
        return target
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(tmp)],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=TRAIN_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        try:
            tmp.rename(target)
        except OSError:
            if not (target / "isr").is_dir():  # not a concurrent winner: a real error
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def train(out: Path) -> None:
    from signscribe import fingerspelling as fs_mod
    from signscribe import isr as isr_mod
    from signscribe import synthetic as syn

    world = syn.make_world()
    fs_corpus = syn.make_fingerspelling_corpus(world, **FS_CORPUS)
    fs_model = fs_mod.train_toy(fs_corpus, world.alphabet, **FS_TRAIN)
    fs_mod.save_fingerspelling_model(out / "fingerspelling", fs_model)
    del fs_corpus
    isr_corpus = syn.make_isr_corpus(world, **ISR_CORPUS)
    isr_model = isr_mod.train_toy_isr(isr_corpus, world.vocabulary, **ISR_TRAIN)
    isr_mod.save_isr_model(out / "isr", isr_model)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not (PACKAGE / "__init__.py").is_file():
        raise SystemExit("usage: python3 perfbench/fixture.py <model dir> (from a source checkout)")
    train(Path(sys.argv[1]))
