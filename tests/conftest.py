"""Shared fixtures: synthetic world, corpora, and session-trained toy models.

Training runs once per session and is reused by the recognizer, pipeline,
CLI, and acceptance tests. On a 2-vCPU host the fingerspelling model takes
about 25 s (22 of its 40 epochs, in batches of 8 phrases, before patience
stops it) and the ISR model about 6 s.
"""

import functools
import json
import time

import numpy as np
import pytest

from signscribe import fingerspelling as fs_mod
from signscribe import isr as isr_mod
from signscribe import pipeline as pipeline_mod
from signscribe import synthetic as syn
from signscribe.pipeline import Models


def _checked(document_bytes):
    """``document_bytes`` that also asserts its bytes equal those of the json
    module's indenting encoder, which wrote documents before the direct
    emitter. Installed before any test module imports the name, so every
    document the suite serialises, in this process or a forked batch
    worker, checks the emitter."""

    @functools.wraps(document_bytes)
    def checked(doc):
        payload = document_bytes(doc)
        reference = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert payload == reference.encode("utf-8"), "document_bytes differs from json.dumps"
        return payload

    return checked


pipeline_mod.document_bytes = _checked(pipeline_mod.document_bytes)

FS_EPOCHS = 40
ISR_EPOCHS = 25
CHANNELS = 48

_TRAINING_TIMES: dict[str, float] = {}


@pytest.fixture(scope="session")
def world():
    return syn.make_world()


@pytest.fixture(scope="session")
def fs_corpus(world):
    return syn.make_fingerspelling_corpus(world, num_phrases=500, num_signers=10, seed=7)


@pytest.fixture(scope="session")
def isr_corpus(world):
    return syn.make_isr_corpus(world, clips_per_class=15, num_signers=10, seed=11)


@pytest.fixture(scope="session")
def training_times():
    """Wall-clock training durations, filled in by the model fixtures."""
    return _TRAINING_TIMES


@pytest.fixture(scope="session")
def fs_model(world, fs_corpus):
    start = time.time()
    model = fs_mod.train_toy(
        fs_corpus, world.alphabet, epochs=FS_EPOCHS, seed=0, channels=CHANNELS
    )
    _TRAINING_TIMES["fingerspelling"] = time.time() - start
    return model


@pytest.fixture(scope="session")
def isr_model(world, isr_corpus):
    start = time.time()
    model = isr_mod.train_toy_isr(
        isr_corpus, world.vocabulary, epochs=ISR_EPOCHS, seed=0, channels=CHANNELS, lr=1e-3
    )
    _TRAINING_TIMES["isr"] = time.time() - start
    return model


@pytest.fixture(scope="session")
def models(fs_model, isr_model):
    return Models(fingerspelling=fs_model, isr=isr_model)


@pytest.fixture(scope="session")
def model_root(fs_model, isr_model, tmp_path_factory):
    """Model directory layout the CLI expects."""
    root = tmp_path_factory.mktemp("models")
    fs_mod.save_fingerspelling_model(root / "fingerspelling", fs_model)
    isr_mod.save_isr_model(root / "isr", isr_model)
    return root


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
