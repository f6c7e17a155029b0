"""The synthetic generators' output, pinned bit for bit.

The test corpora, the session models trained on them and the benchmark
inputs all come from these generators, so a change to what they draw, or
in what order, fails here and not only in fixture digests downstream. The
digests were taken from the per-frame clip builder that the array builder
replaced.
"""

import hashlib

import numpy as np
import pytest

from signscribe import synthetic as syn
from signscribe.gloss import parse_gloss_sequence

ARRAYS = ("timestamps", "hand_left", "hand_right", "left_present", "right_present", "body", "body_present")


def digest(seqs, *labels) -> str:
    """sha256 over each sequence's arrays (with shapes and dtypes), joints, fps and video id."""
    h = hashlib.sha256(repr(labels).encode())
    for seq in seqs:
        h.update(repr((seq.joints, seq.fps, seq.video_id)).encode())
        for name in ARRAYS:
            array = getattr(seq, name)
            h.update(repr((name, array.shape, array.dtype.str)).encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def worked_example(world):
    line = parse_gloss_sequence("fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG")
    poses, spans = syn.compose_sentence_video(world, line, seed=5, video_id="worked")
    return digest([poses], spans)


def fingerspelling_corpus(world):
    corpus = syn.make_fingerspelling_corpus(world, num_phrases=6, num_signers=2, seed=7)
    return digest([s.poses for s in corpus], [(s.sample_id, s.words, s.signer_id) for s in corpus])


def isr_corpus(world):
    corpus = syn.make_isr_corpus(world, clips_per_class=1, num_signers=3, seed=11)
    return digest([s.poses for s in corpus], [(s.sample_id, s.gloss, s.span, s.signer_id) for s in corpus])


@pytest.mark.parametrize(
    "make, expected",
    [
        (worked_example, "237f6d400b25b37df05d7879134d7dfda6ed3b744892d093d057bf5c20202f38"),
        (fingerspelling_corpus, "2530493ddae5a04d6d77c72fc49ca4ba050c737370c59cf966d4f126acf58cb9"),
        (isr_corpus, "cc650ec15adab0514804253361538b183d54db88e2714f159e4626629d5abf2f"),
    ],
    ids=["worked_example", "fingerspelling_corpus", "isr_corpus"],
)
def test_generator_output_is_pinned(world, make, expected):
    assert make(world) == expected
