"""Fingerspelling recognizer: per-frame character scores over dominant-hand
features, greedy recognition, and word-level forced alignment.

The same model backs two uses: context-free recognition of pure
fingerspelling clips, and alignment of candidate words against mixed
signing video, where each word gets a mean character score and a frame
interval spanning its first to last letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .ctc import PIPE, Alphabet, FrameScores, ctc_losses, forced_align, greedy_decode
from .gloss import TokenizationError, to_ctc_tokens
from .metrics import cer
from .pose import FINGERSPELLING_FEATURES, PoseSequence, VideoFeatures
from .training import fit, stratified_split

LR = 4e-3  # peak of the cosine learning-rate schedule


@dataclass
class FingerspellingModel:
    tcn: nn.Tcn
    alphabet: Alphabet
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class WordDetection:
    word: str
    score: float
    start_frame: int
    end_frame: int  # inclusive


def _features(poses: PoseSequence | VideoFeatures) -> np.ndarray:
    return VideoFeatures.of(poses).rows(FINGERSPELLING_FEATURES)


def frame_scores(model: FingerspellingModel, poses: PoseSequence | VideoFeatures) -> FrameScores:
    """Softmax character probabilities per frame for a video."""
    logits = model.tcn.forward(_features(poses))
    return FrameScores(probs=nn.softmax(logits.data), kind="softmax")


def recognize(model: FingerspellingModel, poses: PoseSequence) -> str:
    """Context-free greedy decode of a fingerspelling clip."""
    return greedy_decode(frame_scores(model, poses), model.alphabet)


def normalize_word(word: str, alphabet: Alphabet) -> str:
    """Case-fold a word into the recognizer alphabet, dropping the characters
    outside it and the word separator ``|``."""
    return "".join(ch for ch in word.upper() if ch in alphabet.chars and ch != PIPE)


def align_words_scores(
    scores: FrameScores, words: list[str], alphabet: Alphabet
) -> list[WordDetection]:
    """Force-align a word list against precomputed character scores.

    A character outside the alphabet, or the separator ``|``, raises
    :class:`TokenizationError` naming it and its word; so does an empty
    word, naming its place in the list. A word's score is the mean of its
    letters' scores, and its interval runs from its first letter's first
    frame to its last letter's last frame. Detected words are upper-cased.
    """
    if "" in words:
        error = TokenizationError("", "")
        error.args = (f"word {words.index('')} of the list is empty",)
        raise error
    units = forced_align(scores, to_ctc_tokens(words, alphabet), alphabet).units
    letters = iter(unit for unit in units if unit.symbol != PIPE)
    detections = []
    for w in words:
        word = w.upper()
        spelled = [next(letters) for _ in word]
        detections.append(
            WordDetection(
                word=word,
                score=float(np.mean([unit.score for unit in spelled])),
                start_frame=spelled[0].start_frame,
                end_frame=spelled[-1].end_frame,
            )
        )
    return detections


# --- training ---------------------------------------------------------------


def train_toy(
    corpus: list,
    alphabet: Alphabet,
    epochs: int = 40,
    seed: int = 0,
    channels: int = 48,
) -> FingerspellingModel:
    """Train the character recognizer on a synthetic corpus.

    Uses a 70/15/15 train/val/test split stratified by signer and
    :func:`training.fit` (AdamW, cosine annealing, early stopping). Each
    step takes a batch of ``training.BATCH_SIZE`` phrases concatenated in
    time: one forward and one backward, with each phrase's CTC loss and
    gradient from its own slice of the logits, all from one
    :func:`ctc.ctc_losses` pass; the step minimises the batch's mean loss.
    An epoch's validation score is the mean greedy-decode CER of the
    validation phrases, all decoded from one :meth:`nn.Tcn.forward_each`
    pass, and the weights of the earliest epoch with the lowest one are
    returned. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    train, val, _test = stratified_split(corpus, rng)

    config = nn.fingerspelling_config(
        input_dim=len(FINGERSPELLING_FEATURES), output_classes=alphabet.size, channels=channels
    )
    tcn = nn.Tcn.init(config, rng)
    feats = {s.sample_id: _features(s.poses) for s in train + val}
    targets = {s.sample_id: to_ctc_tokens(list(s.words), alphabet) for s in train}

    def step(nets, batch) -> float:
        (net,) = nets
        rows = [feats[s.sample_id] for s in batch]
        logits = net.forward(np.concatenate(rows))
        ends = np.cumsum([len(r) for r in rows])
        probs = np.split(nn.softmax(logits.data), ends[:-1])
        losses = ctc_losses(
            [FrameScores(probs=p) for p in probs], [targets[s.sample_id] for s in batch]
        )
        logits.backward(np.concatenate([grad for _, grad in losses]) / len(batch))
        return float(np.mean([loss for loss, _ in losses]))

    def score(nets, samples) -> list[float]:
        (net,) = nets
        logits = net.forward_each([feats[s.sample_id] for s in samples])
        return [
            cer(" ".join(s.words), greedy_decode(FrameScores(probs=nn.softmax(z)), alphabet))
            for s, z in zip(samples, logits)
        ]

    (best,), history = fit([tcn], train, val, step, score, rng, epochs=epochs, lr=LR)
    return FingerspellingModel(tcn=best, alphabet=alphabet, history=history)


# --- persistence ------------------------------------------------------------


def save_fingerspelling_model(directory: str | Path, model: FingerspellingModel) -> None:
    extra = {"model_kind": "fingerspelling", "alphabet": model.alphabet.to_dict()}
    nn.save_tcn(directory, model.tcn, extra)


def load_fingerspelling_model(directory: str | Path) -> FingerspellingModel:
    tcn, extra = nn.load_tcn(directory, "fingerspelling")
    return FingerspellingModel(tcn=tcn, alphabet=Alphabet.from_dict(extra["alphabet"]))
