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

from . import ctc as ctc_mod
from . import nn
from .ctc import Alphabet, FrameScores, aggregate_words, forced_align, greedy_decode
from .gloss import TokenizationError, to_ctc_tokens
from .pose import FINGERSPELLING_FEATURES, PoseSequence, build_features, prepare_sequence
from .training import CorpusError, fit, stratified_split


@dataclass
class FingerspellingModel:
    tcn: nn.Tcn
    alphabet: Alphabet
    history: list = field(default_factory=list)

    @property
    def config(self) -> nn.TcnConfig:
        return self.tcn.config


@dataclass(frozen=True)
class WordDetection:
    word: str
    score: float
    start_frame: int
    end_frame: int  # inclusive

    @property
    def fingerspelled_region(self) -> tuple[int, int]:
        """Interval from the first to the last letter detection."""
        return (self.start_frame, self.end_frame)


def _features(poses: PoseSequence) -> np.ndarray:
    prepared, _ = prepare_sequence(poses, FINGERSPELLING_FEATURES)
    return build_features(prepared, FINGERSPELLING_FEATURES).rows


def frame_scores(model: FingerspellingModel, poses: PoseSequence) -> FrameScores:
    """Softmax character probabilities per frame for a pose sequence."""
    logits = model.tcn.forward(_features(poses))
    return FrameScores(probs=nn.softmax(logits.data), kind="softmax", fps=poses.fps)


def recognize(model: FingerspellingModel, poses: PoseSequence) -> str:
    """Context-free greedy decode of a fingerspelling clip."""
    return greedy_decode(frame_scores(model, poses), model.alphabet)


def normalize_word(word: str, alphabet: Alphabet, on_unknown: str = "error") -> str:
    """Case-fold a word into the recognizer alphabet.

    ``on_unknown`` is "error" (raise TokenizationError) or "strip" (drop
    characters outside the alphabet).
    """
    out = []
    for ch in word.upper():
        try:
            alphabet.index(ch)
        except KeyError:
            if on_unknown == "strip":
                continue
            raise TokenizationError(ch, word) from None
        out.append(ch)
    return "".join(out)


def align_words_scores(
    scores: FrameScores, words: list[str], alphabet: Alphabet, on_unknown: str = "error"
) -> list[WordDetection]:
    """Force-align a word list against precomputed character scores."""
    norm = [normalize_word(w, alphabet, on_unknown) for w in words]
    if any(not w for w in norm):
        empty = words[norm.index("")]
        raise TokenizationError("", empty)
    tokens = to_ctc_tokens(norm, alphabet)
    chars = forced_align(scores, tokens, alphabet)
    word_units = aggregate_words(chars).units
    return [
        WordDetection(
            word=w,
            score=unit.score,
            start_frame=unit.start_frame,
            end_frame=unit.end_frame,
        )
        for w, unit in zip(norm, word_units)
    ]


# --- training ---------------------------------------------------------------


def _sample_target(sample, alphabet: Alphabet) -> list[int]:
    return to_ctc_tokens(list(sample.words), alphabet)


def per_character_loss(
    model: FingerspellingModel, sample, feats: np.ndarray | None = None
) -> float:
    """CTC loss normalized by the number of spelled characters."""
    if feats is None:
        feats = _features(sample.poses)
    target = _sample_target(sample, model.alphabet)
    scores = FrameScores(
        probs=nn.softmax(model.tcn.forward(feats).data), kind="softmax", fps=sample.poses.fps
    )
    loss, _ = ctc_mod.ctc_loss(scores, target)
    n_chars = sum(len(w) for w in sample.words)
    return loss / max(1, n_chars)


def filter_training_set(dataset: list, model: FingerspellingModel, drop_fraction: float = 0.05) -> list:
    """Second-pass data filter: drop the highest-loss fraction of samples.

    Samples are ranked by per-character CTC loss under the first-pass
    model; ties are broken by sample id so the result is deterministic.
    """
    if not 0.0 <= drop_fraction < 0.5:
        raise ValueError("drop_fraction must lie in [0, 0.5)")
    n_drop = int(drop_fraction * len(dataset))
    if n_drop == 0:
        return list(dataset)
    losses = {s.sample_id: per_character_loss(model, s) for s in dataset}
    ranked = sorted(dataset, key=lambda s: s.sample_id)
    ranked.sort(key=lambda s: losses[s.sample_id], reverse=True)
    dropped = {id(s) for s in ranked[:n_drop]}
    return [s for s in dataset if id(s) not in dropped]


def train_toy(
    corpus: list,
    alphabet: Alphabet,
    epochs: int = 40,
    seed: int = 0,
    channels: int = 48,
    lr: float = 7e-4,
    weight_decay: float = 1e-5,
    min_lr: float = 1e-6,
    patience: int = 10,
    grad_clip: float = 5.0,
) -> FingerspellingModel:
    """Train the character recognizer on a synthetic corpus.

    Uses a 70/15/15 train/val/test split stratified by signer and
    :func:`training.fit` (AdamW, cosine annealing, early stopping on
    validation loss) with one sample per step; the validation loss is
    per spelled character. Returns the best-validation weights.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    train, val, _test = stratified_split(corpus, rng)
    if not train or not val:
        raise CorpusError("corpus too small to stratify")

    config = nn.fingerspelling_config(
        input_dim=2 * 21, output_classes=alphabet.size, channels=channels
    )
    tcn = nn.Tcn.init(config, rng)
    feats = {s.sample_id: _features(s.poses) for s in corpus}
    targets = {s.sample_id: _sample_target(s, alphabet) for s in corpus}

    def loss_fn(samples, train_mode: bool) -> nn.Tensor:
        (s,) = samples
        logits = tcn.forward(feats[s.sample_id])
        probs = nn.softmax(logits.data)
        loss, grad = ctc_mod.ctc_loss(
            FrameScores(probs=probs, kind="softmax"), targets[s.sample_id]
        )
        if train_mode:
            return nn.external_loss(logits, loss, grad)
        return nn.constant(loss / max(1, sum(len(w) for w in s.words)))

    (best,), history = fit(
        [tcn], train, val, loss_fn, rng, epochs=epochs, batch_size=1, lr=lr,
        weight_decay=weight_decay, min_lr=min_lr, patience=patience, grad_clip=grad_clip,
    )
    return FingerspellingModel(tcn=best, alphabet=alphabet, history=history)


# --- persistence ------------------------------------------------------------


def save_fingerspelling_model(directory: str | Path, model: FingerspellingModel) -> None:
    weights = nn.ModelWeights.from_float64(
        model.config,
        model.tcn.state_arrays(),
        extra={"model_kind": "fingerspelling", "alphabet": model.alphabet.to_dict()},
    )
    nn.save_weights(directory, weights)


def load_fingerspelling_model(directory: str | Path) -> FingerspellingModel:
    weights = nn.load_weights(directory)
    if weights.extra.get("model_kind") != "fingerspelling":
        raise nn.WeightsError(f"{directory} does not hold a fingerspelling model")
    alphabet = Alphabet.from_dict(weights.extra["alphabet"])
    tcn = nn.Tcn.from_arrays(weights.config, weights.as_float64())
    return FingerspellingModel(tcn=tcn, alphabet=alphabet)
