"""Three-step pseudo-annotation pipeline.

Given an English sentence and a pose sequence: (1) obtain k candidate
glossings from the LLM gateway, (2) force-align each candidate's
fingerspelled-kind words (each distinct word list once per video) and keep
confident detections as time anchors, (3) align the remaining glosses
inside the inter-anchor intervals with the sign recognizer, then score and
rank the candidates and emit a JSON annotation document.

A token with no vocabulary class (an out-of-vocabulary gloss, a classifier,
or a fingerspelled token demoted for want of a confident anchor) scores the
mean, over its aligned segment, of P(ANY) x (1 - the largest in-vocabulary
class probability): "some sign, but not a known one".
"""

from __future__ import annotations

import enum
import functools
import json
import logging
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Sequence

import jsonschema
import numpy as np

from . import fingerspelling as fs_mod
from . import isr as isr_mod
from . import nn
from .ctc import Alphabet, FrameScores, InfeasibleTargetError
from .fingerspelling import FingerspellingModel, WordDetection
from .gloss import GlossSequence, GlossToken, TokenKind, parse_gloss_sequence, render
from .isr import AlignEntry, GlossDetection, IsrModel
from .llm import LlmClient, LlmError, StubClient, translate_candidates
from .pose import PoseSequence

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "v1"
ANCHOR_KINDS = (TokenKind.FINGERSPELLED, TokenKind.NAME_SIGN, TokenKind.LEXICALIZED)


class ScoreMode(str, enum.Enum):
    MEAN = "mean"
    SUM = "sum"


@dataclass(frozen=True)
class PipelineConfig:
    k: int = 10
    fs_threshold: float = 0.3
    score_mode: ScoreMode = ScoreMode.MEAN
    min_sign_duration: int = 3
    llm_mode: str = "stub"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.fs_threshold < 1.0:
            raise ValueError("fingerspelling threshold must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "fs_threshold": self.fs_threshold,
            "score_mode": self.score_mode.value,
            "min_sign_duration": self.min_sign_duration,
            "llm_mode": self.llm_mode,
        }


@dataclass
class Models:
    fingerspelling: FingerspellingModel
    isr: IsrModel

    def fingerprints(self) -> dict[str, str]:
        """Per network: the architecture digest, and a ``*_weights`` digest
        that tells differently trained weights apart."""
        nets = {
            "fingerspelling": self.fingerspelling.tcn,
            "isr_two_hand": self.isr.two_hand,
            "isr_one_hand": self.isr.one_hand,
        }
        out = {name: tcn.fingerprint for name, tcn in nets.items()}
        for name, tcn in nets.items():
            out[f"{name}_weights"] = nn.weights_digest(tcn.state_arrays())
        return out


@dataclass(frozen=True)
class SignScore:
    """Per-token alignment outcome inside one candidate."""

    kind: str  # "fingerspelled" | "gloss"
    token: str
    notation: str
    score: float
    interval: tuple[int, int]
    anchored: bool = False
    in_vocabulary: bool | None = None
    peak_frame: int | None = None
    fingerspelled_region: tuple[int, int] | None = None


@dataclass
class CandidateAnnotation:
    gloss_sequence: GlossSequence
    per_sign: list[SignScore]
    aggregate_score: float
    rank: int
    candidate_index: int
    errors: list[str] = field(default_factory=list)


@dataclass
class AnnotationDocument:
    video_id: str
    english: str
    fps: float
    candidates: list[CandidateAnnotation]
    model_fingerprints: dict[str, str]
    config: PipelineConfig
    errors: list[str] = field(default_factory=list)


def score_candidate(scores: Sequence[float], mode: ScoreMode = ScoreMode.MEAN) -> float:
    """Aggregate per-sign scores: arithmetic mean, or plain sum."""
    if not scores:
        raise ValueError("cannot score an empty detection list")
    total = float(sum(scores))
    return total / len(scores) if mode is ScoreMode.MEAN else total


def _notation(tok: GlossToken) -> str:
    return render(GlossSequence(tokens=(tok,)))


def _unknown_sign_score(
    isr_scores: FrameScores, vocab: isr_mod.SignVocabulary, interval: tuple[int, int]
) -> float:
    """Mean of P(ANY) x (1 - max in-vocabulary P) over an inclusive interval.

    ANY fires on every sign span, known or not; discounting it by the best
    vocabulary class keeps a wrong out-of-vocabulary gloss from outscoring
    the correct in-vocabulary gloss where a known sign is signed.
    """
    probs = isr_scores.probs[interval[0] : interval[1] + 1]
    known = probs[:, : len(vocab.glosses)].max(axis=1, initial=0.0)
    return float(np.mean(probs[:, vocab.any_index] * (1.0 - known)))


WordAligner = Callable[[tuple[str, ...]], tuple[WordDetection, ...]]


def _word_aligner(fs_scores: FrameScores, alphabet: Alphabet) -> WordAligner:
    """Step 2 for one video: force-align each distinct word tuple once.

    Candidates mostly share their fingerspelled words, so the aligner
    caches by normalised word tuple. It lives as long as one video's
    scores; an infeasible tuple is not cached and raises again.
    """

    @functools.cache
    def align(words: tuple[str, ...]) -> tuple[WordDetection, ...]:
        return tuple(
            fs_mod.align_words_scores(fs_scores, list(words), alphabet, on_unknown="strip")
        )

    return align


def _score_sequence(
    seq: GlossSequence,
    align_words: WordAligner,
    isr_scores: FrameScores,
    models: Models,
    config: PipelineConfig,
) -> tuple[list[SignScore], list[str]]:
    """Steps 2 and 3 for one candidate against precomputed frame scores."""
    errors: list[str] = []
    alphabet = models.fingerspelling.alphabet

    fs_positions: list[int] = []
    fs_words: dict[int, str] = {}
    for i, tok in enumerate(seq.tokens):
        if tok.kind in ANCHOR_KINDS:
            fs_positions.append(i)
            word = fs_mod.normalize_word(tok.text, alphabet, on_unknown="strip")
            if word:
                fs_words[i] = word
            else:
                errors.append(f"token {tok.text!r} has no characters in the alphabet")

    detections: dict[int, WordDetection] = {}
    alignable = [i for i in fs_positions if i in fs_words]
    if alignable:
        try:
            dets = align_words(tuple(fs_words[i] for i in alignable))
            detections = dict(zip(alignable, dets))
        except InfeasibleTargetError as exc:
            errors.append(f"fingerspelling alignment infeasible: {exc}")

    anchors = [
        (i, detections[i])
        for i in alignable
        if i in detections and detections[i].score >= config.fs_threshold
    ]

    entries: list[AlignEntry] = []
    anchor_set = {i for i, _ in anchors}
    for i, tok in enumerate(seq.tokens):
        if i in anchor_set:
            continue
        entries.append(
            AlignEntry(token_index=i, token=tok, force_any=tok.kind in ANCHOR_KINDS)
        )
    gloss_dets, interval_errors = isr_mod.align_glosses_scores(
        isr_scores,
        models.isr.vocabulary,
        entries,
        anchors,
        min_sign_frames=config.min_sign_duration,
    )
    errors.extend(interval_errors)

    per_sign: list[SignScore] = []
    for i, tok in enumerate(seq.tokens):
        if i in anchor_set:
            det = detections[i]
            per_sign.append(
                SignScore(
                    kind="fingerspelled",
                    token=det.word,
                    notation=_notation(tok),
                    score=det.score,
                    interval=(det.start_frame, det.end_frame),
                    anchored=True,
                    fingerspelled_region=det.fingerspelled_region,
                )
            )
        else:
            gd: GlossDetection = gloss_dets[i]
            score = gd.score
            # score 0 marks a token of an infeasible interval: nothing was placed
            if not gd.in_vocabulary and score > 0.0:
                score = _unknown_sign_score(isr_scores, models.isr.vocabulary, gd.interval)
            per_sign.append(
                SignScore(
                    kind="gloss",
                    token=tok.text,
                    notation=_notation(tok),
                    score=score,
                    interval=gd.interval,
                    anchored=False,
                    in_vocabulary=gd.in_vocabulary,
                    peak_frame=gd.frame,
                )
            )
    return per_sign, errors


def _rank(candidates: list[CandidateAnnotation]) -> None:
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-candidates[i].aggregate_score, candidates[i].candidate_index),
    )
    for rank, i in enumerate(order, start=1):
        candidates[i].rank = rank
    candidates.sort(key=lambda c: c.rank)


def annotate(
    english: str,
    poses: PoseSequence,
    models: Models,
    config: PipelineConfig | None = None,
    client: LlmClient | None = None,
) -> AnnotationDocument:
    """Run the full pipeline for one video."""
    config = config or PipelineConfig()
    client = client or StubClient()
    doc = AnnotationDocument(
        video_id=poses.video_id,
        english=english,
        fps=poses.fps,
        candidates=[],
        model_fingerprints=models.fingerprints(),
        config=config,
    )
    try:
        cand_set = translate_candidates(client, english, k=config.k)
    except (LlmError, ValueError) as exc:
        doc.errors.append(f"translation failed: {exc}")
        return doc

    fs_scores = fs_mod.frame_scores(models.fingerspelling, poses)
    align_words = _word_aligner(fs_scores, models.fingerspelling.alphabet)
    isr_scores = isr_mod.isr_scores(models.isr, poses)
    for idx, line in enumerate(cand_set.candidates):
        seq = parse_gloss_sequence(line)
        if not seq.tokens:
            doc.errors.append(f"candidate {idx} is empty")
            continue
        per_sign, errors = _score_sequence(seq, align_words, isr_scores, models, config)
        doc.candidates.append(
            CandidateAnnotation(
                gloss_sequence=seq,
                per_sign=per_sign,
                aggregate_score=score_candidate(
                    [s.score for s in per_sign], config.score_mode
                ),
                rank=0,
                candidate_index=idx,
                errors=errors,
            )
        )
    _rank(doc.candidates)
    return doc


def score_manual_annotation(
    annotation: GlossSequence,
    poses: PoseSequence,
    models: Models,
    config: PipelineConfig | None = None,
    fs_scores: FrameScores | None = None,
    isr_scores: FrameScores | None = None,
) -> CandidateAnnotation:
    """Score a known gloss line against a video, skipping the LLM step.

    Precomputed frame scores may be passed in when scoring many candidates
    against the same video.
    """
    config = config or PipelineConfig()
    if not annotation.tokens:
        raise ValueError("empty annotation")
    if fs_scores is None:
        fs_scores = fs_mod.frame_scores(models.fingerspelling, poses)
    if isr_scores is None:
        isr_scores = isr_mod.isr_scores(models.isr, poses)
    align_words = _word_aligner(fs_scores, models.fingerspelling.alphabet)
    per_sign, errors = _score_sequence(annotation, align_words, isr_scores, models, config)
    return CandidateAnnotation(
        gloss_sequence=annotation,
        per_sign=per_sign,
        aggregate_score=score_candidate([s.score for s in per_sign], config.score_mode),
        rank=1,
        candidate_index=0,
        errors=errors,
    )


# --- document serialization ----------------------------------------------------


def _round(x: float) -> float:
    return round(float(x), 6)


def _sign_to_json(s: SignScore) -> dict:
    out = {
        "kind": s.kind,
        "token": s.token,
        "notation": s.notation,
        "score": _round(s.score),
        "interval": [int(s.interval[0]), int(s.interval[1])],
        "anchored": s.anchored,
    }
    if s.kind == "gloss":
        out["in_vocabulary"] = bool(s.in_vocabulary)
        out["peak_frame"] = int(s.peak_frame)
    else:
        region = s.fingerspelled_region or s.interval
        out["fingerspelled_region"] = [int(region[0]), int(region[1])]
    return out


def _sign_from_json(data: dict) -> SignScore:
    common = dict(
        kind=data["kind"],
        token=data["token"],
        notation=data["notation"],
        score=float(data["score"]),
        interval=(int(data["interval"][0]), int(data["interval"][1])),
        anchored=bool(data["anchored"]),
    )
    if data["kind"] == "gloss":
        return SignScore(
            **common,
            in_vocabulary=bool(data["in_vocabulary"]),
            peak_frame=int(data["peak_frame"]),
        )
    region = data["fingerspelled_region"]
    return SignScore(**common, fingerspelled_region=(int(region[0]), int(region[1])))


def document_to_json(doc: AnnotationDocument) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "video_id": doc.video_id,
        "english": doc.english,
        "fps": doc.fps,
        "config": doc.config.to_dict(),
        "model_fingerprints": dict(sorted(doc.model_fingerprints.items())),
        "candidates": [
            {
                "rank": c.rank,
                "candidate_index": c.candidate_index,
                "gloss": render(c.gloss_sequence),
                "aggregate_score": _round(c.aggregate_score),
                "per_sign": [_sign_to_json(s) for s in c.per_sign],
                "errors": list(c.errors),
            }
            for c in doc.candidates
        ],
        "errors": list(doc.errors),
    }


def document_from_json(data: dict) -> AnnotationDocument:
    config = PipelineConfig(
        k=int(data["config"]["k"]),
        fs_threshold=float(data["config"]["fs_threshold"]),
        score_mode=ScoreMode(data["config"]["score_mode"]),
        min_sign_duration=int(data["config"]["min_sign_duration"]),
        llm_mode=str(data["config"]["llm_mode"]),
    )
    candidates = []
    for c in data["candidates"]:
        candidates.append(
            CandidateAnnotation(
                gloss_sequence=parse_gloss_sequence(c["gloss"]),
                per_sign=[_sign_from_json(s) for s in c["per_sign"]],
                aggregate_score=float(c["aggregate_score"]),
                rank=int(c["rank"]),
                candidate_index=int(c["candidate_index"]),
                errors=list(c["errors"]),
            )
        )
    return AnnotationDocument(
        video_id=data["video_id"],
        english=data["english"],
        fps=float(data["fps"]),
        candidates=candidates,
        model_fingerprints=dict(data["model_fingerprints"]),
        config=config,
        errors=list(data["errors"]),
    )


def document_bytes(doc: AnnotationDocument) -> bytes:
    """Canonical serialized form: sorted keys, two-space indent, UTF-8."""
    return (
        json.dumps(document_to_json(doc), indent=2, sort_keys=True, ensure_ascii=False)
        + "\n"
    ).encode("utf-8")


@functools.cache
def _document_validator() -> jsonschema.protocols.Validator:
    text = resources.files("signscribe").joinpath("schema", "annotation_v1.json").read_text("utf-8")
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_document(data: dict) -> None:
    """Raise the jsonschema.ValidationError ``jsonschema.validate`` would raise.

    The validator is built once per process; it holds no per-call state.
    """
    error = jsonschema.exceptions.best_match(_document_validator().iter_errors(data))
    if error is not None:
        raise error
