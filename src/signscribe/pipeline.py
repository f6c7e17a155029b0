"""Three-step pseudo-annotation pipeline.

Given an English sentence and a pose sequence: (1) obtain k candidate
glossings from the LLM gateway, (2) force-align each candidate's
fingerspelled-kind words (each distinct word list once per video) and keep
confident detections as time anchors, (3) align the remaining glosses
inside the inter-anchor intervals with the sign recognizer (each interval
and track list once per video), then rank the candidates and emit a JSON
annotation document. :func:`annotate` is the one scorer.

One objective places, scores and ranks: ``isr.align_glosses_scores``'s
per-frame log-probability (see there). Each gloss scores its own row's
mean over its segment; that includes a token with no vocabulary class (an
out-of-vocabulary gloss, a classifier, or a fingerspelled token demoted
for want of a confident anchor), which the ISR scores as "some sign, but
not a known one". A candidate's aggregate score is exp(objective / T)
over the video's T frames, so frames a line leaves uncovered count on
NULL and a line that omits or adds signs pays for it.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from . import fingerspelling as fs_mod
from . import isr as isr_mod
from . import nn
from .ctc import FrameScores, InfeasibleTargetError
from .fingerspelling import FingerspellingModel, WordDetection
from .gloss import FINGERSPELLED_KINDS, GlossSequence, render
from .isr import AlignEntry, GlossDetection, IsrModel
from .llm import LlmClient, LlmError, StubClient, translate_candidates
from .pose import PoseSequence, VideoFeatures

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "v2"


class ConfigError(ValueError):
    """A :class:`PipelineConfig` value out of range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


@dataclass(frozen=True)
class PipelineConfig:
    k: int = 10
    fs_threshold: float = 0.3
    min_sign_duration: int = 3
    llm_mode: str = "stub"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k", f"must be >= 1, got {self.k}")
        if not 0.0 < self.fs_threshold < 1.0:
            raise ConfigError("fs_threshold", f"must lie in (0, 1), got {self.fs_threshold}")
        if self.min_sign_duration < 1:
            raise ConfigError("min_sign_duration", f"must be >= 1, got {self.min_sign_duration}")


@dataclass(frozen=True)
class Models:
    """The trained networks; their digests are taken once, when built."""

    fingerspelling: FingerspellingModel
    isr: IsrModel

    def __post_init__(self):
        nets = {
            "fingerspelling": self.fingerspelling.tcn,
            "isr_two_hand": self.isr.two_hand,
            "isr_one_hand": self.isr.one_hand,
        }
        out = {name: tcn.fingerprint for name, tcn in nets.items()}
        for name, tcn in nets.items():
            out[f"{name}_weights"] = nn.weights_digest(tcn.state_arrays())
        object.__setattr__(self, "_fingerprints", out)

    def fingerprints(self) -> dict[str, str]:
        """Per network: the architecture digest, and a ``*_weights`` digest
        that tells differently trained weights apart."""
        return dict(self._fingerprints)


def _round(x: float) -> float:
    return round(float(x), 6)


def _score_sequence(
    seq: GlossSequence,
    align_words: Callable[[tuple[str, ...]], tuple[WordDetection, ...]],
    isr_scores: FrameScores,
    models: Models,
    config: PipelineConfig,
    gloss_memo: dict,
) -> tuple[list[dict], list[str], float]:
    """Steps 2 and 3 for one candidate, with its video's word aligner, ISR
    scores and ``isr.align_glosses_scores`` memo (see :func:`_score_candidates`):
    its per-sign document entries, errors and log objective."""
    errors: list[str] = []
    alphabet = models.fingerspelling.alphabet

    fs_words: dict[int, str] = {}  # token index -> normalised word, in token order
    for i, tok in enumerate(seq.tokens):
        if tok.kind in FINGERSPELLED_KINDS:
            word = fs_mod.normalize_word(tok.text, alphabet)
            if word:
                fs_words[i] = word
            else:
                errors.append(f"token {tok.text!r} has no characters in the alphabet")

    detections: dict[int, WordDetection] = {}
    if fs_words:
        try:
            detections = dict(zip(fs_words, align_words(tuple(fs_words.values()))))
        except InfeasibleTargetError as exc:
            errors.append(f"fingerspelling alignment infeasible: {exc}")

    anchored = {i: det for i, det in detections.items() if det.score >= config.fs_threshold}
    entries = [
        AlignEntry(token_index=i, token=tok) for i, tok in enumerate(seq.tokens) if i not in anchored
    ]
    gloss_dets, interval_errors, log_objective = isr_mod.align_glosses_scores(
        isr_scores,
        models.isr.vocabulary,
        entries,
        list(anchored.items()),
        min_sign_frames=config.min_sign_duration,
        memo=gloss_memo,
    )
    errors.extend(interval_errors)

    per_sign: list[dict] = []
    for i, tok in enumerate(seq.tokens):
        if i in anchored:
            det = anchored[i]
            per_sign.append({
                "kind": "fingerspelled",
                "token": det.word,
                "notation": tok.notation,
                "score": _round(det.score),
                "interval": [det.start_frame, det.end_frame],
                "anchored": True,
                "fingerspelled_region": [det.start_frame, det.end_frame],
            })
        else:
            gd: GlossDetection = gloss_dets[i]
            per_sign.append({
                "kind": "gloss",
                "token": tok.text,
                "notation": tok.notation,
                "score": _round(gd.score),
                "interval": list(gd.interval),
                "anchored": False,
                "in_vocabulary": gd.in_vocabulary,
                "peak_frame": gd.frame,
            })
    return per_sign, errors, log_objective


def _frame_scores(models: Models, poses: PoseSequence) -> tuple[FrameScores, FrameScores]:
    """Both recognizers' frame scores from one feature build, freed on return."""
    video = VideoFeatures(poses)
    return fs_mod.frame_scores(models.fingerspelling, video), isr_mod.isr_scores(models.isr, video)


def _score_candidates(
    candidates: Sequence[GlossSequence],
    fs_scores: FrameScores,
    isr_scores: FrameScores,
    models: Models,
    config: PipelineConfig,
) -> tuple[list[dict], list[str]]:
    """Steps 2 and 3 for every candidate of one video: the document's
    candidate entries, scored and ranked, and an error for each empty one.

    The candidates share one word aligner, which force-aligns each distinct
    fingerspelled word tuple once (an infeasible tuple is not cached and
    raises again), and one interval memo, so each inter-anchor interval and
    track list runs one DP. Both live only as long as this call. Ranks go by
    the unrounded aggregate score, exp(log objective / T), ties to the lower
    candidate index.
    """
    alphabet = models.fingerspelling.alphabet
    align_words = functools.cache(
        lambda words: tuple(fs_mod.align_words_scores(fs_scores, list(words), alphabet))
    )
    gloss_memo: dict = {}
    scored: list[tuple[float, int, dict]] = []
    errors: list[str] = []
    for idx, seq in enumerate(candidates):
        if not seq.tokens:
            errors.append(f"candidate {idx} is empty")
            continue
        per_sign, seq_errors, log_objective = _score_sequence(
            seq, align_words, isr_scores, models, config, gloss_memo
        )
        aggregate = math.exp(log_objective / isr_scores.num_frames)
        scored.append((-aggregate, idx, {
            "candidate_index": idx,
            "gloss": render(seq),
            "aggregate_score": _round(aggregate),
            "per_sign": per_sign,
            "errors": seq_errors,
        }))
    scored.sort(key=lambda entry: entry[:2])
    return [dict(c, rank=rank) for rank, (_, _, c) in enumerate(scored, start=1)], errors


def annotate(
    english: str,
    poses: PoseSequence,
    models: Models,
    config: PipelineConfig | None = None,
    client: LlmClient | None = None,
) -> dict:
    """Run the full pipeline for one video: its document, the JSON object
    that ``schema/annotation_v2.json`` describes, which :func:`document_bytes`
    writes."""
    config = config or PipelineConfig()
    client = client or StubClient()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "video_id": poses.video_id,
        "english": english,
        "fps": poses.fps,
        "config": asdict(config),
        "model_fingerprints": models.fingerprints(),
        "candidates": [],
        "errors": [],
    }
    try:
        cand_set = translate_candidates(client, english, k=config.k)
    except (LlmError, ValueError) as exc:
        doc["errors"].append(f"translation failed: {exc}")
        return doc

    fs_scores, isr_scores = _frame_scores(models, poses)
    doc["candidates"], errors = _score_candidates(
        cand_set.candidates, fs_scores, isr_scores, models, config
    )
    doc["errors"].extend(errors)
    return doc


# --- document serialization ----------------------------------------------------


def document_bytes(doc: dict) -> bytes:
    """Canonical serialized form of an :func:`annotate` document: sorted
    keys, two-space indent, UTF-8.

    The bytes are those of ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` plus a newline, written by :func:`_emit`.
    """
    out: list[str] = []
    _emit(doc, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


_escape = json.encoder.encode_basestring  # json's own escaper, as ensure_ascii=False uses it


def _emit(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, whose first line starts after ``indent``.

    Checks types in ``json``'s order and writes what its indenting encoder
    writes: ``float.__repr__``, or ``NaN``/``Infinity``/``-Infinity`` for a
    non-finite float. Object keys must be strings.
    """
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if math.isfinite(value):
            out.append(float.__repr__(value))
        elif value != value:
            out.append("NaN")
        else:
            out.append("Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = ",\n" + inner  # one string object, appended between items
        out.append("[\n" + inner)
        for n, item in enumerate(value):
            if n:
                out.append(separator)
            _emit(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = ",\n" + inner
        out.append("{\n" + inner)
        for n, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if n:
                out.append(separator)
            out.append(_escape(key))
            out.append(": ")
            _emit(value[key], inner, out)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# --- document validation --------------------------------------------------------
#
# ``schema/annotation_v2.json`` written out as one field table per object. Each
# check gives jsonschema's (Draft 7) verdict on every value ``json.loads``
# returns: an integral float is an integer, a bool is never a number, and a bound
# fails where jsonschema's comparison does, so NaN fails none.


class DocumentError(ValueError):
    """A document value that breaks the annotation schema: ``path`` holds the
    keys and indices from the root to it, ``rule`` the rule it broke."""

    def __init__(self, rule: str):
        super().__init__(rule)
        self.rule = rule
        self.path: tuple = ()  # filled in by the enclosing objects and arrays as the error passes them

    def __str__(self) -> str:
        steps = (f".{s}" if str(s).isidentifier() else f"[{json.dumps(s)}]" for s in self.path)
        return "$" + "".join(steps) + ": " + self.rule


def _of_type(kind: type, name: str) -> Callable:
    def check(x) -> None:
        if type(x) is not kind:
            raise DocumentError(f"is not of type {name!r}")

    return check


_string, _boolean = _of_type(str, "string"), _of_type(bool, "boolean")


def _not_allowed(x) -> None:
    raise DocumentError("is not allowed")


def _number(integer: bool = False, low=None, high=None, exclusive: bool = False) -> Callable:
    """An ``integer`` or number check, with the bounds inclusive, or both exclusive."""
    kind = "integer" if integer else "number"

    def check(x) -> None:
        if type(x) is not int and (type(x) is not float or integer and not x.is_integer()):
            raise DocumentError(f"is not of type {kind!r}")
        if low is not None and (x <= low if exclusive else x < low):
            raise DocumentError(f"must be {'>' if exclusive else '>='} {low!r}")
        if high is not None and (x >= high if exclusive else x > high):
            raise DocumentError(f"must be {'<' if exclusive else '<='} {high!r}")

    return check


def _one_of(*members: str) -> Callable:
    rule = f"is not {members[0]!r}" if len(members) == 1 else f"is not one of {list(members)!r}"

    def check(x) -> None:
        if type(x) is not str or x not in members:
            raise DocumentError(rule)

    return check


def _array(item: Callable, length: int | None = None) -> Callable:
    def check(x) -> None:
        if type(x) is not list:
            raise DocumentError("is not of type 'array'")
        if length is not None and len(x) != length:
            raise DocumentError(f"must have {length} to {length} items, not {len(x)}")
        try:
            for i, value in enumerate(x):
                item(value)
        except DocumentError as exc:
            exc.path = (i, *exc.path)
            raise

    return check


def _object(fields: dict, optional: frozenset = frozenset(), other: Callable = _not_allowed) -> Callable:
    """Every key of ``fields`` but the ``optional`` ones is required; any other key must pass ``other``."""
    required = fields.keys() - optional

    def check(x) -> None:
        if type(x) is not dict:
            raise DocumentError("is not of type 'object'")
        if not x.keys() >= required:
            raise DocumentError(f"lacks required property {min(required - x.keys())!r}")
        try:
            for key, value in x.items():
                fields.get(key, other)(value)
        except DocumentError as exc:
            exc.path = (key, *exc.path)
            raise

    return check


_INTERVAL = _array(_number(integer=True, low=0), length=2)

_SIGN = {
    "kind": _one_of("fingerspelled", "gloss"),
    "token": _string,
    "notation": _string,
    "score": _number(low=0, high=1),
    "interval": _INTERVAL,
    "anchored": _boolean,
    "in_vocabulary": _boolean,
    "peak_frame": _number(integer=True, low=0),
    "fingerspelled_region": _INTERVAL,
}

_CANDIDATE = {
    "rank": _number(integer=True, low=1),
    "candidate_index": _number(integer=True, low=0),
    "gloss": _string,
    "aggregate_score": _number(),
    "per_sign": _array(
        _object(_SIGN, optional=frozenset({"in_vocabulary", "peak_frame", "fingerspelled_region"}))
    ),
    "errors": _array(_string),
}

_CONFIG = {
    "k": _number(integer=True, low=1),
    "fs_threshold": _number(low=0, high=1, exclusive=True),
    "min_sign_duration": _number(integer=True, low=1),
    "llm_mode": _string,
}

_DOCUMENT = _object({
    "schema_version": _one_of(SCHEMA_VERSION),
    "video_id": _string,
    "english": _string,
    "fps": _number(low=0, exclusive=True),
    "config": _object(_CONFIG),
    "model_fingerprints": _object({}, other=_string),
    "candidates": _array(_object(_CANDIDATE)),
    "errors": _array(_string),
})


def validate_document(data) -> None:
    """Raise :class:`DocumentError`, naming the failing value's path and the rule
    it broke, unless ``data`` is a valid ``schema/annotation_v2.json`` document."""
    _DOCUMENT(data)
