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
import operator
from dataclasses import dataclass
from importlib import resources
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

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "fs_threshold": self.fs_threshold,
            "min_sign_duration": self.min_sign_duration,
            "llm_mode": self.llm_mode,
        }


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
        "config": config.to_dict(),
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


def _load_schema() -> dict:
    text = resources.files("signscribe").joinpath("schema", "annotation_v2.json").read_text("utf-8")
    return json.loads(text)


# --- document validation --------------------------------------------------------
#
# ``_compile`` turns the draft-07 keywords the shipped schema uses into nested
# closures that raise DocumentError, with jsonschema's verdict on every value
# ``json.loads`` returns: an integral float is an ``integer``, a bool is never a
# number, and a bound fails where jsonschema's comparison does (NaN fails none).
# Each (sub)schema compiles to one node, which makes the type test itself.
# Any keyword or form outside this list is refused when the check is built.

_DRAFT_07 = "http://json-schema.org/draft-07/schema#"
_IGNORED = frozenset({"$schema", "title", "definitions"})
_OBJECT = frozenset({"required", "properties", "additionalProperties"})
_ARRAY = frozenset({"items", "minItems", "maxItems"})
_BOUNDS = {  # the comparison that fails a value, as jsonschema makes it, and the rule broken
    "minimum": (operator.lt, ">="),
    "maximum": (operator.gt, "<="),
    "exclusiveMinimum": (operator.le, ">"),
    "exclusiveMaximum": (operator.ge, "<"),
}
_MEMBERS = frozenset({"const", "enum"})
_NUMERIC = _BOUNDS.keys() | _MEMBERS
# The keywords each type takes; any other type, or none, takes only _MEMBERS.
_FAMILIES = dict(object=_OBJECT, array=_ARRAY, integer=_NUMERIC, number=_NUMERIC)

_TYPES: dict[str, Callable[[object], bool]] = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "string": lambda x: type(x) is str,
    "integer": lambda x: type(x) is int or type(x) is float and x.is_integer(),
    "number": lambda x: type(x) is int or type(x) is float,
    "boolean": lambda x: type(x) is bool,
}


class DocumentError(ValueError):
    """A document value that breaks the annotation schema: ``path`` holds the
    keys and indices from the root to it, ``rule`` the rule it broke."""

    def __init__(self, rule: str):
        super().__init__(rule)
        self.rule = rule
        self.path: tuple = ()  # filled in by the enclosing nodes as the error passes them

    def __str__(self) -> str:
        steps = (f".{s}" if str(s).isidentifier() else f"[{json.dumps(s)}]" for s in self.path)
        return "$" + "".join(steps) + ": " + self.rule


def _accept(x) -> None:
    pass


def _reject(x) -> None:
    raise DocumentError("is not allowed")


def _leaf_check(is_type: Callable, type_rule: str, tests: list) -> Callable:
    """A type test, then ``(fails, arg, rule)`` tests: ``fails(x, arg)`` breaks ``rule``."""

    def check_type(x) -> None:
        if not is_type(x):
            raise DocumentError(type_rule)

    def check(x) -> None:
        if not is_type(x):
            raise DocumentError(type_rule)
        for fails, arg, rule in tests:
            if fails(x, arg):
                raise DocumentError(rule)

    return check if tests else check_type  # most leaves are a bare type test


def _object_check(required: frozenset, properties: dict, additional: Callable) -> Callable:
    def check(x) -> None:
        if type(x) is not dict:
            raise DocumentError("is not of type 'object'")
        if not x.keys() >= required:
            raise DocumentError(f"lacks required property {min(required - x.keys())!r}")
        try:
            for key, value in x.items():
                properties.get(key, additional)(value)
        except DocumentError as exc:
            exc.path = (key, *exc.path)
            raise

    return check


def _array_check(items: Callable, min_items, max_items) -> Callable:
    def check(x) -> None:
        if type(x) is not list:
            raise DocumentError("is not of type 'array'")
        if not min_items <= len(x) <= max_items:
            raise DocumentError(f"must have {min_items} to {max_items} items, not {len(x)}")
        try:
            for i, item in enumerate(x):
                items(item)
        except DocumentError as exc:
            exc.path = (i, *exc.path)
            raise

    return check


def _compile(schema, definitions: dict) -> Callable[[object], None]:
    """The check of one (sub)schema; ``definitions`` maps each name under the
    root's ``definitions`` to its check, looked up when a ``$ref`` runs."""
    if type(schema) is bool:
        return _accept if schema else _reject
    if "$ref" in schema:
        ref = schema["$ref"]
        if len(schema) > 1:
            raise ValueError(f"$ref {ref!r} has sibling keywords")
        name = ref.removeprefix("#/definitions/")
        if name == ref or not name.isidentifier() or name not in definitions:
            raise ValueError(f"$ref {ref!r} is not a local #/definitions/ name")
        # A definition compiled already is bound directly; a later one is looked up per call.
        return definitions[name] or (lambda x: definitions[name](x))
    kind = schema.get("type")
    if "type" in schema and (not isinstance(kind, str) or kind not in _TYPES):
        raise ValueError(f"type {kind!r} has no compiled check")
    # Besides unknown keywords: jsonschema skips object, array and bound keywords on a value
    # of another type, so there they are no rule, and const/enum beside an object or array
    # type would need a second node.
    stray = schema.keys() - _IGNORED - {"type"} - _FAMILIES.get(kind, _MEMBERS)
    if stray:
        raise ValueError(f"keywords {sorted(stray)} have no compiled check for type {kind!r}")
    if schema.keys() & _OBJECT:
        return _object_check(
            frozenset(schema.get("required", ())),
            {k: _compile(v, definitions) for k, v in schema.get("properties", {}).items()},
            _compile(schema.get("additionalProperties", True), definitions),
        )
    if schema.keys() & _ARRAY:
        if isinstance(schema.get("items"), list):
            raise ValueError("array-form items has no compiled check")
        return _array_check(
            _compile(schema.get("items", True), definitions),
            schema.get("minItems", 0),
            schema.get("maxItems", math.inf),
        )
    tests = [(fails, schema[key], f"must be {op} {schema[key]!r}")
             for key, (fails, op) in _BOUNDS.items() if key in schema]
    for key in ("const", "enum"):
        if key in schema:
            members = [schema[key]] if key == "const" else schema[key]
            if not all(type(m) is str for m in members):
                raise ValueError(f"{key} {schema[key]!r} has a member that is not a string")
            rule = f"is not {members[0]!r}" if key == "const" else f"is not one of {members!r}"
            tests.append((lambda x, m: type(x) is not str or x not in m, frozenset(members), rule))
    return _leaf_check(_TYPES.get(kind, lambda x: True), f"is not of type {kind!r}", tests)


@functools.cache
def _document_check() -> Callable[[object], None]:
    schema = _load_schema()
    if schema.get("$schema") != _DRAFT_07:
        raise ValueError(f"$schema {schema.get('$schema')!r} is not {_DRAFT_07}")
    definitions = dict.fromkeys(schema.get("definitions", {}))
    for name, sub in schema.get("definitions", {}).items():
        definitions[name] = _compile(sub, definitions)
    return _compile(schema, definitions)


def validate_document(data) -> None:
    """Raise :class:`DocumentError`, naming the failing value's path and the rule
    it broke, unless ``data`` is a valid ``schema/annotation_v2.json`` document.

    The check is compiled once per process and holds no per-call state. Its
    verdict is jsonschema's (Draft 7) on every value ``json.loads`` returns.
    """
    _document_check()(data)
