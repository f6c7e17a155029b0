"""End-to-end pipeline: candidate scoring, ranking, document serialization."""

import copy
import dataclasses
import enum
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import fingerspelling as fs_mod
from signscribe import isr as isr_mod
from signscribe import nn
from signscribe import pipeline as pipeline_mod
from signscribe import synthetic as syn
from signscribe.ctc import FrameScores, toy_alphabet
from signscribe.fingerspelling import FingerspellingModel
from signscribe.gloss import GlossSequence, parse_gloss_sequence, render
from signscribe.isr import IsrModel, SignVocabulary
from signscribe.llm import LlmError, StubClient
from signscribe.pipeline import (
    DocumentError,
    Models,
    PipelineConfig,
    annotate,
    document_bytes,
    validate_document,
)

WORKED_LINE = "fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG"
WORKED_ENGLISH = "Bob travels to Frick Park with his dog."


def stub_with_worked_example():
    """Stub fixture: candidate 3 is the glossing the video is composed from.

    The other candidates are same-length translation variants (wrong
    glosses, wrong order, respelled words), the shape LLM candidates take.
    """
    candidates = {
        "1": "BOB TRAVEL TO FRICK PARK WITH DOG",
        "2": "fs-BOB GO TO fs-FRICK PARK WITH DOG",
        "3": WORKED_LINE,
        "4": "DOG WITH PARK fs-BOB TRAVEL TO fs-FRICK",
        "5": "fs-BOB TRAVEL TO fs-FRICK PARK WITH CAT",
        "6": "fs-BOB WALK TO fs-FRICK PARK WITH DOG",
        "7": "fs-BOB TRAVEL TO fs-FRICK HOUSE WITH DOG",
        "8": "fs-BOB TRAVEL TO fs-KRICK PARK WITH DOG",
        "9": "CAT TRAVEL TO fs-FRICK PARK WITH DOG",
        "10": "PARK WITH DOG fs-BOB TRAVEL TO fs-FRICK",
    }
    return StubClient(translations={WORKED_ENGLISH: candidates})


class FailingClient:
    model_id = "broken"

    def complete(self, prompt, temperature=1.0, max_tokens=1024):
        raise LlmError("boom")


def score_line(line, poses, models):
    """``line`` scored alone: ``annotate`` with a one-line stub table."""
    client = StubClient(translations={"Alone.": {"1": line}})
    (candidate,) = annotate("Alone.", poses, models, PipelineConfig(), client)["candidates"]
    return candidate


@pytest.fixture(scope="module")
def worked_video(world):
    seq = parse_gloss_sequence(WORKED_LINE)
    poses, spans = syn.compose_sentence_video(world, seq, seed=5, video_id="worked")
    return poses, spans


class TestScoreManualAnnotation:
    """A known gloss line scored alone, through ``annotate``."""

    def test_worked_example_anchors_and_intervals(self, worked_video, models):
        poses, _ = worked_video
        seq = parse_gloss_sequence(WORKED_LINE)
        result = score_line(WORKED_LINE, poses, models)
        assert len(result["per_sign"]) == len(seq.tokens)
        by_token = {s["token"]: s for s in result["per_sign"]}
        assert by_token["BOB"]["anchored"] and by_token["FRICK"]["anchored"]
        # the two anchors bound the gloss intervals
        bob, frick = by_token["BOB"], by_token["FRICK"]
        assert bob["fingerspelled_region"] == bob["interval"]
        assert by_token["TRAVEL"]["interval"][0] > bob["interval"][1]
        assert by_token["TO"]["interval"][1] < frick["interval"][0]
        for gloss in ("PARK", "WITH", "DOG"):
            assert by_token[gloss]["interval"][0] > frick["interval"][1]
            assert by_token[gloss]["in_vocabulary"]

    def test_separator_in_a_fingerspelled_token_shifts_no_later_word(self, world, models):
        """``fs-A|B`` spells AB, so CAT keeps the entry it gets after ``fs-AB``."""
        plain = parse_gloss_sequence("fs-AB fs-CAT")
        poses, _ = syn.compose_sentence_video(world, plain, seed=5, video_id="pipe")
        want = score_line("fs-AB fs-CAT", poses, models)["per_sign"][1]
        assert want["token"] == "CAT"
        for line in ("fs-A|B fs-CAT", "fs-A||B fs-CAT"):
            assert score_line(line, poses, models)["per_sign"][1] == want

    def test_no_fingerspelling_gives_whole_clip_interval(self, world, models):
        seq = parse_gloss_sequence("TRAVEL PARK DOG")
        poses, _ = syn.compose_sentence_video(world, seq, seed=11, video_id="nofs")
        result = score_line("TRAVEL PARK DOG", poses, models)
        assert all(not s["anchored"] for s in result["per_sign"])
        assert all(s["kind"] == "gloss" for s in result["per_sign"])

    def test_true_sequence_beats_perturbations(self, world, models, rng):
        seq = parse_gloss_sequence("fs-CAT TRAVEL HOUSE")
        poses, _ = syn.compose_sentence_video(world, seq, seed=21, video_id="ranked")
        true_score = score_line(render(seq), poses, models)["aggregate_score"]
        for _ in range(3):
            other = syn.perturb_sequence(seq, world, rng)
            other_score = score_line(render(other), poses, models)["aggregate_score"]
            assert true_score > other_score


class TestOutOfVocabularyScore:
    """Hand-made ISR scores: the OOV rule is checked without trained models.

    Three sign spans over 60 frames; NULL fires outside them and ANY inside
    all of them, as the recognizer is trained to do.
    """

    SPANS = ((5, 14), (25, 34), (45, 54))
    VOCAB = SignVocabulary(glosses=("CAT", "TRAVEL", "DOG"))

    def _models(self):
        rng = np.random.default_rng(0)
        alphabet = toy_alphabet()

        def tcn(classes):  # never run: scores are passed in
            return nn.Tcn.init(nn.TcnConfig(input_dim=1, output_classes=classes, channels=3), rng)

        return Models(
            fingerspelling=FingerspellingModel(tcn=tcn(alphabet.size), alphabet=alphabet),
            isr=IsrModel(
                vocabulary=self.VOCAB, two_hand=tcn(self.VOCAB.size), one_hand=tcn(self.VOCAB.size)
            ),
        )

    def _score(self, line, class_per_span):
        """Score ``line``; span i lights class ``class_per_span[i]``, or no class for None."""
        probs = np.full((60, self.VOCAB.size), 0.02)
        probs[:, self.VOCAB.null_index] = 0.95
        for (s, e), cls in zip(self.SPANS, class_per_span):
            probs[s : e + 1, self.VOCAB.null_index] = 0.03
            probs[s : e + 1, self.VOCAB.any_index] = 0.99
            if cls is not None:
                probs[s : e + 1, self.VOCAB.class_index(cls)] = 0.85
        alphabet = toy_alphabet()
        fs = np.full((60, alphabet.size), 1.0 / alphabet.size)
        (result,), errors = pipeline_mod._score_candidates(
            [parse_gloss_sequence(line)],
            FrameScores(probs=fs, kind="softmax"),
            FrameScores(probs=probs, kind="sigmoid"),
            self._models(),
            PipelineConfig(),
        )
        assert errors == []
        return result

    def test_known_sign_beats_oov_substitute(self):
        signed = ("CAT", "TRAVEL", "DOG")
        true = self._score("CAT TRAVEL DOG", signed)
        swapped = self._score("CAT GO DOG", signed)
        assert not swapped["per_sign"][1]["in_vocabulary"]
        assert true["aggregate_score"] > swapped["aggregate_score"]

    @pytest.mark.parametrize("token", ["GO", "CL:1(point)"])
    def test_unknown_sign_keeps_oov_score(self, token):
        result = self._score(f"CAT {token} DOG", ("CAT", None, "DOG"))
        unknown = result["per_sign"][1]
        assert not unknown["in_vocabulary"]
        assert unknown["interval"][0] >= 24 and unknown["interval"][1] <= 35
        assert unknown["score"] > 0.5


class TestObjectiveRanking:
    """Candidates rank by the per-frame objective, so frames a line leaves
    uncovered count against it on NULL."""

    def test_omissions_rank_below_the_true_line(self, world, models):
        """Criterion 7's set-up: 1 fingerspelled word and 3 glosses, and every
        one-token deletion of the line as the other candidates."""
        rng = np.random.default_rng(1234)
        wins = 0
        for trial in range(30):
            glosses = list(rng.choice(world.vocabulary.glosses, size=3, replace=False))
            seq = parse_gloss_sequence(" ".join([f"fs-{syn._random_word(rng, world.alphabet)}"] + glosses))
            video, _ = syn.compose_sentence_video(world, seq, seed=trial, video_id=f"omit{trial}")
            lines = [render(seq)] + [
                render(GlossSequence(tokens=seq.tokens[:i] + seq.tokens[i + 1 :]))
                for i in range(len(seq.tokens))
            ]
            client = StubClient(translations={"Omit.": {str(i + 1): c for i, c in enumerate(lines)}})
            doc = annotate("Omit.", video, models, PipelineConfig(k=len(lines)), client)
            true = next(c["aggregate_score"] for c in doc["candidates"] if c["candidate_index"] == 0)
            wins += all(c["aggregate_score"] < true for c in doc["candidates"] if c["candidate_index"])
        assert wins >= 28, f"the true line won only {wins}/30"

    def test_worked_example_ranks_composed_line_above_its_omission(self, worked_video, models):
        poses, _ = worked_video
        lines = ["fs-BOB TRAVEL fs-FRICK PARK", WORKED_LINE]
        client = StubClient(translations={WORKED_ENGLISH: {"1": lines[0], "2": lines[1]}})
        doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(k=2), client)
        assert [c["gloss"] for c in doc["candidates"]] == lines[::-1]
        assert doc["candidates"][0]["aggregate_score"] > doc["candidates"][1]["aggregate_score"]

    def test_infeasible_line_scores_zero(self):
        """61 tokens cannot fit 60 frames: the objective is -inf."""
        result = TestOutOfVocabularyScore()._score(" ".join(["CAT"] * 61), ("CAT", None, "DOG"))
        assert result["aggregate_score"] == 0.0
        assert result["errors"] == ["interval [0, 59] has 60 frames for 61 glosses"]


class TestAnnotate:
    def test_document_structure_and_ranking(self, worked_video, models):
        poses, _ = worked_video
        config = PipelineConfig(k=10)
        doc = annotate(WORKED_ENGLISH, poses, models, config, stub_with_worked_example())
        assert len(doc["candidates"]) == 10
        assert [c["rank"] for c in doc["candidates"]] == list(range(1, 11))
        assert doc["candidates"][0]["gloss"] == WORKED_LINE
        for candidate in doc["candidates"]:
            assert len(candidate["per_sign"]) == len(parse_gloss_sequence(candidate["gloss"]).tokens)

    def test_k_one(self, worked_video, models):
        poses, _ = worked_video
        doc = annotate("Dog drinks water", poses, models, PipelineConfig(k=1), StubClient())
        assert len(doc["candidates"]) == 1
        assert doc["candidates"][0]["rank"] == 1
        assert doc["model_fingerprints"] == models.fingerprints()
        assert len(doc["model_fingerprints"]["isr_one_hand_weights"]) == 64

    def test_empty_candidates_reported_and_others_ranked(self, worked_video, models):
        poses, _ = worked_video
        lines = ["fs-BOB TRAVEL TO fs-FRICK", "", "PARK WITH DOG", "   ", "DOG"]
        client = StubClient(
            translations={WORKED_ENGLISH: {str(i + 1): line for i, line in enumerate(lines)}}
        )
        doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(k=len(lines)), client)
        assert doc["errors"] == ["candidate 1 is empty", "candidate 3 is empty"]
        assert [c["rank"] for c in doc["candidates"]] == [1, 2, 3]
        assert sorted(c["candidate_index"] for c in doc["candidates"]) == [0, 2, 4]

    def test_llm_failure_produces_error_document(self, worked_video, models):
        poses, _ = worked_video
        doc = annotate("anything", poses, models, PipelineConfig(), FailingClient())
        assert doc["candidates"] == []
        assert doc["errors"] and "translation failed" in doc["errors"][0]

    def test_deterministic_bytes(self, worked_video, models):
        poses, _ = worked_video
        client = stub_with_worked_example()
        config = PipelineConfig()
        a = document_bytes(annotate(WORKED_ENGLISH, poses, models, config, client))
        b = document_bytes(annotate(WORKED_ENGLISH, poses, models, config, client))
        assert a == b

    def test_every_span_inside_video(self, worked_video, models):
        poses, _ = worked_video
        doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(), stub_with_worked_example())
        T = len(poses)
        for candidate in doc["candidates"]:
            for sign in candidate["per_sign"]:
                assert 0 <= sign["interval"][0] <= sign["interval"][1] < T

    def test_annotate_records_no_autograd_graph(self, worked_video, models, monkeypatch):
        poses, _ = worked_video
        outputs = []
        real = nn.Tcn.forward

        def spy(self, *args, **kwargs):
            outputs.append(real(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(nn.Tcn, "forward", spy)
        annotate(WORKED_ENGLISH, poses, models, PipelineConfig(), stub_with_worked_example())
        assert len(outputs) == 3
        for logits in outputs:
            assert logits._backward is None

    def test_shared_word_list_aligned_once(self, worked_video, models, monkeypatch):
        """Candidates that spell the same words share one forced alignment."""
        poses, _ = worked_video
        lines = [
            WORKED_LINE,
            "fs-BOB GO TO fs-FRICK PARK WITH DOG",
            "fs-BOB TRAVEL TO fs-FRICK PARK WITH CAT",
            "DOG WITH PARK fs-bob TRAVEL TO fs-FRICK",
        ]
        client = StubClient(
            translations={WORKED_ENGLISH: {str(i + 1): line for i, line in enumerate(lines)}}
        )
        calls = []
        real = fs_mod.forced_align

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fs_mod, "forced_align", spy)
        doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(k=len(lines)), client)
        assert len(calls) == 1
        assert len(doc["candidates"]) == len(lines)
        for candidate in doc["candidates"]:
            alone = score_line(candidate["gloss"], poses, models)
            assert candidate["per_sign"] == alone["per_sign"]

    def test_shared_intervals_reused_as_aligned_alone(self, world, models, monkeypatch):
        """A long clip and nine perturbed candidates, two fingerspelled words
        near the thirds: candidates share inter-anchor intervals, and each
        still gets exactly the signs its line gets scored alone."""
        rng = np.random.default_rng(1414)
        vocab = world.vocabulary.glosses
        tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=30)]
        tokens[20:20] = ["fs-DEAN"]
        tokens[10:10] = ["fs-KIM"]
        seq = parse_gloss_sequence(" ".join(tokens))
        poses, _ = syn.compose_sentence_video(world, seq, seed=1415, video_id="long")
        lines = [render(seq)] + [render(syn.perturb_sequence(seq, world, rng)) for _ in range(9)]
        client = StubClient(translations={"Long.": {str(i + 1): c for i, c in enumerate(lines)}})
        dps = []
        real = isr_mod._segment_dp
        monkeypatch.setattr(isr_mod, "_segment_dp", lambda *args: dps.append(1) or real(*args))
        doc = annotate("Long.", poses, models, PipelineConfig(k=len(lines)), client)
        shared = len(dps)
        assert len(doc["candidates"]) == len(lines)
        for candidate in doc["candidates"]:
            alone = score_line(candidate["gloss"], poses, models)
            assert candidate["per_sign"] == alone["per_sign"]
        assert sum(s["anchored"] for s in doc["candidates"][0]["per_sign"]) == 2
        assert shared < len(dps) - shared  # fewer DPs than the lines alone ran

    def test_memo_never_crosses_videos(self, world, models):
        """Two clips of one length, the second the first's frames reversed,
        and candidates with no fingerspelling: every candidate's interval
        and tracks are the same in both, so only a memo per video gives each
        clip its own placements."""
        seq = parse_gloss_sequence("TRAVEL PARK DOG HOUSE")
        first, _ = syn.compose_sentence_video(world, seq, seed=31, video_id="first")
        fields = ("hand_left", "hand_right", "left_present", "right_present", "body", "body_present")
        second = dataclasses.replace(
            first, video_id="second", **{name: getattr(first, name)[::-1] for name in fields}
        )
        lines = ["TRAVEL PARK DOG HOUSE", "HOUSE DOG PARK TRAVEL", "PARK TRAVEL HOUSE DOG"]
        client = StubClient(translations={"Two.": {str(i + 1): c for i, c in enumerate(lines)}})
        config = PipelineConfig(k=len(lines))
        alone = document_bytes(annotate("Two.", second, models, config, client))
        docs = [annotate("Two.", poses, models, config, client) for poses in (first, second)]
        assert document_bytes(docs[1]) == alone
        for doc, poses in zip(docs, (first, second)):
            for candidate in doc["candidates"]:
                scored = score_line(candidate["gloss"], poses, models)
                assert candidate["per_sign"] == scored["per_sign"]
        intervals = [[s["interval"] for c in doc["candidates"] for s in c["per_sign"]] for doc in docs]
        assert intervals[0] != intervals[1]


class TestDocumentSerialization:
    def _doc(self, worked_video, models):
        poses, _ = worked_video
        return annotate(
            WORKED_ENGLISH, poses, models, PipelineConfig(), stub_with_worked_example()
        )

    def test_document_is_the_json_it_writes(self, worked_video, models):
        """The worked example, a table with an empty and an infeasible line,
        and a failed translation: each document holds only what ``json.loads``
        gives back, with no tuple or numpy scalar left for the writer."""
        poses, _ = worked_video
        infeasible = " ".join(["DOG"] * (len(poses) + 1))
        gaps = StubClient(translations={WORKED_ENGLISH: {"1": WORKED_LINE, "2": "", "3": infeasible}})
        docs = [
            annotate(WORKED_ENGLISH, poses, models, PipelineConfig(), client)
            for client in (stub_with_worked_example(), gaps, FailingClient())
        ]
        assert docs[1]["errors"] == ["candidate 1 is empty"]
        assert docs[1]["candidates"][-1]["aggregate_score"] == 0.0
        assert docs[2]["errors"][0].startswith("translation failed")
        for doc in docs:
            assert json.loads(document_bytes(doc)) == doc

    def test_schema_valid(self, worked_video, models):
        data = self._doc(worked_video, models)
        validate_document(data)

    def test_schema_rejects_corruption(self, worked_video, models):
        data = self._doc(worked_video, models)
        data["candidates"][0]["per_sign"][0]["kind"] = "telepathy"
        with pytest.raises(DocumentError):
            validate_document(data)

    @pytest.mark.parametrize("path, value, message", [
        pytest.param(("fps",), None, "$: lacks required property 'fps'", id="missing"),
        pytest.param(("config", "extra"), 1, "$.config.extra: is not allowed", id="extra"),
        pytest.param(("model_fingerprints", "a b"), 1,
                     '$.model_fingerprints["a b"]: is not of type \'string\'', id="quoted-key"),
        pytest.param(("candidates", 0, "rank"), 1.5,
                     "$.candidates[0].rank: is not of type 'integer'", id="type"),
        pytest.param(("candidates", 0, "per_sign", 1, "score"), 1.5,
                     "$.candidates[0].per_sign[1].score: must be <= 1", id="range"),
        pytest.param(("candidates", 0, "per_sign", 0, "kind"), "telepathy",
                     "$.candidates[0].per_sign[0].kind: is not one of ['fingerspelled', 'gloss']",
                     id="enum"),
        pytest.param(("candidates", 0, "per_sign", 0, "interval"), [0],
                     "$.candidates[0].per_sign[0].interval: must have 2 to 2 items, not 1", id="length"),
        pytest.param(("schema_version",), "v1", "$.schema_version: is not 'v2'", id="const"),
    ])
    def test_error_names_path_and_rule(self, worked_video, models, path, value, message):
        """``value`` None deletes the key."""
        data = self._doc(worked_video, models)
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(DocumentError) as exc_info:
            validate_document(data)
        assert str(exc_info.value) == message
        assert message.endswith(": " + exc_info.value.rule)

    def test_validator_shared_across_threads(self, worked_video, models):
        good = self._doc(worked_video, models)
        bad = json.loads(json.dumps(good))
        bad["candidates"][0]["rank"] = "first"
        with pytest.raises(DocumentError) as reference:
            validate_document(bad)

        def check(i):
            try:
                validate_document(bad if i % 2 else good)
            except DocumentError as exc:
                return str(exc)
            return None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(check, range(40), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [str(reference.value) if i % 2 else None for i in range(40)]

    def test_scores_have_six_decimals(self, worked_video, models):
        data = self._doc(worked_video, models)
        for candidate in data["candidates"]:
            assert candidate["aggregate_score"] == round(candidate["aggregate_score"], 6)
            for sign in candidate["per_sign"]:
                assert sign["score"] == round(sign["score"], 6)


def _nodes(node, path=()):
    """(path, value) of every node in a JSON value; a path holds keys and indices."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


# Values a broken writer might put anywhere: wrong types, bool/int/float
# look-alikes, non-finite numbers, unknown enum members, short and long intervals.
_ODD_VALUES = [
    True, False, 0, 1, 1.0, -1, 2, 0.5, 1e300, 10**30, math.nan, math.inf, -math.inf,
    "", "1", "telepathy", "sum", "fingerspelled", None, [], {}, [0], [0, 1, 2], [0, 1.0],
]

# Which nodes each mutation applies to, by (path, value).
_MUTABLE = {
    "delete": lambda path, value: bool(path),
    "add": lambda path, value: isinstance(value, (dict, list)),
    "replace": lambda path, value: True,
    "retype": lambda path, value: isinstance(value, (int, float)),
    "range": lambda path, value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "member": lambda path, value: path[-1:] in [("kind",), ("schema_version",)],
}


@st.composite
def _mutated(draw, base):
    """``base`` with one to three mutations: a key or item deleted or added, a value
    replaced, its type swapped (bool/int/float/str), a number pushed out of range,
    or an enum member replaced by an unknown one."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        op = draw(st.sampled_from([op for op, ok in sorted(_MUTABLE.items()) if any(ok(*n) for n in nodes)]))
        path, value = draw(st.sampled_from([n for n in nodes if _MUTABLE[op](*n)]))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        odd = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if op == "delete":
            del parent[path[-1]]
            continue
        if op == "add":
            if isinstance(value, dict):
                value[draw(st.sampled_from(["extra", "kind", "rank", "interval", "k"]))] = odd
            else:
                value.append(odd)
            continue
        if op == "retype" and isinstance(value, bool):
            new = int(value)
        elif op == "retype" and isinstance(value, int):
            new = draw(st.sampled_from([float(value), value + 0.5, str(value), bool(value)]))
        elif op == "retype":
            new = str(value)
        elif op == "range":
            new = draw(st.sampled_from([-1 - value, value + 2, -value, value * 1e6]))
        elif op == "member":
            new = draw(st.sampled_from(["telepathy", "Gloss", "v1", ""]))
        else:
            new = odd
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


def _load_schema() -> dict:
    """The shipped schema, the published contract the check is held to."""
    text = resources.files("signscribe").joinpath("schema", "annotation_v2.json").read_text("utf-8")
    return json.loads(text)


_REFERENCE = jsonschema.Draft7Validator(_load_schema())


def _accepted(doc) -> bool:
    try:
        validate_document(doc)
    except DocumentError:
        return False
    return True


def _bound_values(schema) -> list:
    """Values just inside and just outside each bound the schema sets: the
    bound as an int and a float, its integer neighbours and its nearest floats."""
    bounds = set()

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
                    bounds.add(value)
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(schema)
    return [
        value
        for b in sorted(bounds)
        for value in (b - 1, b, b + 1, float(b), math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
    ]


def _one_step_mutations(doc, values):
    """Mutate ``doc`` in place, one step at a time, yielding a description of
    each step and undoing it before the next: every key deleted, an unknown
    key added to every object, and every leaf replaced by each of ``values``."""
    for path, node in list(_nodes(doc)):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(node, dict):
            node["unknown"] = 0
            yield f"add 'unknown' at {path}"
            del node["unknown"]
        elif not isinstance(node, list):
            for value in values:
                parent[path[-1]] = value
                yield f"{value!r} at {path}"
            parent[path[-1]] = node
        if path and isinstance(path[-1], str):
            saved = dict(parent)  # to restore the key order too
            del parent[path[-1]]
            yield f"delete {path}"
            parent.clear()
            parent.update(saved)


_FIXTURE_DOCUMENT = json.loads(Path("tests/data/doc_fixture.json").read_text(encoding="utf-8"))
_WORDS = st.text(alphabet="ABCXYZ", min_size=1, max_size=6)


@st.composite
def _signs(draw):
    lo = draw(st.integers(0, 10**6))
    hi = lo + draw(st.integers(0, 500))
    sign = {
        "kind": draw(st.sampled_from(["gloss", "fingerspelled"])),
        "token": draw(st.text(max_size=8)),
        "notation": draw(st.text(max_size=8)),
        "score": draw(st.floats(0, 1)),
        "interval": [lo, hi],
        "anchored": draw(st.booleans()),
    }
    if sign["kind"] == "gloss":
        sign["in_vocabulary"] = draw(st.booleans())
        sign["peak_frame"] = draw(st.integers(lo, hi))
    else:
        sign["fingerspelled_region"] = [lo, hi]
    return sign


_DOCUMENTS = st.fixed_dictionaries({
    "schema_version": st.just("v2"),
    "video_id": st.text(max_size=12),
    "english": st.text(max_size=40),
    "fps": st.floats(0, 1e4, exclude_min=True),
    "config": st.fixed_dictionaries({
        "k": st.integers(1, 50),
        "fs_threshold": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "min_sign_duration": st.integers(1, 30),
        "llm_mode": st.text(max_size=8),
    }),
    "model_fingerprints": st.dictionaries(st.text(max_size=10), st.text(max_size=16), max_size=4),
    "candidates": st.lists(
        st.fixed_dictionaries({
            "rank": st.integers(1, 20),
            "candidate_index": st.integers(0, 20),
            "gloss": st.lists(_WORDS, max_size=5).map(" ".join),
            "aggregate_score": st.floats(-1e6, 1e6),
            "per_sign": st.lists(_signs(), max_size=6),
            "errors": st.lists(st.text(max_size=10), max_size=2),
        }),
        max_size=4,
    ),
    "errors": st.lists(st.text(max_size=10), max_size=2),
})


@pytest.fixture(scope="module")
def worked_document(worked_video, models):
    poses, _ = worked_video
    doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(), stub_with_worked_example())
    return json.loads(document_bytes(doc))


class TestCompiledCheck:
    """The one document check: its verdict is jsonschema's (Draft 7) in both
    directions, and every document the writer produces passes it."""

    def test_shipped_schema_is_a_valid_draft7_schema(self):
        schema = _load_schema()
        jsonschema.Draft7Validator.check_schema(schema)
        assert jsonschema.validators.validator_for(schema) is jsonschema.Draft7Validator

    def test_written_documents_are_valid(self, worked_document):
        for doc in (worked_document, _FIXTURE_DOCUMENT):
            validate_document(doc)
            assert _REFERENCE.is_valid(doc)

    def test_demo_document_takes_the_compiled_path(self, worked_video, models):
        """The recipe of demos/05_annotation_pipeline.py: k=5, two candidates signs short."""
        poses, _ = worked_video
        stub = StubClient(translations={WORKED_ENGLISH: {
            "1": "BOB TRAVEL TO FRICK PARK WITH DOG",
            "2": "fs-BOB GO fs-FRICK PARK WITH DOG",
            "3": WORKED_LINE,
            "4": "DOG WITH fs-BOB TRAVEL fs-FRICK PARK",
            "5": "fs-BOB TRAVEL fs-FRICK PARK",
        }})
        doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(k=5), stub)
        validate_document(json.loads(document_bytes(doc)))

    @settings(max_examples=150, deadline=None)
    @given(_DOCUMENTS)
    def test_built_documents_take_the_compiled_path(self, doc):
        data = json.loads(document_bytes(doc))
        validate_document(data)
        assert _REFERENCE.is_valid(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sound_against_jsonschema(self, worked_document, data):
        """Sound and complete: the check rejects exactly what jsonschema rejects."""
        base = data.draw(st.sampled_from([worked_document, _FIXTURE_DOCUMENT]))
        doc = data.draw(_mutated(base))
        assert _accepted(doc) == _REFERENCE.is_valid(doc)

    # Edge values of draft-07's type and bound rules, and whether the schema admits each.
    @pytest.mark.parametrize("path, value, accepted", [
        (("fps",), 30, True),  # an int is a number
        (("candidates", 0, "per_sign", 0, "score"), 1, True),
        (("config", "k"), 2.0, True),  # an integral float is an integer
        (("candidates", 0, "aggregate_score"), math.nan, True),  # NaN and inf are numbers
        (("candidates", 0, "aggregate_score"), math.inf, True),
        (("config", "k"), 1.5, False),
        (("fps",), True, False),  # a bool is not a number
        (("fps",), math.nan, True),  # NaN fails no bound
        (("candidates", 0, "per_sign", 0, "score"), math.inf, False),  # inf exceeds the maximum
        (("config", "k"), math.inf, False),  # inf is no integer
        (("candidates", 0, "rank"), True, False),
    ])
    def test_verdict_is_jsonschemas_where_the_check_is_stricter(self, path, value, accepted):
        doc = copy.deepcopy(_FIXTURE_DOCUMENT)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        assert _accepted(doc) == accepted == _REFERENCE.is_valid(doc)

    @pytest.mark.parametrize("name", ["worked", "fixture"])
    def test_one_step_mutations_agree_with_jsonschema(self, worked_document, name):
        """The check is written apart from the schema file; a rule that drifts
        from the shipped schema shows up as a one-step mutation they disagree on.

        The worked document keeps only its top-ranked candidate, which holds
        signs of both kinds, so that jsonschema's runs stay short."""
        base = _FIXTURE_DOCUMENT
        if name == "worked":
            base = dict(worked_document, candidates=worked_document["candidates"][:1])
            assert {sign["kind"] for sign in base["candidates"][0]["per_sign"]} == {"gloss", "fingerspelled"}
        doc = copy.deepcopy(base)
        values = _ODD_VALUES + _bound_values(_load_schema())
        disagree = [step for step in _one_step_mutations(doc, values) if _accepted(doc) != _REFERENCE.is_valid(doc)]
        assert disagree == []
        assert doc == base


class TestProvenance:
    """``model_fingerprints`` identifies the trained weights, not just the architecture."""

    VOCAB = SignVocabulary(glosses=("CAT", "DOG"))

    def _models(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = toy_alphabet()

        def tcn(classes):
            return nn.Tcn.init(nn.TcnConfig(input_dim=2, output_classes=classes, channels=3), rng)

        return Models(
            fingerspelling=FingerspellingModel(tcn=tcn(alphabet.size), alphabet=alphabet),
            isr=IsrModel(
                vocabulary=self.VOCAB, two_hand=tcn(self.VOCAB.size), one_hand=tcn(self.VOCAB.size)
            ),
        )

    def test_two_seeds_differ_in_weights_only(self):
        a, b = self._models(1).fingerprints(), self._models(2).fingerprints()
        nets = ("fingerspelling", "isr_two_hand", "isr_one_hand")
        assert set(a) == set(nets) | {f"{n}_weights" for n in nets}
        for n in nets:
            assert a[n] == b[n]
            assert a[f"{n}_weights"] != b[f"{n}_weights"]

    def test_save_load_save_keeps_digests(self, tmp_path):
        def save(models, root):
            fs_mod.save_fingerspelling_model(root / "fingerspelling", models.fingerspelling)
            isr_mod.save_isr_model(root / "isr", models.isr)

        def load(root):
            return Models(
                fingerspelling=fs_mod.load_fingerspelling_model(root / "fingerspelling"),
                isr=isr_mod.load_isr_model(root / "isr"),
            )

        models = self._models(3)
        save(models, tmp_path / "one")
        loaded = load(tmp_path / "one")
        save(loaded, tmp_path / "two")
        prints = models.fingerprints()
        assert loaded.fingerprints() == prints
        assert load(tmp_path / "two").fingerprints() == prints
        for name, directory in (
            ("fingerspelling", "fingerspelling"),
            ("isr_two_hand", "isr/two_hand"),
            ("isr_one_hand", "isr/one_hand"),
        ):
            first = (tmp_path / "one" / directory / "weights.bin").read_bytes()
            assert (tmp_path / "two" / directory / "weights.bin").read_bytes() == first
            assert hashlib.sha256(first).hexdigest() == prints[f"{name}_weights"]
            manifest = (tmp_path / "one" / directory / "manifest.json").read_bytes()
            assert (tmp_path / "two" / directory / "manifest.json").read_bytes() == manifest


# --- canonical writer ----------------------------------------------------------
# document_bytes writes with pipeline._emit; the json module's indenting
# encoder, which it used before, is the reference. tests/conftest.py also
# checks every document the tests serialise against it.


def reference_document_bytes(doc):
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def golden_documents():
    """Hand-written documents that cover what the canonical writer must get right.

    The golden files under tests/data hold their bytes as the json module's
    indenting encoder wrote them.
    """
    like = {
        "kind": "gloss",
        "token": "LIKE",
        "notation": "LIKE",
        "score": 5e-06,
        "interval": [18, 25],
        "anchored": False,
        "in_vocabulary": True,
        "peak_frame": 21,
    }
    signs = [
        {
            "kind": "fingerspelled",
            "token": "BOB",
            "notation": "fs-BOB",
            "score": 0.873123,
            "interval": [3, 17],
            "anchored": True,
            "fingerspelled_region": [4, 16],
        },
        like,
        {
            "kind": "gloss",
            "token": "ZEBRA",
            "notation": "ZEBRA",
            "score": 1e-05,
            "interval": [26, 30],
            "anchored": False,
            "in_vocabulary": False,
            "peak_frame": 26,
        },
        {
            "kind": "gloss",
            "token": "CL:3(car drives up)",
            "notation": "CL:3(car drives up)",
            "score": 0.0,
            "interval": [31, 31],
            "anchored": False,
            "in_vocabulary": False,
            "peak_frame": 31,
        },
        {
            "kind": "fingerspelled",
            "token": "OK",
            "notation": "#OK",
            "score": 1.0,
            "interval": [32, 40],
            "anchored": True,
            "fingerspelled_region": [32, 40],
        },
    ]
    prints = {"isr_two_hand": "b" * 64, "fingerspelling": "a" * 64, "fingerspelling_weights": "0" * 64}
    english = 'Zoë said "hi"\\ to Bob\tand 👋 — ünïcödé, a \x01 control and a \u2028 separator'
    document = {
        "schema_version": "v2",
        "video_id": "golden-01",
        "english": english,
        "fps": 29.97,
        "config": {"k": 3, "fs_threshold": 0.25, "min_sign_duration": 2, "llm_mode": "stub"},
        "model_fingerprints": prints,
        "candidates": [
            {
                "rank": 1,
                "candidate_index": 2,
                "gloss": "fs-BOB LIKE ZEBRA CL:3(car drives up) #OK",
                "aggregate_score": 1.873138,
                "per_sign": signs,
                "errors": ["token 'ZEBRA' is out of vocabulary", "interval [31, 31] has 1 frames for 2 glosses"],
            },
            {
                "rank": 2,
                "candidate_index": 0,
                "gloss": "LIKE",
                "aggregate_score": 1e-05,
                "per_sign": [like],
                "errors": [],
            },
        ],
        "errors": [],
    }
    failed = {
        "schema_version": "v2",
        "video_id": "golden-02",
        "english": "",
        "fps": 25.0,
        "config": {"k": 10, "fs_threshold": 0.3, "min_sign_duration": 3, "llm_mode": "stub"},
        "model_fingerprints": prints,
        "candidates": [],
        "errors": ["translation failed: no candidate parsed as a gloss line"],
    }
    return {"document_golden.json": document, "document_golden_failed.json": failed}


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=40,
)


class _StrMember(str, enum.Enum):
    """A str-valued enum member: json writes its value, and so must the emitter."""

    SUM = "sum"


class TestCanonicalWriter:
    @pytest.mark.parametrize("name", ["document_golden.json", "document_golden_failed.json"])
    def test_golden_bytes(self, name):
        doc = golden_documents()[name]
        golden = (Path("tests/data") / name).read_bytes()
        assert document_bytes(doc) == golden
        assert reference_document_bytes(doc) == golden
        validate_document(json.loads(golden))

    @settings(max_examples=400, deadline=None)
    @given(_JSON_TREES)
    def test_emitter_matches_json_dumps(self, tree):
        out = []
        pipeline_mod._emit(tree, "", out)
        assert "".join(out) == json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=False)

    @pytest.mark.parametrize("value, text", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"), (-0.0, "-0.0"),
        (np.float64(0.1), "0.1"), (_StrMember.SUM, '"sum"'), ((1, "a"), '[\n  1,\n  "a"\n]'),
    ])
    def test_emitter_writes_what_json_writes(self, value, text):
        out = []
        pipeline_mod._emit(value, "", out)
        assert "".join(out) == text == json.dumps(value, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("value", [{1: "int key"}, {"a": object()}, b"bytes"])
    def test_emitter_refuses_what_documents_never_hold(self, value):
        with pytest.raises(TypeError):
            pipeline_mod._emit(value, "", [])

    def test_every_serialised_document_is_checked(self):
        """The conftest wrapper is in place, so each document_bytes call in the
        suite compares the emitter's bytes with the reference's."""
        assert pipeline_mod.document_bytes.__wrapped__.__module__ == "signscribe.pipeline"
        assert document_bytes is pipeline_mod.document_bytes
