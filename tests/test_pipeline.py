"""End-to-end pipeline: candidate scoring, ranking, document serialization."""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import numpy as np
import pytest

from signscribe import fingerspelling as fs_mod
from signscribe import isr as isr_mod
from signscribe import nn
from signscribe import pipeline as pipeline_mod
from signscribe import synthetic as syn
from signscribe.ctc import FrameScores, toy_alphabet
from signscribe.fingerspelling import FingerspellingModel
from signscribe.gloss import GlossSequence, GlossToken, TokenKind, parse_gloss_sequence, render
from signscribe.isr import IsrModel, SignVocabulary
from signscribe.llm import LlmError, StubClient
from signscribe.pipeline import (
    AnnotationDocument,
    Models,
    PipelineConfig,
    ScoreMode,
    annotate,
    document_bytes,
    document_from_json,
    document_to_json,
    score_candidate,
    score_manual_annotation,
    validate_document,
)
from signscribe.pose import PoseSequence

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


@pytest.fixture(scope="module")
def worked_video(world):
    seq = parse_gloss_sequence(WORKED_LINE)
    poses, spans = syn.compose_sentence_video(world, seq, seed=5, video_id="worked")
    return poses, spans


class TestScoreCandidate:
    def test_mean(self):
        assert score_candidate([1.0, 0.5, 0.0], ScoreMode.MEAN) == pytest.approx(0.5)

    def test_sum(self):
        assert score_candidate([1.0, 1.0, 1.0], ScoreMode.SUM) == pytest.approx(3.0)
        assert score_candidate([1.0, 1.0, 1.0], ScoreMode.MEAN) == pytest.approx(1.0)

    def test_single_sign_same_in_both_modes(self):
        assert score_candidate([0.7], ScoreMode.MEAN) == score_candidate([0.7], ScoreMode.SUM)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_candidate([], ScoreMode.MEAN)

    def test_ranking_invariant_under_positive_affine_transform(self):
        rng = np.random.default_rng(5)
        candidate_scores = [list(rng.random(4)) for _ in range(6)]
        base = [score_candidate(s, ScoreMode.MEAN) for s in candidate_scores]
        a, b = 3.7, 0.21
        transformed = [
            score_candidate([a * x + b for x in s], ScoreMode.MEAN)
            for s in candidate_scores
        ]
        assert np.argsort(base).tolist() == np.argsort(transformed).tolist()


class TestScoreManualAnnotation:
    def test_worked_example_anchors_and_intervals(self, worked_video, models):
        poses, _ = worked_video
        seq = parse_gloss_sequence(WORKED_LINE)
        result = score_manual_annotation(seq, poses, models)
        assert len(result.per_sign) == len(seq.tokens)
        by_token = {s.token: s for s in result.per_sign}
        assert by_token["BOB"].anchored and by_token["FRICK"].anchored
        # the two anchors bound the gloss intervals
        bob, frick = by_token["BOB"], by_token["FRICK"]
        assert by_token["TRAVEL"].interval[0] > bob.interval[1]
        assert by_token["TO"].interval[1] < frick.interval[0]
        for gloss in ("PARK", "WITH", "DOG"):
            assert by_token[gloss].interval[0] > frick.interval[1]
            assert by_token[gloss].in_vocabulary

    def test_no_fingerspelling_gives_whole_clip_interval(self, world, models):
        seq = parse_gloss_sequence("TRAVEL PARK DOG")
        poses, _ = syn.compose_sentence_video(world, seq, seed=11, video_id="nofs")
        result = score_manual_annotation(seq, poses, models)
        assert all(not s.anchored for s in result.per_sign)
        assert all(s.kind == "gloss" for s in result.per_sign)

    def test_empty_annotation_rejected(self, worked_video, models):
        poses, _ = worked_video
        with pytest.raises(ValueError):
            score_manual_annotation(GlossSequence(tokens=()), poses, models)

    def test_true_sequence_beats_perturbations(self, world, models, rng):
        seq = parse_gloss_sequence("fs-CAT TRAVEL HOUSE")
        poses, _ = syn.compose_sentence_video(world, seq, seed=21, video_id="ranked")
        true_score = score_manual_annotation(seq, poses, models).aggregate_score
        for _ in range(3):
            other = syn.perturb_sequence(seq, world, rng)
            other_score = score_manual_annotation(other, poses, models).aggregate_score
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
        return score_manual_annotation(
            parse_gloss_sequence(line),
            PoseSequence.from_frames(frames=(), fps=30.0, video_id="handmade"),
            self._models(),
            fs_scores=FrameScores(probs=fs, kind="softmax"),
            isr_scores=FrameScores(probs=probs, kind="sigmoid"),
        )

    def test_known_sign_beats_oov_substitute(self):
        signed = ("CAT", "TRAVEL", "DOG")
        true = self._score("CAT TRAVEL DOG", signed)
        swapped = self._score("CAT GO DOG", signed)
        assert not swapped.per_sign[1].in_vocabulary
        assert true.aggregate_score > swapped.aggregate_score

    @pytest.mark.parametrize("token", ["GO", "CL:1(point)"])
    def test_unknown_sign_keeps_oov_score(self, token):
        result = self._score(f"CAT {token} DOG", ("CAT", None, "DOG"))
        unknown = result.per_sign[1]
        assert not unknown.in_vocabulary
        assert unknown.interval[0] >= 24 and unknown.interval[1] <= 35
        assert unknown.score > 0.5


class TestAnnotate:
    def test_document_structure_and_ranking(self, worked_video, models):
        poses, _ = worked_video
        config = PipelineConfig(k=10)
        doc = annotate(WORKED_ENGLISH, poses, models, config, stub_with_worked_example())
        assert len(doc.candidates) == 10
        assert [c.rank for c in doc.candidates] == list(range(1, 11))
        top = doc.candidates[0]
        assert render(top.gloss_sequence) == WORKED_LINE
        for candidate in doc.candidates:
            assert len(candidate.per_sign) == len(candidate.gloss_sequence.tokens)

    def test_k_one(self, worked_video, models):
        poses, _ = worked_video
        doc = annotate("Dog drinks water", poses, models, PipelineConfig(k=1), StubClient())
        assert len(doc.candidates) == 1
        assert doc.candidates[0].rank == 1
        assert doc.model_fingerprints == models.fingerprints()
        assert len(doc.model_fingerprints["isr_one_hand_weights"]) == 64

    def test_llm_failure_produces_error_document(self, worked_video, models):
        poses, _ = worked_video

        class FailingClient:
            model_id = "broken"

            def complete(self, prompt, temperature=1.0, max_tokens=1024):
                raise LlmError("boom")

        doc = annotate("anything", poses, models, PipelineConfig(), FailingClient())
        assert doc.candidates == []
        assert doc.errors and "translation failed" in doc.errors[0]

    def test_sum_mode_changes_aggregate(self, worked_video, models):
        poses, _ = worked_video
        client = stub_with_worked_example()
        mean_doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(score_mode=ScoreMode.MEAN), client)
        sum_doc = annotate(WORKED_ENGLISH, poses, models, PipelineConfig(score_mode=ScoreMode.SUM), client)
        assert sum_doc.candidates[0].aggregate_score > mean_doc.candidates[0].aggregate_score

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
        for candidate in doc.candidates:
            for sign in candidate.per_sign:
                assert 0 <= sign.interval[0] <= sign.interval[1] < T

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
        assert len(doc.candidates) == len(lines)
        for candidate in doc.candidates:
            alone = score_manual_annotation(candidate.gloss_sequence, poses, models)
            assert candidate.per_sign == alone.per_sign


class TestDocumentSerialization:
    def _doc(self, worked_video, models):
        poses, _ = worked_video
        return annotate(
            WORKED_ENGLISH, poses, models, PipelineConfig(), stub_with_worked_example()
        )

    def test_schema_valid(self, worked_video, models):
        data = document_to_json(self._doc(worked_video, models))
        validate_document(data)

    def test_schema_rejects_corruption(self, worked_video, models):
        data = document_to_json(self._doc(worked_video, models))
        data["candidates"][0]["per_sign"][0]["kind"] = "telepathy"
        with pytest.raises(jsonschema.ValidationError):
            validate_document(data)

    def test_error_matches_jsonschema_validate(self, worked_video, models):
        data = document_to_json(self._doc(worked_video, models))
        data["candidates"][0]["per_sign"][0]["kind"] = "telepathy"
        del data["fps"]
        with pytest.raises(jsonschema.ValidationError) as ours:
            validate_document(data)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(instance=data, schema=pipeline_mod._document_validator().schema)
        assert ours.value.message == reference.value.message
        assert str(ours.value) == str(reference.value)

    def test_validator_shared_across_threads(self, worked_video, models):
        good = document_to_json(self._doc(worked_video, models))
        bad = json.loads(json.dumps(good))
        bad["candidates"][0]["rank"] = "first"
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(instance=bad, schema=pipeline_mod._document_validator().schema)

        def check(i):
            try:
                validate_document(bad if i % 2 else good)
            except jsonschema.ValidationError as exc:
                return exc.message
            return None

        pipeline_mod._document_validator.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(check, range(40), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [reference.value.message if i % 2 else None for i in range(40)]

    def test_round_trip_lossless(self, worked_video, models):
        doc = self._doc(worked_video, models)
        payload = document_bytes(doc)
        reparsed = document_from_json(json.loads(payload))
        assert document_bytes(reparsed) == payload

    def test_scores_have_six_decimals(self, worked_video, models):
        data = document_to_json(self._doc(worked_video, models))
        for candidate in data["candidates"]:
            assert candidate["aggregate_score"] == round(candidate["aggregate_score"], 6)
            for sign in candidate["per_sign"]:
                assert sign["score"] == round(sign["score"], 6)


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
        for name, blob in (
            ("fingerspelling", "fingerspelling/weights.bin"),
            ("isr_two_hand", "isr/two_hand/weights.bin"),
            ("isr_one_hand", "isr/one_hand/weights.bin"),
        ):
            first = (tmp_path / "one" / blob).read_bytes()
            assert (tmp_path / "two" / blob).read_bytes() == first
            assert hashlib.sha256(first).hexdigest() == prints[f"{name}_weights"]
