"""Fingerspelling recognition, word alignment, training, persistence.

Model-quality thresholds live in the acceptance suite; these tests cover
contracts and use the session-trained toy model where a real model helps.
"""

import numpy as np
import pytest
from sequences import pose_sequence

from signscribe import fingerspelling as fs_mod
from signscribe import synthetic as syn
from signscribe.ctc import toy_alphabet
from signscribe.fingerspelling import (
    align_words_scores,
    load_fingerspelling_model,
    normalize_word,
    recognize,
    save_fingerspelling_model,
    train_toy,
)
from signscribe.gloss import TokenizationError
from signscribe.pose import NoHandsError
from signscribe.training import CorpusError


class TestNormalizeWord:
    def test_uppercases(self):
        assert normalize_word("cat", toy_alphabet()) == "CAT"

    def test_strip_mode(self):
        assert normalize_word("a?B!", toy_alphabet()) == "AB"


class TestRecognize:
    def test_synthetic_phrases_decode(self, world, fs_model, rng):
        signer = syn.make_signers(1, rng)[0]
        exact = 0
        for i in range(8):
            words = (syn._random_word(rng, world.alphabet), "CAT")
            poses = syn.fingerspelling_clip(world, words, signer, rng, video_id=f"rec{i}")
            if recognize(fs_model, poses) == " ".join(words):
                exact += 1
        assert exact >= 6

    def test_all_missing_video_errors(self, fs_model):
        poses = pose_sequence(np.arange(10) / 30.0)
        with pytest.raises(NoHandsError):
            recognize(fs_model, poses)


class TestAlignWords:
    def test_true_words_score_high_and_ordered(self, world, fs_model, rng):
        signer = syn.make_signers(1, rng)[0]
        words = ("DOG", "BIT", "CAT")
        poses = syn.fingerspelling_clip(world, words, signer, rng, video_id="al")
        scores = fs_mod.frame_scores(fs_model, poses)
        detections = align_words_scores(scores, list(words), fs_model.alphabet)
        assert [d.word for d in detections] == list(words)
        for d in detections:
            assert d.score > 0.6
            assert d.fingerspelled_region == (d.start_frame, d.end_frame)
        for a, b in zip(detections, detections[1:]):
            assert a.end_frame < b.start_frame

    def test_decoy_scores_below_true_word(self, world, fs_model, rng):
        signer = syn.make_signers(1, rng)[0]
        poses = syn.fingerspelling_clip(world, ("HELLO",), signer, rng, video_id="d")
        scores = fs_mod.frame_scores(fs_model, poses)
        (true_det,) = align_words_scores(scores, ["HELLO"], fs_model.alphabet)
        (decoy_det,) = align_words_scores(scores, ["WORLD"], fs_model.alphabet)
        assert decoy_det.score < true_det.score

    def test_tokenization_error_names_word(self, fs_model, world, rng):
        signer = syn.make_signers(1, rng)[0]
        poses = syn.fingerspelling_clip(world, ("CAT",), signer, rng)
        with pytest.raises(TokenizationError) as exc_info:
            align_words_scores(fs_mod.frame_scores(fs_model, poses), ["C?T"], fs_model.alphabet)
        assert exc_info.value.word == "C?T"
        assert exc_info.value.char == "?"

    def test_words_are_upper_cased(self, fs_model, world, rng):
        signer = syn.make_signers(1, rng)[0]
        poses = syn.fingerspelling_clip(world, ("CAT",), signer, rng)
        scores = fs_mod.frame_scores(fs_model, poses)
        (lower,) = align_words_scores(scores, ["cat"], fs_model.alphabet)
        assert lower == align_words_scores(scores, ["CAT"], fs_model.alphabet)[0]
        assert lower.word == "CAT"
        with pytest.raises(TokenizationError):
            align_words_scores(scores, ["CAT", ""], fs_model.alphabet)


class TestTrainToy:
    def test_determinism_same_seed(self, world):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=24, num_signers=3, seed=5)
        m1 = train_toy(corpus, world.alphabet, epochs=2, seed=7, channels=12)
        m2 = train_toy(corpus, world.alphabet, epochs=2, seed=7, channels=12)
        for name, arr in m1.tcn.state_arrays().items():
            np.testing.assert_array_equal(arr, m2.tcn.state_arrays()[name])

    def test_corpus_too_small(self, world):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=2, num_signers=1, seed=5)
        with pytest.raises(CorpusError):
            train_toy(corpus, world.alphabet, epochs=1)


class TestPersistence:
    def test_round_trip_preserves_behavior(self, fs_model, world, rng, tmp_path):
        save_fingerspelling_model(tmp_path / "fs", fs_model)
        loaded = load_fingerspelling_model(tmp_path / "fs")
        assert loaded.alphabet.chars == fs_model.alphabet.chars
        signer = syn.make_signers(1, rng)[0]
        poses = syn.fingerspelling_clip(world, ("DOG",), signer, rng)
        # float32 storage rounds the weights; decode behavior must agree
        assert recognize(loaded, poses) == recognize(fs_model, poses)

    def test_wrong_kind_rejected(self, isr_model, tmp_path):
        from signscribe.isr import save_isr_model
        from signscribe.nn import WeightsError

        save_isr_model(tmp_path / "isr", isr_model)
        with pytest.raises(WeightsError):
            load_fingerspelling_model(tmp_path / "isr" / "two_hand")
