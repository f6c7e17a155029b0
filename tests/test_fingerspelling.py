"""Fingerspelling recognition, word alignment, data filtering, persistence.

Model-quality thresholds live in the acceptance suite; these tests cover
contracts and use the session-trained toy model where a real model helps.
"""

import numpy as np
import pytest

from signscribe import fingerspelling as fs_mod
from signscribe import synthetic as syn
from signscribe.ctc import toy_alphabet
from signscribe.fingerspelling import (
    FingerspellingModel,
    WordDetection,
    align_words_scores,
    filter_training_set,
    load_fingerspelling_model,
    normalize_word,
    per_character_loss,
    recognize,
    save_fingerspelling_model,
    train_toy,
)
from signscribe.gloss import TokenizationError
from signscribe.pose import NoHandsError, PoseFrame, PoseSequence
from signscribe.training import CorpusError


class TestNormalizeWord:
    def test_uppercases(self):
        assert normalize_word("cat", toy_alphabet()) == "CAT"

    def test_error_on_unknown(self):
        with pytest.raises(TokenizationError):
            normalize_word("A?B", toy_alphabet())

    def test_strip_mode(self):
        assert normalize_word("A?B!", toy_alphabet(), on_unknown="strip") == "AB"


class TestRecognize:
    def test_synthetic_phrases_decode(self, world, fs_model, rng):
        signer = syn.make_signers(1, rng)[0]
        exact = 0
        for i in range(8):
            words = (syn._random_word(rng, world.alphabet), "CAT")
            poses, _ = syn.fingerspelling_clip(world, words, signer, rng, video_id=f"rec{i}")
            if recognize(fs_model, poses) == " ".join(words):
                exact += 1
        assert exact >= 6

    def test_all_missing_video_errors(self, fs_model):
        frames = tuple(PoseFrame(timestamp=i / 30.0) for i in range(10))
        poses = PoseSequence.from_frames(frames=frames, fps=30.0)
        with pytest.raises(NoHandsError):
            recognize(fs_model, poses)


class TestAlignWords:
    def test_true_words_score_high_and_ordered(self, world, fs_model, rng):
        signer = syn.make_signers(1, rng)[0]
        words = ("DOG", "BIT", "CAT")
        poses, _ = syn.fingerspelling_clip(world, words, signer, rng, video_id="al")
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
        poses, _ = syn.fingerspelling_clip(world, ("HELLO",), signer, rng, video_id="d")
        scores = fs_mod.frame_scores(fs_model, poses)
        (true_det,) = align_words_scores(scores, ["HELLO"], fs_model.alphabet)
        (decoy_det,) = align_words_scores(scores, ["WORLD"], fs_model.alphabet)
        assert decoy_det.score < true_det.score

    def test_tokenization_error_names_word(self, fs_model, world, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.fingerspelling_clip(world, ("CAT",), signer, rng)
        with pytest.raises(TokenizationError) as exc_info:
            align_words_scores(fs_mod.frame_scores(fs_model, poses), ["C?T"], fs_model.alphabet)
        assert exc_info.value.word == "C?T"


class TestFilterTrainingSet:
    def _dataset(self, world, rng, n=8):
        signers = syn.make_signers(2, rng)
        return syn.make_fingerspelling_corpus(world, num_phrases=n, num_signers=2, seed=3)

    def test_rank_rule_drops_worst(self, world, fs_model, rng):
        dataset = self._dataset(world, rng)
        # corrupt one sample's label so its loss is enormous
        bad = dataset[3]
        corrupted = syn.FsSample(
            sample_id=bad.sample_id,
            words=("Z1Z1Z", "Q0Q0"),
            poses=bad.poses,
            signer_id=bad.signer_id,
            word_spans=bad.word_spans,
        )
        dataset[3] = corrupted
        kept = filter_training_set(dataset, fs_model, drop_fraction=0.2)
        assert len(kept) == len(dataset) - 1
        assert all(s.sample_id != corrupted.sample_id for s in kept)

    def test_zero_fraction_is_identity(self, world, fs_model, rng):
        dataset = self._dataset(world, rng)
        assert filter_training_set(dataset, fs_model, drop_fraction=0.0) == dataset

    def test_fraction_bounds(self, world, fs_model, rng):
        dataset = self._dataset(world, rng)
        with pytest.raises(ValueError):
            filter_training_set(dataset, fs_model, drop_fraction=0.5)
        with pytest.raises(ValueError):
            filter_training_set(dataset, fs_model, drop_fraction=-0.1)

    def test_deterministic_under_ties(self, world, fs_model, rng):
        dataset = self._dataset(world, rng)
        a = filter_training_set(dataset, fs_model, drop_fraction=0.25)
        b = filter_training_set(dataset, fs_model, drop_fraction=0.25)
        assert [s.sample_id for s in a] == [s.sample_id for s in b]


class TestTrainToy:
    def test_determinism_same_seed(self, world):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=24, num_signers=3, seed=5)
        m1 = train_toy(corpus, world.alphabet, epochs=2, seed=7, channels=12)
        m2 = train_toy(corpus, world.alphabet, epochs=2, seed=7, channels=12)
        for name, arr in m1.tcn.state_arrays().items():
            np.testing.assert_array_equal(arr, m2.tcn.state_arrays()[name])

    def test_patience_stops_early(self, world):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=24, num_signers=3, seed=5)
        model = train_toy(corpus, world.alphabet, epochs=30, seed=7, channels=12, patience=1)
        assert len(model.history) < 30

    def test_corpus_too_small(self, world):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=2, num_signers=1, seed=5)
        with pytest.raises(CorpusError):
            train_toy(corpus, world.alphabet, epochs=1)

    def test_per_character_loss_positive(self, world, fs_model, rng):
        corpus = syn.make_fingerspelling_corpus(world, num_phrases=4, num_signers=2, seed=9)
        for sample in corpus:
            assert per_character_loss(fs_model, sample) >= 0.0


class TestPersistence:
    def test_round_trip_preserves_behavior(self, fs_model, world, rng, tmp_path):
        save_fingerspelling_model(tmp_path / "fs", fs_model)
        loaded = load_fingerspelling_model(tmp_path / "fs")
        assert loaded.alphabet.chars == fs_model.alphabet.chars
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.fingerspelling_clip(world, ("DOG",), signer, rng)
        # float32 storage rounds the weights; decode behavior must agree
        assert recognize(loaded, poses) == recognize(fs_model, poses)

    def test_wrong_kind_rejected(self, isr_model, tmp_path):
        from signscribe.isr import save_isr_model
        from signscribe.nn import WeightsError

        save_isr_model(tmp_path / "isr", isr_model)
        with pytest.raises(WeightsError):
            load_fingerspelling_model(tmp_path / "isr" / "two_hand")
