"""Isolated sign recognizer: vocabulary, scores, classification, alignment."""

import shutil

import numpy as np
import pytest

from signscribe import nn
from signscribe import synthetic as syn
from signscribe.ctc import FrameScores
from signscribe.fingerspelling import WordDetection, save_fingerspelling_model
from signscribe.gloss import GlossToken, TokenKind, parse_gloss_sequence
from signscribe.isr import (
    AlignEntry,
    SignVocabulary,
    _segment_dp,
    align_glosses_scores,
    build_frame_targets,
    classify,
    isr_scores,
    load_isr_model,
    load_vocabulary,
    save_isr_model,
    save_vocabulary,
    train_toy_isr,
)
from signscribe.pose import mirror_flip
from signscribe.training import CorpusError


class TestSignVocabulary:
    def test_reserved_classes(self):
        vocab = SignVocabulary(glosses=("CAT", "DOG"))
        assert vocab.size == 4
        assert vocab.any_index == 2
        assert vocab.null_index == 3
        assert vocab.name(vocab.any_index) == "ANY"

    def test_stemmed_case_insensitive_lookup(self):
        vocab = SignVocabulary(glosses=("DAY", "RUN"))
        assert vocab.class_index("DAYS") == 0
        assert vocab.class_index("days") == 0
        assert vocab.class_index("RUNNING") == 1
        assert vocab.class_index("CAT") is None

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            SignVocabulary(glosses=("CAT", "ANY"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SignVocabulary(glosses=("CAT", "cat"))

    def test_manifest_round_trip(self, tmp_path):
        vocab = SignVocabulary(glosses=("CAT", "DOG", "HOUSE"))
        save_vocabulary(tmp_path / "vocab.json", vocab)
        assert load_vocabulary(tmp_path / "vocab.json") == vocab


class TestIsrScores:
    def test_scores_shape_and_range(self, world, isr_model, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "CAT", signer, rng)
        scores = isr_scores(isr_model, poses)
        assert scores.kind == "sigmoid"
        assert scores.probs.shape == (len(poses), isr_model.vocabulary.size)
        assert scores.probs.min() >= 0.0 and scores.probs.max() <= 1.0

    def test_branch_max_dominates_each_branch(self, world, isr_model, rng):
        from signscribe.isr import _branch_logits

        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "DOG", signer, rng)
        two, one = _branch_logits(isr_model, poses)
        merged = np.maximum(two.data, one.data)
        assert np.all(merged >= two.data)
        assert np.all(merged >= one.data)

    def test_mirror_twin_scores_identical(self, world, isr_model, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "HOUSE", signer, rng)
        twin = mirror_flip(poses)
        np.testing.assert_array_equal(
            isr_scores(isr_model, poses).probs, isr_scores(isr_model, twin).probs
        )


class TestClassify:
    def test_synthetic_clip(self, world, isr_model, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "TRAVEL", signer, rng)
        assert classify(isr_model, poses) == "TRAVEL"

    def test_always_answers_a_gloss(self, world, isr_model):
        # Out-of-vocabulary sign: NULL dominates, but classification still
        # returns the best vocabulary gloss.
        seq = parse_gloss_sequence("ZEBRA")
        poses, _ = syn.compose_sentence_video(world, seq, seed=13, video_id="oov")
        label = classify(isr_model, poses)
        assert label in isr_model.vocabulary.glosses

    def test_mirror_invariance(self, world, isr_model, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "WATER", signer, rng)
        assert classify(isr_model, poses) == classify(isr_model, mirror_flip(poses))


class TestFrameTargets:
    def test_target_structure(self):
        vocab = SignVocabulary(glosses=("CAT", "DOG"))
        targets = build_frame_targets(vocab, 10, class_index=1, span=(3, 6))
        for t in range(10):
            inside = 3 <= t <= 6
            assert targets[t, 1] == (1.0 if inside else 0.0)
            assert targets[t, vocab.any_index] == (1.0 if inside else 0.0)
            assert targets[t, vocab.null_index] == (0.0 if inside else 1.0)
            assert targets[t, 0] == 0.0

    def test_any_is_union_of_spans(self):
        vocab = SignVocabulary(glosses=("CAT",))
        a = build_frame_targets(vocab, 8, 0, (1, 3))
        b = build_frame_targets(vocab, 8, 0, (5, 6))
        merged = np.concatenate([a, b])
        any_track = merged[:, vocab.any_index]
        expected = np.zeros(16)
        expected[1:4] = 1.0
        expected[13:15] = 1.0
        np.testing.assert_array_equal(any_track, expected)


class TestTrainToyIsr:
    def test_determinism(self, world):
        corpus = syn.make_isr_corpus(world, clips_per_class=3, num_signers=3, seed=2)[:30]
        vocab = world.vocabulary
        m1 = train_toy_isr(corpus, vocab, epochs=2, seed=7, channels=12)
        m2 = train_toy_isr(corpus, vocab, epochs=2, seed=7, channels=12)
        for name, arr in m1.two_hand.state_arrays().items():
            np.testing.assert_array_equal(arr, m2.two_hand.state_arrays()[name])

    def test_unknown_gloss_rejected(self, world):
        corpus = syn.make_isr_corpus(world, clips_per_class=3, num_signers=3, seed=2)[:9]
        with pytest.raises(CorpusError):
            train_toy_isr(corpus, SignVocabulary(glosses=("ZEBRA",)), epochs=1)


def _placements(m, n, min_dur, lo=0):
    """Every ordered, disjoint placement of m segments of >= min_dur frames."""
    if m == 0:
        yield []
        return
    for s in range(lo, n):
        for e in range(s + min_dur, n + 1):
            for rest in _placements(m - 1, n, min_dur, e):
                yield [(s, e)] + rest


def _scored_placements(tracks, null_track, min_dur):
    m, n = tracks.shape[0], len(null_track)
    log_tracks = np.log(np.maximum(tracks, 1e-12))
    log_null = np.log(np.maximum(null_track, 1e-12))
    for segs in _placements(m, n, min_dur):
        total = 0.0
        covered = np.zeros(n, dtype=bool)
        for i, (s, e) in enumerate(segs):
            total += log_tracks[i, s:e].sum()
            covered[s:e] = True
        total += log_null[~covered].sum()
        yield total, segs


def exhaustive_segment_search(tracks, null_track, min_dur):
    """Oracle: enumerate every ordered, disjoint segment placement."""
    best = -np.inf
    best_segments = None
    for total, segs in _scored_placements(tracks, null_track, min_dur):
        if total > best:
            best = total
            best_segments = segs
    return best, best_segments


def tie_rule_placement(tracks, null_track, min_dur):
    """Oracle for ``_segment_dp``'s tie rule.

    Keeps every placement within 1e-9 of the optimum and picks the latest
    end of the last segment, then its earliest start, then the latest end
    of the segment before, and so on.
    """
    scored = list(_scored_placements(tracks, null_track, min_dur))
    best = max(total for total, _ in scored)
    near = [segs for total, segs in scored if total >= best - 1e-9]
    return best, min(near, key=lambda segs: [v for s, e in reversed(segs) for v in (-e, s)])


def _segment_dp_loop(tracks, null_track, min_dur):
    """Reference: the O(m*n) Python loop ``_segment_dp`` replaced.

    Starts a segment at the earliest s of exactly the best score and
    prefers a segment over a NULL frame on an exact tie.
    """
    m, n = tracks.shape[0], null_track.shape[0]
    log_tracks = np.log(np.maximum(tracks, 1e-12))
    log_null = np.log(np.maximum(null_track, 1e-12))
    null_prefix = np.concatenate(([0.0], np.cumsum(log_null)))
    if m == 0:
        return float(null_prefix[n]), []

    prefixes = np.concatenate((np.zeros((m, 1)), np.cumsum(log_tracks, axis=1)), axis=1)
    NEG = -np.inf
    dp = np.full((m + 1, n + 1), NEG)
    dp[0] = null_prefix
    seg_start = np.full((m + 1, n + 1), -1, dtype=np.int64)
    for i in range(1, m + 1):
        pref = prefixes[i - 1]
        run_best = NEG
        run_arg = -1
        for t in range(1, n + 1):
            s = t - min_dur
            if s >= 0 and np.isfinite(dp[i - 1, s]):
                cand = dp[i - 1, s] - pref[s]
                if cand > run_best:
                    run_best = cand
                    run_arg = s
            gap = dp[i, t - 1] + log_null[t - 1] if np.isfinite(dp[i, t - 1]) else NEG
            seg = run_best + pref[t] if np.isfinite(run_best) else NEG
            if seg >= gap:
                dp[i, t] = seg
                seg_start[i, t] = run_arg
            else:
                dp[i, t] = gap
    if not np.isfinite(dp[m, n]):
        raise ValueError("no feasible segmentation")

    segments = []
    i, t = m, n
    while i > 0:
        while seg_start[i, t] < 0:
            t -= 1
        s = int(seg_start[i, t])
        segments.append((s, t))
        i, t = i - 1, s
    segments.reverse()
    return float(dp[m, n]), segments


class TestSegmentDp:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(0, min(3, n + 1)))
            tracks = rng.uniform(0.05, 0.95, size=(m, n))
            null_track = rng.uniform(0.05, 0.95, size=n)
            min_dur = int(rng.integers(1, 3))
            if m * min_dur > n:
                continue
            got, _ = _segment_dp(tracks, null_track, min_dur)
            expected, _ = exhaustive_segment_search(tracks, null_track, min_dur)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_min_duration_respected(self):
        rng = np.random.default_rng(3)
        tracks = rng.uniform(0.1, 0.9, size=(2, 10))
        null_track = rng.uniform(0.1, 0.9, size=10)
        _, segments = _segment_dp(tracks, null_track, min_dur=3)
        for s, e in segments:
            assert e - s >= 3

    def test_matches_loop_on_continuous_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 201))
            min_dur = int(rng.integers(1, 4))
            m = int(rng.integers(0, min(8, n // min_dur) + 1))
            tracks = rng.uniform(0.01, 0.99, size=(m, n))
            null_track = rng.uniform(0.01, 0.99, size=n)
            got, got_segments = _segment_dp(tracks, null_track, min_dur)
            expected, expected_segments = _segment_dp_loop(tracks, null_track, min_dur)
            assert got_segments == expected_segments
            assert got == pytest.approx(expected, abs=1e-9)

    def test_tie_rule_on_exact_ties(self):
        """Repeated tracks and scores rounded to 0.1 tie exactly and often."""
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            min_dur = int(rng.integers(1, 3))
            m = int(rng.integers(1, min(3, n // min_dur) + 1))
            if trial % 2:
                tracks = np.repeat(rng.integers(1, 10, size=(1, n)) / 10, m, axis=0)
            else:
                tracks = rng.integers(1, 10, size=(m, n)) / 10
            null_track = rng.integers(1, 10, size=n) / 10
            got, segments = _segment_dp(tracks, null_track, min_dur)
            best, expected_segments = tie_rule_placement(tracks, null_track, min_dur)
            score_of = {
                tuple(segs): total
                for total, segs in _scored_placements(tracks, null_track, min_dur)
            }
            assert got == pytest.approx(best, abs=1e-9)
            assert score_of[tuple(segments)] >= best - 1e-9
            assert segments == expected_segments

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="no feasible segmentation"):
            _segment_dp(np.full((3, 5), 0.5), np.full(5, 0.5), min_dur=2)


def _hot_scores(vocab, hot, T=20, span=(5, 14)):
    """Synthetic sigmoid scores: one class hot inside a span, NULL elsewhere."""
    probs = np.full((T, vocab.size), 0.02)
    probs[:, vocab.null_index] = 0.95
    s, e = span
    probs[s : e + 1, vocab.null_index] = 0.03
    probs[s : e + 1, hot] = 0.97
    probs[s : e + 1, vocab.any_index] = 0.9
    return FrameScores(probs=probs, kind="sigmoid")


# An unknown sign over _hot_scores' span: P(ANY) x (1 - max in-vocabulary P) on every frame.
UNKNOWN_SIGN_IN_HOT_SPAN = 0.9 * (1 - 0.97)


class TestAlignGlossesScores:
    def test_one_hot_forcing(self):
        vocab = SignVocabulary(glosses=("CAT", "DOG"))
        scores = _hot_scores(vocab, hot=0)
        entries = [AlignEntry(0, GlossToken(kind=TokenKind.GLOSS, text="CAT"))]
        detections, errors = align_glosses_scores(scores, vocab, entries, anchors=[])
        assert not errors
        det = detections[0]
        assert det.in_vocabulary
        assert det.score > 0.9
        assert det.interval[0] >= 4 and det.interval[1] <= 15
        assert 5 <= det.frame <= 14

    def test_out_of_vocab_uses_any_track(self):
        vocab = SignVocabulary(glosses=("CAT",))
        scores = _hot_scores(vocab, hot=0)
        entries = [AlignEntry(0, GlossToken(kind=TokenKind.GLOSS, text="ZEBRA"))]
        detections, _ = align_glosses_scores(scores, vocab, entries, anchors=[])
        det = detections[0]
        assert not det.in_vocabulary
        assert det.interval == (5, 14)
        assert det.score == pytest.approx(UNKNOWN_SIGN_IN_HOT_SPAN, rel=1e-12)

    def test_classifier_uses_any_track(self):
        vocab = SignVocabulary(glosses=("CAT",))
        scores = _hot_scores(vocab, hot=0)
        token = GlossToken(
            kind=TokenKind.CLASSIFIER, text="CL:1(point)", handshape="1", motion="point"
        )
        detections, _ = align_glosses_scores(
            scores, vocab, [AlignEntry(0, token)], anchors=[]
        )
        assert not detections[0].in_vocabulary
        assert detections[0].interval == (5, 14)
        assert detections[0].score == pytest.approx(UNKNOWN_SIGN_IN_HOT_SPAN, rel=1e-12)

    def test_anchor_partitioning(self):
        vocab = SignVocabulary(glosses=("CAT", "DOG"))
        T = 30
        probs = np.full((T, vocab.size), 0.02)
        probs[:, vocab.null_index] = 0.9
        probs[2:8, 0] = 0.95  # CAT before the anchor
        probs[20:27, 1] = 0.95  # DOG after the anchor
        scores = FrameScores(probs=probs, kind="sigmoid")
        anchor = (1, WordDetection(word="BOB", score=0.9, start_frame=10, end_frame=17))
        entries = [
            AlignEntry(0, GlossToken(kind=TokenKind.GLOSS, text="CAT")),
            AlignEntry(2, GlossToken(kind=TokenKind.GLOSS, text="DOG")),
        ]
        detections, errors = align_glosses_scores(scores, vocab, entries, [anchor])
        assert not errors
        assert detections[0].interval[1] < 10
        assert detections[2].interval[0] > 17

    def test_infeasible_interval_reported_others_returned(self):
        vocab = SignVocabulary(glosses=("CAT", "DOG"))
        scores = _hot_scores(vocab, hot=0, T=30, span=(20, 26))
        # Anchor at frames 1..27 leaves a 1-frame leading interval for two
        # glosses and a healthy trailing interval for one.
        anchor = (2, WordDetection(word="X", score=0.9, start_frame=1, end_frame=27))
        entries = [
            AlignEntry(0, GlossToken(kind=TokenKind.GLOSS, text="CAT")),
            AlignEntry(1, GlossToken(kind=TokenKind.GLOSS, text="DOG")),
            AlignEntry(3, GlossToken(kind=TokenKind.GLOSS, text="CAT")),
        ]
        detections, errors = align_glosses_scores(scores, vocab, entries, [anchor])
        assert len(errors) == 1
        assert detections[0].score == 0.0
        assert detections[1].score == 0.0
        assert detections[3].score > 0.0

    def test_outputs_confined_to_intervals(self, world, isr_model, rng):
        line = "fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG"
        seq = parse_gloss_sequence(line)
        poses, _ = syn.compose_sentence_video(world, seq, seed=9)
        anchors = [
            (0, WordDetection(word="BOB", score=0.9, start_frame=4, end_frame=18)),
            (3, WordDetection(word="FRICK", score=0.9, start_frame=55, end_frame=72)),
        ]
        entries = [
            AlignEntry(token_index=i, token=tok)
            for i, tok in enumerate(seq.tokens)
            if i not in {idx for idx, _ in anchors}
        ]
        by_index, errors = align_glosses_scores(
            isr_scores(isr_model, poses), isr_model.vocabulary, entries, anchors
        )
        detections = [by_index[e.token_index] for e in entries]
        spans = {d.gloss: d.interval for d in detections}
        assert spans["TRAVEL"][0] > 18 and spans["TO"][1] < 55
        assert all(i[0] > 72 for g, i in spans.items() if g in ("PARK", "WITH", "DOG"))
        for det in detections:
            assert det.interval[0] <= det.frame <= det.interval[1]


class TestPersistence:
    def test_round_trip(self, isr_model, world, rng, tmp_path):
        save_isr_model(tmp_path / "isr", isr_model)
        loaded = load_isr_model(tmp_path / "isr")
        assert loaded.vocabulary == isr_model.vocabulary
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.isr_clip(world, "BOOK", signer, rng)
        assert classify(loaded, poses) == classify(isr_model, poses)

    def test_swapped_branches_rejected(self, isr_model, tmp_path):
        save_isr_model(tmp_path / "isr", isr_model)
        (tmp_path / "isr" / "two_hand").rename(tmp_path / "isr" / "swap")
        (tmp_path / "isr" / "one_hand").rename(tmp_path / "isr" / "two_hand")
        (tmp_path / "isr" / "swap").rename(tmp_path / "isr" / "one_hand")
        with pytest.raises(nn.WeightsError, match="two_hand does not hold an ISR two_hand branch"):
            load_isr_model(tmp_path / "isr")

    def test_foreign_branch_rejected(self, isr_model, fs_model, tmp_path):
        save_isr_model(tmp_path / "isr", isr_model)
        shutil.rmtree(tmp_path / "isr" / "one_hand")
        save_fingerspelling_model(tmp_path / "isr" / "one_hand", fs_model)
        with pytest.raises(nn.WeightsError, match="one_hand does not hold an ISR one_hand branch"):
            load_isr_model(tmp_path / "isr")
