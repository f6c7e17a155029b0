"""Metrics against independent oracles: recursive edit distance, naive
n-gram counting, and O(n^2) pairwise AUC."""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe.metrics import (
    LabeledScore,
    SingleClassError,
    TimedSpan,
    cer,
    chrf,
    levenshtein,
    op_point,
    roc_auc,
    temporal_f1,
)


def recursive_levenshtein(a: str, b: str) -> int:
    """Independent oracle for the DP implementation."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go(len(a), len(b))


def pairwise_auc(samples):
    """Independent O(n^2) oracle: fraction of correctly ordered pairs."""
    pos = [s.score for s in samples if s.label]
    neg = [s.score for s in samples if not s.label]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestCer:
    def test_identity(self):
        assert cer("ABC", "ABC") == 0.0

    def test_single_deletion_over_eight(self):
        # Levenshtein("PLEASANT", "PLESANT") = 1 by the recursive oracle.
        assert recursive_levenshtein("PLEASANT", "PLESANT") == 1
        assert cer("PLEASANT", "PLESANT") == pytest.approx(0.125)

    def test_full_deletion(self):
        assert cer("A", "") == 1.0

    def test_spaces_count(self):
        assert cer("A B", "AB") == pytest.approx(1 / 3)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            cer("", "X")

    @given(st.text(max_size=8), st.text(max_size=8))
    @settings(max_examples=150)
    def test_distance_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == recursive_levenshtein(a, b)

    @given(st.text(min_size=1, max_size=10), st.text(max_size=12))
    def test_bounded_by_length_ratio(self, truth, hyp):
        assert cer(truth, hyp) <= max(1.0, len(hyp) / len(truth))


class TestChrf:
    def test_identical_strings(self):
        assert chrf("SOME GLOSS LINE", "SOME GLOSS LINE") == 1.0

    def test_disjoint_alphabets(self):
        assert chrf("AAAA", "BBBB") == 0.0

    def test_empty_conventions(self):
        assert chrf("", "") == 1.0
        assert chrf("AB", "") == 0.0
        assert chrf("", "AB") == 0.0

    def test_small_pair_against_naive_counter(self):
        reference, hypothesis = "CAT SAT", "CAT MAT"
        beta2 = 4.0
        scores = []
        ref_chars = reference.replace(" ", "")
        hyp_chars = hypothesis.replace(" ", "")
        for order in range(1, 7):
            ref_grams = Counter(
                ref_chars[i : i + order] for i in range(len(ref_chars) - order + 1)
            )
            hyp_grams = Counter(
                hyp_chars[i : i + order] for i in range(len(hyp_chars) - order + 1)
            )
            if not ref_grams or not hyp_grams:
                continue
            overlap = sum((ref_grams & hyp_grams).values())
            precision = overlap / sum(hyp_grams.values())
            recall = overlap / sum(ref_grams.values())
            if precision + recall == 0:
                scores.append(0.0)
            else:
                scores.append((1 + beta2) * precision * recall / (beta2 * precision + recall))
        expected = float(np.mean(scores))
        assert chrf(reference, hypothesis) == pytest.approx(expected, abs=1e-12)

    @given(st.text(min_size=1, max_size=20))
    def test_self_similarity_is_one(self, text):
        assert chrf(text, text) == pytest.approx(1.0)


class TestRocAuc:
    def test_perfect_separation(self):
        samples = [
            LabeledScore(0.9, True),
            LabeledScore(0.8, True),
            LabeledScore(0.1, False),
            LabeledScore(0.2, False),
        ]
        assert roc_auc(samples) == 1.0

    def test_all_ties(self):
        samples = [LabeledScore(0.5, True), LabeledScore(0.5, False)] * 3
        assert roc_auc(samples) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            labels = rng.random(n) > 0.5
            if labels.all() or not labels.any():
                continue
            scores = np.round(rng.random(n), 2)  # induce ties
            samples = [LabeledScore(float(s), bool(l)) for s, l in zip(scores, labels)]
            assert roc_auc(samples) == pytest.approx(pairwise_auc(samples), abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc_auc([LabeledScore(0.5, True)])


class TestOpPoint:
    def test_threshold_inclusive(self):
        samples = [LabeledScore(0.3, True), LabeledScore(0.29, False)]
        precision, recall, f1 = op_point(samples, 0.3)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_no_predictions(self):
        samples = [LabeledScore(0.1, True)]
        precision, recall, f1 = op_point(samples, 0.5)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_counts(self):
        samples = [
            LabeledScore(0.9, True),
            LabeledScore(0.8, False),
            LabeledScore(0.2, True),
        ]
        precision, recall, _ = op_point(samples, 0.5)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)


class TestTemporalF1:
    def test_overlap_counts_as_match(self):
        pred = [TimedSpan("p", 10, 20)]
        truth = [TimedSpan("t", 15, 25)]
        assert temporal_f1(pred, truth) == (1.0, 1.0, 1.0)

    def test_disjoint_spans(self):
        pred = [TimedSpan("p", 0, 5)]
        truth = [TimedSpan("t", 10, 20)]
        assert temporal_f1(pred, truth)[2] == 0.0

    def test_one_to_one_matching(self):
        # Two predictions overlapping one truth span: only one may match.
        pred = [TimedSpan("p1", 0, 10), TimedSpan("p2", 5, 12)]
        truth = [TimedSpan("t", 4, 8)]
        precision, recall, f1 = temporal_f1(pred, truth)
        assert precision == pytest.approx(0.5)
        assert recall == 1.0

    def test_shared_single_frame(self):
        pred = [TimedSpan("p", 0, 10)]
        truth = [TimedSpan("t", 10, 20)]
        assert temporal_f1(pred, truth) == (1.0, 1.0, 1.0)

    def test_input_order_invariance(self):
        rng = np.random.default_rng(31)
        spans = []
        for i in range(8):
            s = int(rng.integers(0, 50))
            spans.append(TimedSpan(f"s{i}", s, s + int(rng.integers(0, 10))))
        truth = [TimedSpan(f"t{i}", int(rng.integers(0, 50)), int(rng.integers(50, 70))) for i in range(4)]
        base = temporal_f1(spans, truth)
        shuffled = list(spans)
        rng.shuffle(shuffled)
        assert temporal_f1(shuffled, truth) == base

    def test_spans_match_only_within_their_video(self):
        pred = [TimedSpan("p", 10, 20, video="A")]
        truth = [TimedSpan("t1", 12, 18, video="B"), TimedSpan("t2", 100, 110, video="A")]
        assert temporal_f1(pred, truth) == (0.0, 0.0, 0.0)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            TimedSpan("x", 5, 4)
