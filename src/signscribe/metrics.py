"""Evaluation metrics: character error rate, character n-gram F-score,
detection ROC/operating-point statistics, and temporal-overlap F1."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledScore:
    score: float
    label: bool


@dataclass(frozen=True)
class TimedSpan:
    id: str
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.end_frame < self.start_frame:
            raise ValueError("span end before start")


def levenshtein(a: str, b: str) -> int:
    """Edit distance (substitutions, insertions, deletions all cost 1)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def cer(truth: str, hyp: str) -> float:
    """Character error rate: edit distance over ground-truth length.

    Characters include spaces; the ground truth must be non-empty.
    """
    if not truth:
        raise ValueError("ground truth must be non-empty")
    return levenshtein(truth, hyp) / len(truth)


def _char_ngrams(text: str, order: int) -> Counter:
    chars = text.replace(" ", "")
    return Counter(chars[i : i + order] for i in range(len(chars) - order + 1))


def chrf(reference: str, hypothesis: str, max_order: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-score in [0, 1].

    Per-order F_beta values are averaged uniformly over the orders for
    which both sides have at least one n-gram (whitespace is excluded from
    n-gram extraction). Two empty strings score 1; one empty scores 0.
    """
    ref_chars = reference.replace(" ", "")
    hyp_chars = hypothesis.replace(" ", "")
    if not ref_chars and not hyp_chars:
        return 1.0
    if not ref_chars or not hyp_chars:
        return 0.0
    beta2 = beta * beta
    scores = []
    for order in range(1, max_order + 1):
        ref_counts = _char_ngrams(reference, order)
        hyp_counts = _char_ngrams(hypothesis, order)
        total_ref = sum(ref_counts.values())
        total_hyp = sum(hyp_counts.values())
        if total_ref == 0 or total_hyp == 0:
            continue
        matches = sum((ref_counts & hyp_counts).values())
        precision = matches / total_hyp
        recall = matches / total_ref
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(
                (1 + beta2) * precision * recall / (beta2 * precision + recall)
            )
    return float(np.mean(scores)) if scores else 0.0


class SingleClassError(ValueError):
    pass


def roc_auc(samples: list[LabeledScore]) -> float:
    """ROC AUC via the rank statistic, counting ties as half."""
    pos = [s.score for s in samples if s.label]
    neg = [s.score for s in samples if not s.label]
    if not pos or not neg:
        raise SingleClassError("AUC requires at least one positive and one negative")
    scores = np.array([s.score for s in samples])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    labels = np.array([s.label for s in samples])
    rank_sum = ranks[labels].sum()
    n_pos, n_neg = len(pos), len(neg)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def op_point(samples: list[LabeledScore], threshold: float) -> tuple[float, float, float]:
    """Precision, recall, and F1 when predicting positive at score >= threshold."""
    tp = sum(1 for s in samples if s.label and s.score >= threshold)
    fp = sum(1 for s in samples if not s.label and s.score >= threshold)
    fn = sum(1 for s in samples if s.label and s.score < threshold)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f1


def temporal_f1(
    pred: list[TimedSpan], truth: list[TimedSpan]
) -> tuple[float, float, float]:
    """Greedy one-to-one interval matching in time order.

    A prediction matches the first unmatched truth span it overlaps with
    (sharing at least one frame). Returns precision, recall, F1.
    """
    pred_sorted = sorted(pred, key=lambda s: (s.start_frame, s.end_frame))
    truth_sorted = sorted(truth, key=lambda s: (s.start_frame, s.end_frame))
    matched = [False] * len(truth_sorted)
    hits = 0
    for p in pred_sorted:
        for i, t in enumerate(truth_sorted):
            if matched[i]:
                continue
            if p.start_frame <= t.end_frame and t.start_frame <= p.end_frame:
                matched[i] = True
                hits += 1
                break
    precision = hits / len(pred_sorted) if pred_sorted else 0.0
    recall = hits / len(truth_sorted) if truth_sorted else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f1


WORD_LENGTH_STRATA = ("all", "len_ge_3", "len_gt_3")


def in_stratum(word: str, stratum: str) -> bool:
    if stratum == "all":
        return True
    if stratum == "len_ge_3":
        return len(word) >= 3
    if stratum == "len_gt_3":
        return len(word) > 3
    raise ValueError(f"unknown stratum {stratum!r}")
