"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All criteria run offline against synthetic data and brute-force oracles.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from signscribe import fingerspelling as fs_mod
from signscribe import isr as isr_mod
from signscribe import nn
from signscribe import synthetic as syn
from signscribe.cli import main
from signscribe.ctc import Alphabet, FrameScores, ctc_loss, forced_align, greedy_decode, min_frames_required, toy_alphabet
from signscribe.gloss import GlossSequence, GlossToken, TokenKind, parse_gloss_sequence, render, to_ctc_tokens
from signscribe.llm import StubClient
from signscribe.metrics import LabeledScore, cer, chrf, op_point, roc_auc
from signscribe.pipeline import PipelineConfig, annotate, validate_document
from signscribe.pose import mirror_flip, write_pose_jsonl
from signscribe.training import stratified_split

from test_ctc import brute_force_path_sum, brute_force_viterbi, random_softmax
from test_metrics import pairwise_auc


def _report(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: PASS{suffix}", flush=True)


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    alpha = Alphabet(chars=("A", "B", "|"))  # 4 classes including blank
    start = time.time()
    checked = 0
    while checked < 500:
        T = int(rng.integers(1, 7))
        L = int(rng.integers(0, 4))
        target = list(rng.integers(0, alpha.size - 1, size=L))
        if min_frames_required(target) > T:
            continue
        probs = random_softmax(rng, T, alpha.size)
        scores = FrameScores(probs=probs)
        loss, _ = ctc_loss(scores, target)
        expected = -np.log(brute_force_path_sum(probs, target))
        assert abs(loss - expected) <= 1e-6
        if target:
            result = forced_align(scores, target, alpha)
            best = brute_force_viterbi(probs, target)
            assert abs(result.total_log_score - best) <= 1e-9
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _report(1, "CTC oracle equivalence", f"500 instances in {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    rng = np.random.default_rng(7)
    config = nn.TcnConfig(
        input_dim=5, output_classes=5, num_blocks=2, kernel_size=3,
        block_dilations=((1, 1), (2, 1)), channels=6,
    )
    tcn = nn.Tcn.init(config, rng)
    x = rng.normal(size=(9, 5))
    target = [0, 2, 1]

    def loss_value(backward=False):
        logits = tcn.forward(x)
        value, grad = ctc_loss(FrameScores(probs=nn.softmax(logits.data)), target)
        if backward:
            logits.backward(grad)
        return value

    start = time.time()
    loss_value(backward=True)
    h = 1e-5
    probes = 0
    worst = 0.0
    names = sorted(tcn.params)
    while probes < 50:
        name = names[int(rng.integers(0, len(names)))]
        flat = tcn.params[name].reshape(-1)
        grads = tcn.grads[name].reshape(-1)
        i = int(rng.integers(0, flat.size))
        orig = flat[i]
        flat[i] = orig + h
        up = loss_value()
        flat[i] = orig - h
        down = loss_value()
        flat[i] = orig
        numeric = (up - down) / (2 * h)
        rel = abs(numeric - grads[i]) / max(1e-4, abs(numeric), abs(grads[i]))
        worst = max(worst, rel)
        probes += 1
    elapsed = time.time() - start
    assert worst <= 1e-4, f"max relative error {worst:.2e}"
    assert elapsed < 60.0
    _report(2, "gradient checks", f"50 probes, max rel err {worst:.1e}, {elapsed:.1f}s")


def test_criterion_3_receptive_fields():
    fs = nn.fingerspelling_config(input_dim=42, output_classes=30)
    isr = nn.isr_config(input_dim=102, output_classes=22)
    assert nn.receptive_field(fs) == 35
    assert nn.receptive_field(isr) == 23
    _report(3, "receptive fields", "35 and 23")


def test_criterion_4_greedy_decode_fidelity():
    alpha = toy_alphabet()
    stream = (
        [alpha.pipe_id] + [alpha.index("A")] * 3 + [alpha.blank_id]
        + [alpha.index("B")] * 2 + [alpha.pipe_id]
        + [alpha.index("C")] * 4 + [alpha.pipe_id]
    )

    def one_hot(ids):
        probs = np.full((len(ids), alpha.size), 1e-9)
        for t, i in enumerate(ids):
            probs[t, i] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        return FrameScores(probs=probs)

    assert greedy_decode(one_hot(stream), alpha) == "AB C"

    rng = np.random.default_rng(4)
    letters = [c for c in alpha.chars if c != "|"]
    for _ in range(1000):
        words = [
            "".join(letters[int(rng.integers(0, len(letters)))] for _ in range(int(rng.integers(1, 7))))
            for _ in range(int(rng.integers(0, 4)))
        ]
        ids = to_ctc_tokens(words, alpha)
        expanded = []
        prev = None
        for i in ids:
            if i == prev:
                expanded.append(alpha.blank_id)
            expanded.append(i)
            prev = i
        assert greedy_decode(one_hot(expanded), alpha) == " ".join(words).strip()
    _report(4, "greedy-decode fidelity", "collapse example + 1000 round trips")


def test_criterion_5_synthetic_fingerspelling_task(world, fs_corpus, fs_model, training_times):
    assert world.alphabet.size == 30
    assert len(fs_corpus) == 500
    _, _, test = stratified_split(fs_corpus, np.random.default_rng(0))
    errors = [
        cer(" ".join(s.words), fs_mod.recognize(fs_model, s.poses)) for s in test
    ]
    held_out = float(np.mean(errors))
    assert held_out <= 0.05, f"held-out CER {held_out:.4f}"
    train_time = training_times["fingerspelling"]
    assert train_time <= 600.0, f"training took {train_time:.0f}s"
    digest = nn.weights_digest(fs_model.tcn.state_arrays())[:12]
    best = min(fs_model.history, key=lambda h: h["val_loss"])  # the earliest on a tie, as fit
    _report(
        5, "synthetic fingerspelling",
        f"CER {held_out:.4f}, {len(fs_model.history)} epochs, best epoch {best['epoch']}, "
        f"train {train_time:.0f}s, weights {digest}",
    )


def test_criterion_6_synthetic_isr_task(world, isr_corpus, isr_model):
    _, _, test = stratified_split(isr_corpus, np.random.default_rng(0))
    correct = sum(
        1 for s in test if isr_mod.classify(isr_model, s.poses) == s.gloss
    )
    top1 = correct / len(test)
    assert top1 >= 0.90, f"top-1 {top1:.3f}"

    rng = np.random.default_rng(66)
    signers = syn.make_signers(4, rng)
    mismatches = 0
    for i in range(100):
        gloss = world.vocabulary.glosses[i % len(world.vocabulary.glosses)]
        clip, _ = syn.isr_clip(world, gloss, signers[i % 4], rng, video_id=f"mirror{i}")
        twin = mirror_flip(clip)
        same_label = isr_mod.classify(isr_model, clip) == isr_mod.classify(isr_model, twin)
        same_scores = np.array_equal(
            isr_mod.isr_scores(isr_model, clip).probs,
            isr_mod.isr_scores(isr_model, twin).probs,
        )
        if not (same_label and same_scores):
            mismatches += 1
    assert mismatches == 0, f"{mismatches} mirrored twins diverged"
    two, one = (
        nn.weights_digest(t.state_arrays())[:12] for t in (isr_model.two_hand, isr_model.one_hand)
    )
    _report(
        6, "synthetic ISR",
        f"top-1 {top1:.3f}, 100 exact mirror twins, weights two-hand {two} one-hand {one}",
    )


def _ranking_experiment(world, models):
    rng = np.random.default_rng(1234)
    config = PipelineConfig()
    wins = 0
    for trial in range(100):
        glosses = list(rng.choice(world.vocabulary.glosses, size=3, replace=False))
        word = syn._random_word(rng, world.alphabet)
        tokens = [GlossToken(kind=TokenKind.FINGERSPELLED, text=word)] + [
            GlossToken(kind=TokenKind.GLOSS, text=g) for g in glosses
        ]
        true_seq = GlossSequence(tokens=tuple(tokens))
        video, _ = syn.compose_sentence_video(
            world, true_seq, seed=trial, video_id=f"rank{trial}"
        )
        candidates = [true_seq] + [
            syn.perturb_sequence(true_seq, world, rng) for _ in range(9)
        ]
        table = {str(i + 1): render(c) for i, c in enumerate(candidates)}
        doc = annotate("Rank.", video, models, config, StubClient(translations={"Rank.": table}))
        if doc["candidates"][0]["candidate_index"] == 0:  # ties rank the lower index first
            wins += 1
    return wins


def test_criterion_7_ranking_oracle(world, models):
    wins = _ranking_experiment(world, models)
    assert wins >= 90, f"true sequence won only {wins}/100"
    _report(7, "ranking oracle", f"true sequence first in {wins}/100")


def test_criterion_8_detection_discrimination(world, fs_corpus, fs_model):
    _, _, test = stratified_split(fs_corpus, np.random.default_rng(0))
    rng = np.random.default_rng(77)
    samples = []
    for s in test:
        scores = fs_mod.frame_scores(fs_model, s.poses)
        for det in fs_mod.align_words_scores(scores, list(s.words), world.alphabet):
            samples.append(LabeledScore(score=det.score, label=True))
        decoys = [syn.decoy_word(rng, world.alphabet) for _ in s.words]
        for det in fs_mod.align_words_scores(scores, decoys, world.alphabet):
            samples.append(LabeledScore(score=det.score, label=False))
    auc = roc_auc(samples)
    precision, recall, _ = op_point(samples, 0.3)
    assert auc >= 0.95, f"AUC {auc:.4f}"
    assert precision >= 0.90, f"precision@0.3 {precision:.3f}"
    assert recall >= 0.90, f"recall@0.3 {recall:.3f}"
    _report(
        8,
        "detection discrimination",
        f"AUC {auc:.4f}, P@0.3 {precision:.3f}, R@0.3 {recall:.3f}, n={len(samples)}",
    )


def test_criterion_9_metric_unit_checks():
    assert cer("PLEASANT", "PLESANT") == pytest.approx(0.125, abs=1e-12)
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 51))
        labels = rng.random(n) > 0.5
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.random(n), 2)
        samples = [LabeledScore(float(s), bool(l)) for s, l in zip(scores, labels)]
        assert abs(roc_auc(samples) - pairwise_auc(samples)) <= 1e-9
        checked += 1
    for text in ("", "A", "GLOSS LINE WITH WORDS", "fs-BOB TRAVEL"):
        assert chrf(text, text) == 1.0
    _report(9, "metric unit checks", "CER 0.125, 100 AUC oracle sets, chrf identity")


def test_criterion_10_hermetic_end_to_end(world, model_root, tmp_path):
    seq = parse_gloss_sequence("fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG")
    poses, _ = syn.compose_sentence_video(world, seq, seed=5, video_id="hermetic")
    poses_file = tmp_path / "hermetic.jsonl"
    write_pose_jsonl(poses_file, poses)

    payloads = []
    svgs = []
    for run in ("one", "two"):
        out = tmp_path / f"doc_{run}.json"
        code = main([
            "annotate",
            "--english", "Bob travels to Frick Park with his dog.",
            "--poses", str(poses_file),
            "--model-dir", str(model_root),
            "--out", str(out),
            "--llm", "stub",
        ])
        assert code == 0
        payloads.append(out.read_bytes())
        validate_document(json.loads(payloads[-1]))
        svg_out = tmp_path / f"timeline_{run}.svg"
        assert main([
            "render-timeline", "--doc", str(out), "--rank", "1",
            "--out", str(svg_out),
        ]) == 0
        svgs.append(svg_out.read_bytes())
    assert payloads[0] == payloads[1], "annotation documents differ between runs"
    assert svgs[0] == svgs[1], "rendered timelines differ between runs"

    golden = json.loads(Path("tests/data/doc_fixture.json").read_text(encoding="utf-8"))
    from signscribe.timeline import render_timeline

    rendered = render_timeline(golden, rank=1)
    assert rendered == Path("tests/data/golden_timeline.svg").read_text(encoding="utf-8")
    _report(10, "hermetic end-to-end", "byte-identical documents and SVGs")
