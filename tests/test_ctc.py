"""CTC loss, decoding, and forced alignment against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe.ctc import (
    AlignedUnit,
    AlignmentResult,
    Alphabet,
    CtcError,
    EmptyWordError,
    FrameScores,
    InfeasibleTargetError,
    aggregate_words,
    ctc_loss,
    default_alphabet,
    forced_align,
    greedy_decode,
    min_frames_required,
    toy_alphabet,
)
from signscribe.gloss import to_ctc_tokens


def collapse(path, blank):
    out = []
    prev = -1
    for c in path:
        if c != prev and c != blank:
            out.append(c)
        prev = c
    return tuple(out)


def brute_force_path_sum(probs, target):
    """Independent oracle: enumerate every frame-label path."""
    T, C = probs.shape
    blank = C - 1
    total = 0.0
    for path in itertools.product(range(C), repeat=T):
        if collapse(path, blank) == tuple(target):
            p = 1.0
            for t, c in enumerate(path):
                p *= probs[t, c]
            total += p
    return total


def brute_force_viterbi(probs, target):
    T, C = probs.shape
    blank = C - 1
    best = -np.inf
    for path in itertools.product(range(C), repeat=T):
        if collapse(path, blank) == tuple(target):
            best = max(best, sum(np.log(probs[t, c]) for t, c in enumerate(path)))
    return best


def random_softmax(rng, T, C):
    z = rng.normal(size=(T, C))
    return np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)


def small_alphabet(num_classes):
    """Alphabet with num_classes total classes (blank included)."""
    chars = tuple("ABCDE"[: num_classes - 2]) + ("|",)
    return Alphabet(chars=chars)


def one_hot_scores(ids, size, fps=30.0):
    probs = np.full((len(ids), size), 1e-9)
    for t, i in enumerate(ids):
        probs[t, i] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return FrameScores(probs=probs, fps=fps)


class TestAlphabet:
    def test_default_composition(self):
        alpha = default_alphabet()
        assert alpha.size == 26 + 10 + 7 + 1 + 1
        assert alpha.blank_id == alpha.size - 1
        assert alpha.index("|") == alpha.pipe_id

    def test_bijection(self):
        alpha = default_alphabet()
        for i, ch in enumerate(alpha.chars):
            assert alpha.index(ch) == i
            assert alpha.char(i) == ch

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(chars=("A", "A", "|"))

    def test_toy_is_30_classes(self):
        assert toy_alphabet().size == 30


class TestCtcLoss:
    def test_certain_single_symbol(self):
        # T=1, p(A)=1 -> loss 0
        probs = np.array([[1.0 - 1e-12, 1e-12]])
        probs /= probs.sum(axis=1, keepdims=True)
        loss, _ = ctc_loss(FrameScores(probs=probs), [0])
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_frames(self):
        # Paths AA, A-, -A collapse to "A": 3 of 4 paths -> -ln(0.75)
        probs = np.full((2, 2), 0.5)
        loss, _ = ctc_loss(FrameScores(probs=probs), [0])
        assert loss == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 60:
            T = int(rng.integers(1, 7))
            C = int(rng.integers(2, 5))
            L = int(rng.integers(0, 4))
            target = list(rng.integers(0, C - 1, size=L))
            if min_frames_required(target) > T:
                continue
            probs = random_softmax(rng, T, C)
            loss, _ = ctc_loss(FrameScores(probs=probs), target)
            expected = -np.log(brute_force_path_sum(probs, target))
            assert loss == pytest.approx(expected, abs=1e-6)
            checked += 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(5):
            T, C = 5, 3
            target = [0, 1]
            z = rng.normal(size=(T, C))

            def loss_of(logits):
                p = np.exp(logits - logits.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                return ctc_loss(FrameScores(probs=p), target)[0]

            _, grad = ctc_loss(
                FrameScores(probs=np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)),
                target,
            )
            for t in range(T):
                for c in range(C):
                    zp, zm = z.copy(), z.copy()
                    zp[t, c] += h
                    zm[t, c] -= h
                    numeric = (loss_of(zp) - loss_of(zm)) / (2 * h)
                    assert grad[t, c] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_infeasible_target_distinct_error(self):
        probs = np.full((1, 3), 1 / 3)
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(FrameScores(probs=probs), [0, 1])

    def test_repeat_needs_blank_frame(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(FrameScores(probs=probs), [0, 0])

    def test_sigmoid_scores_rejected(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(CtcError):
            ctc_loss(FrameScores(probs=probs, kind="sigmoid"), [0])


class TestGreedyDecode:
    def test_collapse_example(self):
        alpha = toy_alphabet()
        ids = (
            [alpha.pipe_id]
            + [alpha.index("A")] * 3
            + [alpha.blank_id]
            + [alpha.index("B")] * 2
            + [alpha.pipe_id]
            + [alpha.index("C")] * 4
            + [alpha.pipe_id]
        )
        assert greedy_decode(one_hot_scores(ids, alpha.size), alpha) == "AB C"

    def test_all_blank(self):
        alpha = toy_alphabet()
        ids = [alpha.blank_id] * 5
        assert greedy_decode(one_hot_scores(ids, alpha.size), alpha) == ""

    def test_blank_separates_repeats(self):
        alpha = toy_alphabet()
        ids = [alpha.index("A"), alpha.blank_id, alpha.index("A")]
        assert greedy_decode(one_hot_scores(ids, alpha.size), alpha) == "AA"

    @given(st.lists(st.text(alphabet="ABCXYZ01", min_size=1, max_size=6), max_size=4))
    @settings(max_examples=200)
    def test_round_trip_through_one_hot(self, words):
        alpha = toy_alphabet()
        ids = to_ctc_tokens(words, alpha)
        expanded = []
        prev = None
        for i in ids:
            if i == prev:
                expanded.append(alpha.blank_id)
            expanded.append(i)
            prev = i
        decoded = greedy_decode(one_hot_scores(expanded, alpha.size), alpha)
        assert decoded == " ".join(w.upper() for w in words).strip()


class TestForcedAlign:
    def test_one_hot_forcing(self):
        alpha = small_alphabet(4)  # A, B, |, blank
        ids = [alpha.index("A"), alpha.blank_id, alpha.index("B")]
        scores = one_hot_scores(ids, alpha.size)
        result = forced_align(scores, [alpha.index("A"), alpha.index("B")], alpha)
        a, b = result.units
        assert (a.symbol, a.start_frame, a.end_frame) == ("A", 0, 0)
        assert a.score == pytest.approx(1.0, abs=1e-6)
        assert (b.symbol, b.start_frame, b.end_frame) == ("B", 2, 2)

    def test_best_path_matches_exhaustive_viterbi(self):
        rng = np.random.default_rng(55)
        alpha = small_alphabet(4)
        checked = 0
        while checked < 40:
            T = int(rng.integers(1, 7))
            L = int(rng.integers(1, 4))
            target = list(rng.integers(0, alpha.size - 2, size=L))
            if min_frames_required(target) > T:
                continue
            probs = random_softmax(rng, T, alpha.size)
            result = forced_align(FrameScores(probs=probs), target, alpha)
            expected = brute_force_viterbi(probs, target)
            assert result.total_log_score == pytest.approx(expected, abs=1e-9)
            # Viterbi max never exceeds the marginal path sum.
            total = brute_force_path_sum(probs, target)
            assert np.exp(result.total_log_score) <= total + 1e-12
            checked += 1

    def test_uniform_single_symbol(self):
        # 2 frames, uniform over 2 classes: hand Viterbi on the 2x2 lattice
        # gives every valid path probability 0.25; the symbol's mean
        # per-frame probability over its span is 0.5 regardless of tie-break.
        alpha = Alphabet(chars=("|",))
        probs = np.full((2, 2), 0.5)
        result = forced_align(FrameScores(probs=probs), [0], alpha)
        (unit,) = result.units
        assert unit.score == pytest.approx(0.5, abs=1e-12)
        assert result.total_log_score == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_spans_are_ordered_and_disjoint(self):
        rng = np.random.default_rng(17)
        alpha = small_alphabet(5)
        for _ in range(20):
            T = 12
            target = list(rng.integers(0, 3, size=4))
            if min_frames_required(target) > T:
                continue
            probs = random_softmax(rng, T, alpha.size)
            result = forced_align(FrameScores(probs=probs), target, alpha)
            for u, v in zip(result.units, result.units[1:]):
                assert u.start_frame <= u.end_frame
                assert u.end_frame < v.start_frame


class TestAggregateWords:
    def _unit(self, sym, score, start, end):
        return AlignedUnit(symbol=sym, score=score, start_frame=start, end_frame=end)

    def test_mean_and_interval(self):
        align = AlignmentResult(
            units=(
                self._unit("|", 0.9, 8, 9),
                self._unit("H", 0.8, 10, 12),
                self._unit("I", 0.6, 13, 15),
                self._unit("|", 0.9, 16, 17),
            ),
            total_log_score=-1.0,
        )
        (word,) = aggregate_words(align).units
        assert word.symbol == "HI"
        assert word.score == pytest.approx(0.7)
        assert (word.start_frame, word.end_frame) == (10, 15)

    def test_single_char_word(self):
        align = AlignmentResult(units=(self._unit("A", 0.4, 3, 5),), total_log_score=0.0)
        (word,) = aggregate_words(align).units
        assert (word.symbol, word.score) == ("A", 0.4)
        assert (word.start_frame, word.end_frame) == (3, 5)

    def test_two_words_disjoint_ordered(self):
        align = AlignmentResult(
            units=(
                self._unit("|", 1, 0, 0),
                self._unit("A", 1, 1, 2),
                self._unit("|", 1, 3, 3),
                self._unit("B", 1, 4, 5),
                self._unit("|", 1, 6, 6),
            ),
            total_log_score=0.0,
        )
        words = aggregate_words(align).units
        assert [w.symbol for w in words] == ["A", "B"]
        assert words[0].end_frame < words[1].start_frame

    def test_empty_word_rejected(self):
        align = AlignmentResult(
            units=(self._unit("|", 1, 0, 0), self._unit("|", 1, 1, 1)),
            total_log_score=0.0,
        )
        with pytest.raises(EmptyWordError):
            aggregate_words(align)


# --- equivalence with the hand-written recurrences ----------------------------
# The three dynamic programs below are the loops ctc_loss and forced_align ran
# before they shared one lattice pass; the shared pass must reproduce them bit
# for bit, ties included.

NEG_INF = -np.inf


def _ref_lse2(a, b):
    m = np.maximum(a, b)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = m_safe + np.log(
            np.exp(np.where(np.isfinite(a), a - m_safe, NEG_INF))
            + np.exp(np.where(np.isfinite(b), b - m_safe, NEG_INF))
        )
    return np.where(np.isfinite(m), out, NEG_INF)


def _ref_lse3(a, b, c):
    return _ref_lse2(_ref_lse2(a, b), c)


def _ref_augment(target, blank):
    ext = np.empty(2 * len(target) + 1, dtype=np.int64)
    ext[0::2] = blank
    ext[1::2] = target
    can_skip = np.zeros(len(ext), dtype=bool)
    can_skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    return ext, can_skip


def _ref_check(y, target):
    if any(t < 0 or t >= y.shape[1] - 1 for t in target):
        raise CtcError("target contains an id outside the non-blank classes")
    if min_frames_required(target) > y.shape[0]:
        raise InfeasibleTargetError(
            f"target needs at least {min_frames_required(target)} frames, got {y.shape[0]}"
        )


def ref_ctc_loss(y, target):
    _ref_check(y, target)
    T, C = y.shape
    blank = C - 1
    if not target:
        logs = np.log(np.maximum(y[:, blank], 1e-300))
        grad = y.copy()
        grad[:, blank] -= 1.0
        return -float(logs.sum()), grad
    ext, can_skip = _ref_augment(target, blank)
    S = len(ext)
    logy = np.log(np.maximum(y, 1e-300))
    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = logy[0, ext[0]]
    alpha[0, 1] = logy[0, ext[1]]
    for t in range(1, T):
        stay = alpha[t - 1]
        prev = np.concatenate(([NEG_INF], alpha[t - 1, :-1]))
        skip = np.concatenate(([NEG_INF, NEG_INF], alpha[t - 1, :-2]))
        skip = np.where(can_skip, skip, NEG_INF)
        alpha[t] = _ref_lse3(stay, prev, skip) + logy[t, ext]
    log_p = _ref_lse2(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    if not np.isfinite(log_p):
        raise InfeasibleTargetError("no feasible path for target")
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = logy[T - 1, ext[S - 1]]
    beta[T - 1, S - 2] = logy[T - 1, ext[S - 2]]
    skip_fwd = np.concatenate((can_skip[2:], [False, False]))
    for t in range(T - 2, -1, -1):
        stay = beta[t + 1]
        nxt = np.concatenate((beta[t + 1, 1:], [NEG_INF]))
        skp = np.concatenate((beta[t + 1, 2:], [NEG_INF, NEG_INF]))
        skp = np.where(skip_fwd, skp, NEG_INF)
        beta[t] = _ref_lse3(stay, nxt, skp) + logy[t, ext]
    gamma = np.zeros((T, C))
    with np.errstate(invalid="ignore"):
        ab = alpha + beta - logy[:, ext]
    for s in range(S):
        contrib = np.exp(ab[:, s] - log_p)
        gamma[:, ext[s]] += np.where(np.isfinite(ab[:, s]), contrib, 0.0)
    return -float(log_p), y - gamma


def ref_forced_align(y, target):
    """(units as (symbol id, start, end, score) tuples, total log score)."""
    _ref_check(y, target)
    T, C = y.shape
    blank = C - 1
    logy = np.log(np.maximum(y, 1e-300))
    if not target:
        return [], float(logy[:, blank].sum())
    ext, can_skip = _ref_augment(target, blank)
    S = len(ext)
    delta = np.full((T, S), NEG_INF)
    back = np.zeros((T, S), dtype=np.int8)
    delta[0, 0] = logy[0, ext[0]]
    delta[0, 1] = logy[0, ext[1]]
    for t in range(1, T):
        stay = delta[t - 1]
        prev = np.concatenate(([NEG_INF], delta[t - 1, :-1]))
        skip = np.concatenate(([NEG_INF, NEG_INF], delta[t - 1, :-2]))
        skip = np.where(can_skip, skip, NEG_INF)
        choices = np.stack([stay, prev, skip])
        best = np.argmax(choices, axis=0)
        back[t] = best
        delta[t] = choices[best, np.arange(S)] + logy[t, ext]
    final = max([S - 1, S - 2], key=lambda s: delta[T - 1, s])
    total = float(delta[T - 1, final])
    path = np.empty(T, dtype=np.int64)
    s = final
    for t in range(T - 1, -1, -1):
        path[t] = s
        s -= int(back[t, s])
    units = []
    for occ, sym in enumerate(target):
        frames = np.nonzero(path == 2 * occ + 1)[0]
        units.append((sym, int(frames[0]), int(frames[-1]), float(y[frames, sym].mean())))
    return units, total


def _equivalence_case(rng):
    """Random (probs, target): tied rows, empty and repeated targets, infeasible lengths."""
    T = int(rng.integers(1, 13))
    C = int(rng.integers(2, 7))
    kind = rng.integers(3)
    if kind == 0:
        probs = random_softmax(rng, T, C)
    elif kind == 1:  # small integer counts: many exact ties and some zeros
        counts = rng.integers(0, 3, size=(T, C)).astype(float)
        counts[counts.sum(axis=1) == 0, -1] = 1.0
        probs = counts / counts.sum(axis=1, keepdims=True)
    else:  # uniform rows: every path ties
        probs = np.full((T, C), 1.0 / C)
    L = int(rng.integers(0, T + 2))
    symbols = int(rng.integers(1, C)) if C > 1 else 1
    target = [int(x) for x in rng.integers(0, symbols, size=L)]
    return probs, target


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CtcError as exc:
        return type(exc), str(exc)


class TestLatticeEquivalence:
    CASES = 1500

    def test_ctc_loss_bit_identical(self):
        rng = np.random.default_rng(2006)
        kinds = {"empty": 0, "repeat": 0, "infeasible": 0}
        for _ in range(self.CASES):
            probs, target = _equivalence_case(rng)
            got = _outcome(ctc_loss, FrameScores(probs=probs), target)
            want = _outcome(ref_ctc_loss, probs, target)
            if isinstance(want[0], type):
                kinds["infeasible"] += 1
                assert got == want
                continue
            kinds["empty"] += not target
            kinds["repeat"] += any(a == b for a, b in zip(target, target[1:]))
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
        assert min(kinds.values()) >= 20, kinds

    def test_forced_align_bit_identical(self):
        rng = np.random.default_rng(1944)
        feasible = 0
        for _ in range(self.CASES):
            probs, target = _equivalence_case(rng)
            C = probs.shape[1]
            alpha = Alphabet(chars=tuple("ABCDE"[: C - 2]) + ("|",))
            got = _outcome(forced_align, FrameScores(probs=probs), target, alpha)
            want = _outcome(ref_forced_align, probs, target)
            if isinstance(want[0], type):
                assert got == want
                continue
            feasible += 1
            units, total = want
            assert got.total_log_score == total
            assert [
                (alpha.index(u.symbol), u.start_frame, u.end_frame, u.score) for u in got.units
            ] == units
        assert feasible >= self.CASES // 2
