"""CTC loss, greedy decoding, and constrained-Viterbi forced alignment.

All dynamic programs run in log space over the blank-augmented target
lattice (blank between and around every symbol, with skip transitions
allowed only across a blank separating two distinct symbols). The loss
gradient is returned with respect to the pre-softmax logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf
_LOG_EPS = 1e-300  # floor before log of a probability

DEFAULT_SPECIALS = (".", "-", "/", ":", "@", "+", "#")
PIPE = "|"


class CtcError(ValueError):
    pass


class InfeasibleTargetError(CtcError):
    """Target cannot be emitted in the available number of frames."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol table for the character recognizer.

    ``chars`` lists the visible symbols (letters, digits, specials, and the
    word separator ``|``); the blank token implicitly takes the final index.
    """

    chars: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("alphabet symbols must be unique")
        if any(len(c) != 1 for c in self.chars):
            raise ValueError("alphabet symbols must be single characters")
        if PIPE not in self.chars:
            raise ValueError("alphabet must contain the word separator '|'")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.chars)})

    @property
    def size(self) -> int:
        """Number of classes including the blank."""
        return len(self.chars) + 1

    @property
    def blank_id(self) -> int:
        return len(self.chars)

    @property
    def pipe_id(self) -> int:
        return self._index[PIPE]

    def index(self, char: str) -> int:
        return self._index[char]

    def char(self, token_id: int) -> str:
        if token_id == self.blank_id:
            raise KeyError("blank has no character")
        return self.chars[token_id]

    def to_dict(self) -> dict:
        return {"chars": list(self.chars)}

    @classmethod
    def from_dict(cls, data: dict) -> "Alphabet":
        return cls(chars=tuple(data["chars"]))


def default_alphabet(specials: tuple[str, ...] = DEFAULT_SPECIALS) -> Alphabet:
    letters = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))
    digits = tuple(str(d) for d in range(10))
    return Alphabet(chars=letters + digits + tuple(specials) + (PIPE,))


def toy_alphabet() -> Alphabet:
    """Small 30-class alphabet (26 letters, 2 digits, separator, blank)."""
    letters = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))
    return Alphabet(chars=letters + ("0", "1", PIPE))


@dataclass
class FrameScores:
    """Per-frame class probabilities from a model head.

    ``kind`` is "softmax" (rows sum to one; CTC head) or "sigmoid"
    (independent per-class probabilities; sign-recognizer head).
    """

    probs: np.ndarray
    kind: str = "softmax"
    fps: float = 30.0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ValueError("probs must be a (T, classes) matrix")
        if self.kind not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.probs.size and (self.probs.min() < -1e-9 or self.probs.max() > 1 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.kind == "softmax" and self.probs.size:
            sums = self.probs.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-5:
                raise ValueError("softmax rows must sum to 1 within 1e-5")

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class AlignedUnit:
    symbol: str
    score: float
    start_frame: int
    end_frame: int  # inclusive


@dataclass(frozen=True)
class AlignmentResult:
    units: tuple[AlignedUnit, ...]
    total_log_score: float


def _lattice(target: list[int], blank: int) -> tuple[np.ndarray, np.ndarray]:
    """Blank-augmented target and its skip mask.

    ``ext`` puts a blank before, between and after the symbols;
    ``can_skip[s]`` allows the jump from state s - 2 to s, which only a
    symbol differing from the one two states back may take.
    """
    ext = np.empty(2 * len(target) + 1, dtype=np.int64)
    ext[0::2] = blank
    ext[1::2] = target
    can_skip = np.zeros(len(ext), dtype=bool)
    can_skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    return ext, can_skip


def _lattice_pass(
    emit: np.ndarray, can_skip: np.ndarray, viterbi: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Forward recurrence over a (T, S) table of log emissions.

    Each state s at frame t is reached from s (stay), s - 1 (prev) or, where
    ``can_skip[s]``, s - 2 (skip); paths start in state 0 or 1. With
    ``viterbi`` false the three are log-sum-exp'd (the CTC alpha pass);
    with it true the best is kept and ``back`` records it as 0 stay, 1
    prev, 2 skip. Viterbi tie rule: ``np.argmax`` over (stay, prev, skip),
    so stay beats prev beats skip. The beta pass is this same pass over the
    reversed lattice.
    """
    T, S = emit.shape
    table = np.full((T, S), NEG_INF)
    table[0, :2] = emit[0, :2]
    back = np.zeros((T, S), dtype=np.int8) if viterbi else None
    cols = np.arange(S)
    for t in range(1, T):
        stay = table[t - 1]
        prev = np.concatenate(([NEG_INF], stay[:-1]))
        skip = np.concatenate(([NEG_INF, NEG_INF], stay[:-2]))
        skip = np.where(can_skip, skip, NEG_INF)
        if viterbi:
            choices = np.stack([stay, prev, skip])
            back[t] = np.argmax(choices, axis=0)
            table[t] = choices[back[t], cols] + emit[t]
        else:
            table[t] = _logsumexp3(stay, prev, skip) + emit[t]
    return table, back


def min_frames_required(target: list[int]) -> int:
    """Shortest emission: one frame per symbol plus a blank between repeats."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _check_target(scores: FrameScores, target: list[int]) -> None:
    if scores.kind != "softmax":
        raise CtcError("CTC requires softmax-tagged scores")
    blank = scores.probs.shape[1] - 1
    if any(t < 0 or t >= blank for t in target):
        raise CtcError("target contains an id outside the non-blank classes")
    if min_frames_required(target) > scores.num_frames:
        raise InfeasibleTargetError(
            f"target needs at least {min_frames_required(target)} frames, "
            f"got {scores.num_frames}"
        )


def ctc_loss(scores: FrameScores, target: list[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the target plus its gradient w.r.t. logits.

    The gradient assumes ``scores.probs`` came from a softmax over logits;
    by the standard posterior identity dL/dz[t,k] = y[t,k] - gamma[t,k]
    where gamma is the symbol-occupancy posterior.
    """
    _check_target(scores, target)
    y = scores.probs
    T, C = y.shape
    blank = C - 1
    if not target:
        # Only the all-blank path remains.
        logs = np.log(np.maximum(y[:, blank], _LOG_EPS))
        loss = -float(logs.sum())
        grad = y.copy()
        grad[:, blank] -= 1.0
        return loss, grad

    ext, can_skip = _lattice(list(target), blank)
    S = len(ext)
    emit = np.log(np.maximum(y, _LOG_EPS))[:, ext]
    alpha, _ = _lattice_pass(emit, can_skip, viterbi=False)
    log_p = _logsumexp2(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    if not np.isfinite(log_p):
        raise InfeasibleTargetError("no feasible path for target")
    # beta: the alpha pass over the reversed lattice, reversed back.
    _, rev_skip = _lattice(list(target)[::-1], blank)
    rev_beta, _ = _lattice_pass(emit[::-1, ::-1], rev_skip, viterbi=False)
    beta = rev_beta[::-1, ::-1]

    # gamma[t, k]: posterior that class k is emitted at frame t.
    gamma = np.zeros((T, C))
    with np.errstate(invalid="ignore"):
        ab = alpha + beta - emit  # emission counted once
    for s in range(S):
        contrib = np.exp(ab[:, s] - log_p)
        gamma[:, ext[s]] += np.where(np.isfinite(ab[:, s]), contrib, 0.0)
    grad = y - gamma
    return -float(log_p), grad


def _logsumexp2(a, b):
    m = np.maximum(a, b)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = m_safe + np.log(
            np.exp(np.where(np.isfinite(a), a - m_safe, NEG_INF))
            + np.exp(np.where(np.isfinite(b), b - m_safe, NEG_INF))
        )
    return np.where(np.isfinite(m), out, NEG_INF)


def _logsumexp3(a, b, c):
    return _logsumexp2(_logsumexp2(a, b), c)


def greedy_decode(scores: FrameScores, alphabet: Alphabet) -> str:
    """Best-path decode: argmax, collapse repeats, drop blanks, pipes to spaces."""
    if scores.kind != "softmax":
        raise CtcError("greedy decode requires softmax-tagged scores")
    ids = np.argmax(scores.probs, axis=1)
    out: list[str] = []
    prev = -1
    for i in ids:
        if i != prev and i != alphabet.blank_id:
            out.append(" " if i == alphabet.pipe_id else alphabet.char(int(i)))
        prev = i
    return " ".join("".join(out).split())


def forced_align(
    scores: FrameScores, target: list[int], alphabet: Alphabet
) -> AlignmentResult:
    """Viterbi alignment of a known token sequence against frame scores.

    Each non-blank target symbol receives the contiguous frame span it
    occupies on the best path and a score equal to its mean per-frame
    probability over that span.
    """
    _check_target(scores, target)
    y = scores.probs
    T, C = y.shape
    blank = C - 1
    logy = np.log(np.maximum(y, _LOG_EPS))

    if not target:
        total = float(logy[:, blank].sum())
        return AlignmentResult(units=(), total_log_score=total)

    ext, can_skip = _lattice(list(target), blank)
    S = len(ext)
    delta, back = _lattice_pass(logy[:, ext], can_skip, viterbi=True)

    final = max((S - 1, S - 2), key=lambda s: delta[T - 1, s])
    total = float(delta[T - 1, final])
    if not np.isfinite(total):
        raise InfeasibleTargetError("no feasible path for target")

    path = np.empty(T, dtype=np.int64)
    s = final
    for t in range(T - 1, -1, -1):
        path[t] = s
        s -= int(back[t, s])

    units: list[AlignedUnit] = []
    for occ in range(len(target)):
        state = 2 * occ + 1
        frames = np.nonzero(path == state)[0]
        sym = target[occ]
        units.append(
            AlignedUnit(
                symbol=alphabet.char(sym),
                score=float(y[frames, sym].mean()),
                start_frame=int(frames[0]),
                end_frame=int(frames[-1]),
            )
        )
    return AlignmentResult(units=tuple(units), total_log_score=total)


class EmptyWordError(ValueError):
    pass


def aggregate_words(align: AlignmentResult) -> AlignmentResult:
    """Collapse a character alignment into per-word units.

    Words are delimited by ``|`` separator units, which are structural and
    contribute neither to scores nor to word intervals. A word's score is
    the arithmetic mean of its characters' scores; its interval runs from
    the first character's start to the last character's end.
    """
    words: list[AlignedUnit] = []
    current: list[AlignedUnit] = []

    def flush():
        if not current:
            return
        words.append(
            AlignedUnit(
                symbol="".join(u.symbol for u in current),
                score=float(np.mean([u.score for u in current])),
                start_frame=current[0].start_frame,
                end_frame=current[-1].end_frame,
            )
        )
        current.clear()

    saw_separator = False
    for unit in align.units:
        if unit.symbol == PIPE:
            if saw_separator and not current:
                raise EmptyWordError("empty word between separators")
            flush()
            saw_separator = True
        else:
            current.append(unit)
    flush()
    return AlignmentResult(units=tuple(words), total_log_score=align.total_log_score)
