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
_SHIFT_FLOOR = -1e300  # below any finite lattice log value

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
    """Forward recurrence over a stack of lattices, all rows in one ``for t`` loop.

    ``emit`` is a (T, N, S) table of log emissions for N lattices and
    ``can_skip`` their (N, S) skip masks. Each state s of row n at frame t
    is reached from s (stay), s - 1 (prev) or, where ``can_skip[n, s]``,
    s - 2 (skip); paths start in state 0 or 1. With ``viterbi`` false the
    three are log-sum-exp'd, stay with prev first and then with skip (the
    CTC alpha pass); with it true the best is kept, and once the table is
    done ``back`` records each choice as 0 stay, 1 prev, 2 skip. Viterbi tie
    rule: stay beats prev beats skip, as ``np.argmax`` over (stay, prev,
    skip) would pick; prev wins only when strictly greater than stay, and
    skip only when strictly greater than both. The beta pass is this same
    pass over the reversed lattice, so ``ctc_losses`` runs every alpha and
    beta row of a batch in one pass.

    Padding rule: a lattice shorter than S is padded at its end with -inf
    emissions and no skips. States only feed later states, so the padding
    stays -inf and leaves the real states' values unchanged: every row gets
    the same bytes it would get alone with N = 1. Frames only feed later
    frames, so a row with fewer than T frames may be padded at its end with
    any emissions and read up to its own length.
    """
    T, N, S = emit.shape
    # Two -inf columns ahead of state 0 make prev and skip plain views.
    table = np.full((T, N, S + 2), NEG_INF)
    table[0, :, 2:4] = emit[0, :, :2]
    skip_mask = np.where(can_skip, 0.0, NEG_INF)
    with np.errstate(divide="ignore"):
        for t in range(1, T):
            before = table[t - 1]
            stay, prev, skip = before[:, 2:], before[:, 1:-1], before[:, :-2] + skip_mask
            out = table[t, :, 2:]
            if viterbi:
                np.maximum(stay, prev, out=out)
                np.maximum(out, skip, out=out)
                np.add(out, emit[t], out=out)
            else:
                np.add(_logaddexp(_logaddexp(stay, prev), skip), emit[t], out=out)
    if not viterbi:
        return table[:, :, 2:], None
    # Every frame's choices at once, from the finished table. Strict > keeps
    # the earlier choice on a tie: stay, then prev, then skip.
    before = table[:-1]
    stay, prev, skip = before[..., 2:], before[..., 1:-1], before[..., :-2] + skip_mask
    back = np.zeros((T, N, S), dtype=np.int8)
    np.greater(prev, stay, out=back[1:])
    np.copyto(back[1:], 2, where=skip > np.maximum(stay, prev))
    return table[:, :, 2:], back


def _logaddexp(a, b):
    """log(exp(a) + exp(b)) for log values that are finite or -inf.

    Shifted by the larger operand; when both are -inf the shift is any
    finite value and the result is log(0) = -inf, so callers ignore divide
    warnings. Deliberately not ``np.logaddexp``: training is sensitive to
    its last-bit differences.
    """
    m = np.maximum(np.maximum(a, b), _SHIFT_FLOOR)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


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
    """Negative log-likelihood of the target plus its gradient w.r.t. logits:
    the one-pair case of :func:`ctc_losses`."""
    return ctc_losses([scores], [target])[0]


def ctc_losses(
    scores_list: list[FrameScores], targets: list[list[int]]
) -> list[tuple[float, np.ndarray]]:
    """:func:`ctc_loss` of each (scores, target) pair, all lattices in one pass.

    The gradient assumes ``scores.probs`` came from a softmax over logits;
    by the standard posterior identity dL/dz[t,k] = y[t,k] - gamma[t,k]
    where gamma is the symbol-occupancy posterior. Each non-empty target
    puts two rows into one stacked ``_lattice_pass``: its lattice, whose
    table is alpha, and its reversed lattice (reversed frames, states and
    skip mask), whose table read backwards is beta. Rows with fewer frames
    or states are padded at the end, and each is read only up to its own
    size: by the pass's padding rule every pair gets the bytes it would get
    alone. An empty target has only the all-blank path.
    """
    for scores, target in zip(scores_list, targets, strict=True):
        _check_target(scores, target)
    lattices = []  # (log emissions, lattice) of each non-empty target, in order
    rows = []  # (log emissions, skip mask): alpha and beta row of each lattice
    for scores, target in zip(scores_list, targets):
        if target:
            blank = scores.probs.shape[1] - 1
            ext, can_skip = _lattice(list(target), blank)
            _, rev_skip = _lattice(list(target)[::-1], blank)
            emit = np.log(np.maximum(scores.probs, _LOG_EPS))[:, ext]
            lattices.append((emit, ext))
            rows += [(emit, can_skip), (emit[::-1, ::-1], rev_skip)]
    if rows:
        stacked = np.full(
            (max(e.shape[0] for e, _ in rows), len(rows), max(len(k) for _, k in rows)), NEG_INF
        )
        skips = np.zeros(stacked.shape[1:], dtype=bool)
        for n, (e, k) in enumerate(rows):
            stacked[: len(e), n, : len(k)] = e
            skips[n, : len(k)] = k
        table, _ = _lattice_pass(stacked, skips, viterbi=False)

    out = []
    pending = enumerate(lattices)
    for scores, target in zip(scores_list, targets):
        y = scores.probs
        T, C = y.shape
        if not target:
            grad = y.copy()
            grad[:, -1] -= 1.0
            out.append((-float(np.log(np.maximum(y[:, -1], _LOG_EPS)).sum()), grad))
            continue
        j, (emit, ext) = next(pending)
        S = len(ext)
        alpha = table[:T, 2 * j, :S]
        beta = table[T - 1 :: -1, 2 * j + 1, S - 1 :: -1]
        # The paths that end in the last symbol or the blank after it.
        with np.errstate(divide="ignore"):
            log_p = _logaddexp(alpha[-1, -1], alpha[-1, -2])
        if not np.isfinite(log_p):
            raise InfeasibleTargetError("no feasible path for target")
        # gamma[t, k]: posterior that class k is emitted at frame t, summed over
        # the states of class k in state order; -inf cells add exp(-inf) = 0.
        contrib = np.exp(alpha + beta - emit - log_p)  # emission counted once
        gamma = np.zeros((T, C))
        np.add.at(gamma, (slice(None), ext), contrib)
        out.append((-float(log_p), y - gamma))
    return out


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
    delta, back = _lattice_pass(logy[:, None, ext], can_skip[None], viterbi=True)
    delta, back = delta[:, 0], back[:, 0]

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
