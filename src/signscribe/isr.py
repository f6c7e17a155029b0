"""Isolated sign recognizer: per-frame multi-label sign scores plus ANY and
NULL auxiliary classes, whole-clip classification, and in-context gloss
alignment between fingerspelling anchors.

Alignment places and scores every token on one per-frame objective, which
also ranks the candidates: each token has one row, and a token with no
vocabulary class reads "some sign, but not a known one", P(ANY) x (1 - max
in-vocabulary P).

The model runs two branches over different channel groups (body + both
hands, and body + dominant hand only) and merges them with an elementwise
max over logits, which suppresses spurious cross-hand correlations on
one-handed signs. Inputs are mirrored upstream so the dominant hand is
always presented as the right hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .ctc import FrameScores
from .fingerspelling import WordDetection
from .gloss import GlossToken, TokenKind
from .pose import ISR_ONE_HAND_FEATURES, ISR_TWO_HAND_FEATURES, PoseSequence, VideoFeatures
from .stemming import stem_fixpoint
from .training import CorpusError, fit, stratified_split

ANY_CLASS = "ANY"
NULL_CLASS = "NULL"
_TRACK_EPS = 1e-12
_TIE_TOL = 1e-9  # log-score difference below which two DP choices tie
JITTER = 0.25  # training windows widen by up to this share of the sign span per side


@dataclass(frozen=True)
class SignVocabulary:
    """Ordered gloss names plus the reserved ANY and NULL classes.

    Lookup is case-insensitive, by exact name and else by the Porter stemming
    used for annotation normalization: DAYS resolves to a DAY entry.
    """

    glosses: tuple[str, ...]

    def __post_init__(self):
        upper = [g.upper() for g in self.glosses]
        if len(set(upper)) != len(upper):
            raise ValueError("vocabulary glosses must be unique")
        if ANY_CLASS in upper or NULL_CLASS in upper:
            raise ValueError("ANY and NULL are reserved class names")
        stems: dict[str, int] = {}
        for i, g in enumerate(upper):
            stems.setdefault(stem_fixpoint(g.lower()), i)
        object.__setattr__(self, "_names", {g: i for i, g in enumerate(upper)})
        object.__setattr__(self, "_stems", stems)

    @property
    def size(self) -> int:
        """Model head width: glosses plus ANY and NULL."""
        return len(self.glosses) + 2

    @property
    def any_index(self) -> int:
        return len(self.glosses)

    @property
    def null_index(self) -> int:
        return len(self.glosses) + 1

    def class_index(self, gloss_text: str) -> int | None:
        return self._names.get(gloss_text.upper(), self._stems.get(stem_fixpoint(gloss_text.lower())))


def save_vocabulary(path: str | Path, vocab: SignVocabulary) -> None:
    Path(path).write_text(json.dumps(list(vocab.glosses), indent=2), encoding="utf-8")


def load_vocabulary(path: str | Path) -> SignVocabulary:
    return SignVocabulary(glosses=tuple(json.loads(Path(path).read_text(encoding="utf-8"))))


@dataclass
class IsrModel:
    vocabulary: SignVocabulary
    two_hand: nn.Tcn  # body + dominant + non-dominant
    one_hand: nn.Tcn  # body + dominant
    history: list = field(default_factory=list)


def _features(poses: PoseSequence | VideoFeatures) -> tuple[np.ndarray, np.ndarray]:
    """Two-hand and one-hand branch features of a video."""
    video = VideoFeatures.of(poses)
    return video.rows(ISR_TWO_HAND_FEATURES), video.rows(ISR_ONE_HAND_FEATURES)


def _branch_logits(
    model: IsrModel, poses: PoseSequence | VideoFeatures
) -> tuple[nn.Tensor, nn.Tensor]:
    two, one = _features(poses)
    return model.two_hand.forward(two), model.one_hand.forward(one)


def _merge_branches(two: np.ndarray, one: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elementwise max of the two branches' logits, and the mask of the
    logits the two-hand branch gave. Tie rule: on an exact tie the two-hand
    branch wins, so training sends that logit's gradient to it."""
    take_two = two >= one
    return np.where(take_two, two, one), take_two


def isr_scores(model: IsrModel, poses: PoseSequence | VideoFeatures) -> FrameScores:
    """Per-frame sigmoid scores over the vocabulary plus ANY and NULL.

    The two branches' logits are merged with an elementwise max
    (:func:`_merge_branches`) before the sigmoid; left-dominant input is
    mirrored first, so a video and its mirrored twin produce identical scores.
    """
    logits_two, logits_one = _branch_logits(model, poses)
    merged, _ = _merge_branches(logits_two.data, logits_one.data)
    return FrameScores(probs=nn.sigmoid(merged), kind="sigmoid")


def classify(model: IsrModel, poses: PoseSequence) -> str:
    """Max-pool scores across time and return the best gloss class.

    ANY and NULL are excluded: ANY is not a sign and classification must
    always answer with a vocabulary gloss.
    """
    scores = isr_scores(model, poses)
    pooled = scores.probs.max(axis=0)
    best = int(np.argmax(pooled[: len(model.vocabulary.glosses)]))
    return model.vocabulary.glosses[best]


# --- gloss alignment between fingerspelling anchors -------------------------


@dataclass(frozen=True)
class GlossDetection:
    in_vocabulary: bool
    score: float
    frame: int  # peak frame
    interval: tuple[int, int]  # inclusive


@dataclass(frozen=True)
class AlignEntry:
    """One token awaiting alignment: a gloss, a classifier, or a
    fingerspelled token left without a confident anchor."""

    token_index: int
    token: GlossToken


def _track_for(entry: AlignEntry, vocab: SignVocabulary) -> tuple[int, bool]:
    """Class track index and in-vocabulary flag for an alignment entry."""
    if entry.token.kind is not TokenKind.GLOSS:
        return vocab.any_index, False
    idx = vocab.class_index(entry.token.text)
    if idx is None:
        return vocab.any_index, False
    return idx, True


def _segment_dp(
    tracks: np.ndarray, null_track: np.ndarray, min_dur: int
) -> tuple[float, list[tuple[int, int]]]:
    """Best ordered placement of m segments (rows of ``tracks``) over n frames.

    Frames inside segment i score log(tracks[i]); uncovered frames score
    log(null_track). Segments are contiguous, ordered, non-overlapping, and
    at least ``min_dur`` frames long; gaps may appear anywhere. Returns the
    optimum and each segment's [start, end) local frame interval.

    With ``dp[i, t]`` the best score of segments 1..i inside frames [0, t),
    ``pref`` the row's prefix sums and ``N`` the NULL prefix sums, segment i
    ending at t scores ``max_{s <= t - min_dur} (dp[i-1, s] - pref[s]) +
    pref[t]``, and ``dp[i, t] - N[t]`` is the running max of that score less
    ``N[t]``; each row is therefore two ``np.maximum.accumulate`` passes.

    Tie rule: choices within 1e-9 of each other tie. Backtracking from
    ``(m, n)``, a segment ending at t beats a NULL frame at t - 1 when its
    score is within 1e-9 of the best with that frame NULL, and a segment
    starts at the earliest s within 1e-9 of the best start. Under exact
    ties this picks, among the optimal placements, the latest end of the
    last segment, then its earliest start, then the latest end of the one
    before, and so on.
    """
    m, n = tracks.shape[0], null_track.shape[0]
    log_tracks = np.log(np.maximum(tracks, _TRACK_EPS))
    log_null = np.log(np.maximum(null_track, _TRACK_EPS))
    null_prefix = np.concatenate(([0.0], np.cumsum(log_null)))
    if m == 0:
        return float(null_prefix[n]), []
    if m * min_dur > n:
        raise ValueError("no feasible segmentation")

    prefixes = np.concatenate(
        (np.zeros((m, 1)), np.cumsum(log_tracks, axis=1)), axis=1
    )
    last_start = n - min_dur  # latest frame a segment can start at
    dp = null_prefix  # row i - 1 of the table
    seg_start = np.full((m + 1, n + 1), -1, dtype=np.int64)
    rel = np.full(n + 1, -np.inf)  # segment-ending score less N[t]
    for i in range(1, m + 1):
        pref = prefixes[i - 1]
        run = np.maximum.accumulate(dp[: last_start + 1] - pref[: last_start + 1])
        first = np.searchsorted(run, run - _TIE_TOL)
        rel[min_dur:] = run + pref[min_dur:] - null_prefix[min_dur:]
        best = np.maximum.accumulate(rel)
        dp = best + null_prefix
        ends = rel[min_dur:]
        take = np.isfinite(ends) & (ends >= best[min_dur - 1 : -1] - _TIE_TOL)
        seg_start[i, min_dur:] = np.where(take, first, -1)

    segments: list[tuple[int, int]] = []
    i, t = m, n
    while i > 0:
        while seg_start[i, t] < 0:
            t -= 1
        s = int(seg_start[i, t])
        segments.append((s, t))
        i, t = i - 1, s
    segments.reverse()
    return float(dp[n]), segments


def align_glosses_scores(
    scores: FrameScores,
    vocabulary: SignVocabulary,
    entries: list[AlignEntry],
    anchors: list[tuple[int, WordDetection]],
    min_sign_frames: int = 3,
    memo: dict | None = None,
) -> tuple[dict[int, GlossDetection], list[str], float]:
    """Monotone alignment of gloss tokens within inter-anchor intervals.

    ``entries`` are the non-anchor tokens in sequence order; ``anchors``
    are (token_index, detection) pairs, ordered in both sequence position
    and time. Each entry has one row of frame scores: an in-vocabulary
    gloss its class track; an out-of-vocabulary gloss, a classifier or a
    fingerspelled token P(ANY) x (1 - max in-vocabulary P), "some sign, but
    not a known one". Each interval's entries are placed on their rows by
    :func:`_segment_dp`, with NULL-scored gaps around segments; an entry
    scores its row's mean over its segment and peaks at the row's argmax.

    Also returns the log objective: the log-probability of every frame, on
    the row of the entry that covers it, an anchor's score for an anchored
    word's frames, and NULL for the rest, each floored at ``_TRACK_EPS``.
    It is -inf when an interval is infeasible (more tokens than frames);
    its tokens come back with score 0, the interval is reported in the
    error list, and other intervals are unaffected.

    ``memo`` maps (lo, hi, track of each entry, min_dur) to the interval's
    optimum and the (score, peak frame, interval) of each segment placed
    there, so candidates of one video that share an interval run its DP
    once. It must not outlive ``scores``: pass one dict per video.
    """
    if memo is None:
        memo = {}
    T = scores.num_frames
    starts = [0] + [det.end_frame + 1 for _, det in anchors]
    ends = [det.start_frame - 1 for _, det in anchors] + [T - 1]

    anchor_positions = [idx for idx, _ in anchors]
    groups: list[list[AlignEntry]] = [[] for _ in range(len(anchors) + 1)]
    for entry in entries:
        g = sum(1 for pos in anchor_positions if pos < entry.token_index)
        groups[g].append(entry)

    out: dict[int, GlossDetection] = {}
    errors: list[str] = []
    log_objective = sum(
        (det.end_frame - det.start_frame + 1) * np.log(max(det.score, _TRACK_EPS))
        for _, det in anchors
    )
    for lo, hi, group in zip(starts, ends, groups):
        n = hi - lo + 1
        m = len(group)
        tracks = [_track_for(entry, vocabulary) for entry in group]
        if n < m:
            errors.append(
                f"interval [{lo}, {hi}] has {max(n, 0)} frames for {m} glosses"
            )
            log_objective = -np.inf
            lo_c = max(0, min(lo, T - 1))
            hi_c = max(lo_c, min(hi, T - 1))
            for entry, (_, in_vocab) in zip(group, tracks):
                out[entry.token_index] = GlossDetection(
                    in_vocabulary=in_vocab,
                    score=0.0,
                    frame=lo_c,
                    interval=(lo_c, hi_c),
                )
            continue
        track_ids = tuple(track for track, _ in tracks)
        min_dur = max(1, min(min_sign_frames, n // max(m, 1)))
        key = (lo, hi, track_ids, min_dur)
        if key not in memo:
            window = scores.probs[lo : hi + 1]
            rows = window.T[list(track_ids)]  # a copy, one row per entry
            unknown = np.array(track_ids) == vocabulary.any_index
            if unknown.any():
                rows[unknown] *= 1.0 - window[:, : len(vocabulary.glosses)].max(axis=1, initial=0.0)
            optimum, segments = _segment_dp(rows, window[:, vocabulary.null_index], min_dur)
            memo[key] = optimum, [
                (float(row[s:e].mean()), lo + s + int(np.argmax(row[s:e])), (lo + s, lo + e - 1))
                for row, (s, e) in zip(rows, segments)
            ]
        optimum, placed = memo[key]
        log_objective += optimum
        for entry, (_, in_vocab), (score, frame, interval) in zip(group, tracks, placed):
            out[entry.token_index] = GlossDetection(
                in_vocabulary=in_vocab,
                score=score,
                frame=frame,
                interval=interval,
            )
    return out, errors, float(log_objective)


# --- training ----------------------------------------------------------------


def build_frame_targets(
    vocab: SignVocabulary, num_frames: int, class_index: int, span: tuple[int, int]
) -> np.ndarray:
    """Per-frame multi-label targets for one clip.

    Inside the sign span the sign class and ANY are positive; outside it
    only NULL is positive.
    """
    targets = np.zeros((num_frames, vocab.size))
    s, e = span
    targets[:, vocab.null_index] = 1.0
    targets[s : e + 1, vocab.null_index] = 0.0
    targets[s : e + 1, class_index] = 1.0
    targets[s : e + 1, vocab.any_index] = 1.0
    return targets


def _jitter_window(
    span: tuple[int, int], num_frames: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Expand the extraction window by up to ``JITTER`` of the span per side."""
    s, e = span
    length = e - s + 1
    lead = int(round(rng.uniform(0.0, JITTER) * length))
    tail = int(round(rng.uniform(0.0, JITTER) * length))
    return max(0, s - lead), min(num_frames - 1, e + tail)


def _max_bce(out_two: nn.Tensor, out_one: nn.Tensor, targets: np.ndarray) -> float:
    """BCE of the branches' merged logits (:func:`_merge_branches`); each
    logit's gradient goes back through the branch that won it."""
    merged, take_two = _merge_branches(out_two.data, out_one.data)
    loss, dlogits = nn.bce_with_logits(merged, targets)
    out_two.backward(np.where(take_two, dlogits, 0.0))
    out_one.backward(np.where(take_two, 0.0, dlogits))
    return loss


def train_toy_isr(
    corpus: list,
    vocabulary: SignVocabulary,
    epochs: int = 40,
    seed: int = 0,
    channels: int = 48,
    lr: float = 1e-3,
) -> IsrModel:
    """Train the two-branch recognizer on synthetic isolated-sign clips.

    Per-frame, per-class binary cross-entropy with ANY/NULL targets; clip
    windows are jittered by up to 25% of the sign span per side and batches
    are concatenated in time. Optimised by :func:`training.fit`, like the
    fingerspelling trainer; an epoch's validation score is the mean BCE of
    the whole validation clips, from one :meth:`nn.Tcn.forward_each` pass
    per branch. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    train, val, _test = stratified_split(corpus, rng)
    for s in corpus:
        if vocabulary.class_index(s.gloss) is None:
            raise CorpusError(f"corpus gloss {s.gloss!r} is not in the vocabulary")

    two_cfg = nn.isr_config(
        input_dim=len(ISR_TWO_HAND_FEATURES), output_classes=vocabulary.size, channels=channels
    )
    one_cfg = nn.isr_config(
        input_dim=len(ISR_ONE_HAND_FEATURES), output_classes=vocabulary.size, channels=channels
    )
    two = nn.Tcn.init(two_cfg, rng)
    one = nn.Tcn.init(one_cfg, rng)
    feats = {s.sample_id: _features(s.poses) for s in train + val}
    class_of = {s.sample_id: vocabulary.class_index(s.gloss) for s in train + val}
    # Validation scores whole clips, so its targets never change.
    val_targets = {
        s.sample_id: build_frame_targets(
            vocabulary, len(feats[s.sample_id][0]), class_of[s.sample_id], s.span
        )
        for s in val
    }

    def step(nets, batch) -> float:
        two_net, one_net = nets
        two_rows, one_rows, target_rows = [], [], []
        for s in batch:
            f2, f1 = feats[s.sample_id]
            lo, hi = _jitter_window(s.span, len(f2), rng)
            span_local = (s.span[0] - lo, s.span[1] - lo)
            two_rows.append(f2[lo : hi + 1])
            one_rows.append(f1[lo : hi + 1])
            target_rows.append(
                build_frame_targets(
                    vocabulary, hi - lo + 1, class_of[s.sample_id], span_local
                )
            )
        out_two = two_net.forward(np.concatenate(two_rows))
        out_one = one_net.forward(np.concatenate(one_rows))
        return _max_bce(out_two, out_one, np.concatenate(target_rows))

    def score(nets, samples) -> list[float]:  # each clip's loss, from one pass per network
        two_net, one_net = nets
        out_two = two_net.forward_each([feats[s.sample_id][0] for s in samples])
        out_one = one_net.forward_each([feats[s.sample_id][1] for s in samples])
        return [
            nn.bce_with_logits(_merge_branches(z2, z1)[0], val_targets[s.sample_id])[0]
            for s, z2, z1 in zip(samples, out_two, out_one)
        ]

    (best_two, best_one), history = fit(
        [two, one], train, val, step, score, rng, epochs=epochs, lr=lr
    )
    return IsrModel(
        vocabulary=vocabulary, two_hand=best_two, one_hand=best_one, history=history
    )


# --- persistence --------------------------------------------------------------

VOCAB_FILE = "vocabulary.json"


# Each branch's subdirectory, which is also its IsrModel field.
_BRANCHES = ("two_hand", "one_hand")


def save_isr_model(directory: str | Path, model: IsrModel) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for branch in _BRANCHES:
        nn.save_tcn(directory / branch, getattr(model, branch), {"model_kind": f"isr_{branch}"})
    save_vocabulary(directory / VOCAB_FILE, model.vocabulary)


def load_isr_model(directory: str | Path) -> IsrModel:
    directory = Path(directory)
    vocab = load_vocabulary(directory / VOCAB_FILE)
    tcns = {}
    for branch in _BRANCHES:
        tcns[branch], _ = nn.load_tcn(directory / branch, f"isr_{branch}")
        if tcns[branch].config.output_classes != vocab.size:
            raise nn.WeightsError("model head width does not match the vocabulary size")
    return IsrModel(vocabulary=vocab, **tcns)
