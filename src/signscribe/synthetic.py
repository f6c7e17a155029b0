"""Desk-scale synthetic signing data.

Each fingerspelling symbol and each vocabulary sign gets a fixed random
keypoint template; clips are rendered by holding a template for a few
frames with linear coarticulation blending at segment boundaries, Gaussian
jitter, per-signer offset/scale, and quantization of all coordinates to a
1/1024 grid (so mirroring x -> 1 - x is exact in floating point). A clip
is written frame by frame straight into a :class:`PoseSequence`'s arrays.

The same world object backs the fingerspelling corpus, the isolated-sign
corpus, and the sentence-video composer used for end-to-end tests, so a
model trained on a world can score videos composed from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import PIPE, Alphabet, toy_alphabet
from .gloss import FINGERSPELLED_KINDS, GlossSequence, GlossToken, TokenKind
from .isr import SignVocabulary
from .pose import HAND_JOINTS, PoseSequence

DEFAULT_WORLD_SEED = 1207
GRID = 1024.0
_FPS = 30.0
_NOISE = 0.004  # keypoint jitter, in normalized image units

TOY_VOCAB = (
    "CAT", "DOG", "HOUSE", "TRAVEL", "TO", "PARK", "WITH", "WALK", "HAPPY",
    "SCHOOL", "BOOK", "WATER", "EAT", "DRINK", "SLEEP", "WORK", "PLAY",
    "FRIEND", "FAMILY", "LOVE",
)

_REST_BODY = {
    "nose": (0.50, 0.18),
    "left_shoulder": (0.40, 0.34),
    "right_shoulder": (0.60, 0.34),
    "left_elbow": (0.36, 0.50),
    "right_elbow": (0.64, 0.50),
    "left_wrist": (0.38, 0.62),
    "right_wrist": (0.62, 0.62),
    "left_hip": (0.44, 0.78),
    "right_hip": (0.56, 0.78),
}
_JOINTS = tuple(_REST_BODY)
_REST_POINTS = np.array(list(_REST_BODY.values()))  # (J, 2), in _JOINTS order
_RIGHT_WRIST = _JOINTS.index("right_wrist")

_RIGHT_HAND_CENTER = np.array([0.64, 0.58])
_LEFT_HAND_CENTER = np.array([0.36, 0.60])


def quantize(coords: np.ndarray) -> np.ndarray:
    """Snap coordinates to the 1/1024 grid (keeps mirroring exact)."""
    return np.clip(np.round(coords * GRID) / GRID, 0.0, 1.0)


@dataclass(frozen=True)
class SignTemplate:
    dominant: np.ndarray  # (21, 2) offsets around the right-hand center
    non_dominant: np.ndarray  # (21, 2) offsets around the left-hand center
    wrist_shift: np.ndarray  # (2,) body wrist displacement while signing


@dataclass
class SyntheticWorld:
    seed: int
    alphabet: Alphabet
    vocabulary: SignVocabulary
    hand_templates: dict[str, np.ndarray]  # fs symbol -> (21, 2) offsets
    rest_hand: np.ndarray  # (21, 2) offsets (also the "|" pause shape)
    sign_templates: dict[str, SignTemplate]


def make_world(seed: int = DEFAULT_WORLD_SEED) -> SyntheticWorld:
    alphabet = toy_alphabet()
    rng = np.random.default_rng(seed)
    rest_hand = rng.uniform(-0.05, 0.05, size=(HAND_JOINTS, 2))
    hand_templates: dict[str, np.ndarray] = {}
    for ch in alphabet.chars:
        if ch == PIPE:
            hand_templates[ch] = rest_hand
        else:
            hand_templates[ch] = rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2))
    # Sign handshapes share the letter shapes' spread; with per-video
    # normalization a wider amplitude would distort every other feature.
    sign_templates: dict[str, SignTemplate] = {}
    for name in TOY_VOCAB:
        sign_templates[name] = SignTemplate(
            dominant=rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2)),
            non_dominant=rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2)),
            wrist_shift=rng.uniform(-0.06, 0.06, size=2),
        )
    return SyntheticWorld(
        seed=seed,
        alphabet=alphabet,
        vocabulary=SignVocabulary(glosses=TOY_VOCAB),
        hand_templates=hand_templates,
        rest_hand=rest_hand,
        sign_templates=sign_templates,
    )


@dataclass(frozen=True)
class Signer:
    signer_id: str
    offset: np.ndarray  # (2,) global translation
    scale: float  # articulation scale on template offsets


def make_signers(num_signers: int, rng: np.random.Generator) -> list[Signer]:
    return [
        Signer(
            signer_id=f"signer{i:02d}",
            offset=rng.uniform(-0.03, 0.03, size=2),
            scale=float(rng.uniform(0.9, 1.1)),
        )
        for i in range(num_signers)
    ]


def _blend_segments(templates: list[np.ndarray], durations: list[int]) -> np.ndarray:
    """Piecewise-constant template track with linear blending at boundaries."""
    track = np.concatenate(
        [np.repeat(tpl[None, ...], dur, axis=0) for tpl, dur in zip(templates, durations)]
    )
    boundary = 0
    for dur_prev, tpl_prev, tpl_next in zip(
        durations, templates, templates[1:]
    ):
        boundary += dur_prev
        track[boundary - 1] = 0.85 * tpl_prev + 0.15 * tpl_next
        track[boundary] = 0.15 * tpl_prev + 0.85 * tpl_next
    return track


@dataclass(frozen=True)
class FsSample:
    sample_id: str
    words: tuple[str, ...]
    poses: PoseSequence
    signer_id: str


@dataclass(frozen=True)
class IsrSample:
    sample_id: str
    gloss: str
    poses: PoseSequence
    span: tuple[int, int]  # inclusive sign span
    signer_id: str


def _frames_from_right_hand(
    right_track: np.ndarray,
    rng: np.random.Generator,
    signer: Signer,
    video_id: str,
    left_track: np.ndarray | None = None,
    left_present: float = 0.0,
    body_wrist_track: np.ndarray | None = None,
    drop_right: float = 0.0,
) -> PoseSequence:
    """Fill a clip's arrays frame by frame, in the order of random draws
    that the corpora depend on (``tests/test_synthetic.py`` pins it)."""
    T = len(right_track)
    hand_left = np.zeros((T, HAND_JOINTS, 2))
    hand_right = np.zeros((T, HAND_JOINTS, 2))
    has_left = np.zeros(T, dtype=bool)
    has_right = np.zeros(T, dtype=bool)
    body = np.zeros((T, len(_JOINTS), 2))
    for t in range(T):
        right = (
            _RIGHT_HAND_CENTER
            + signer.offset
            + signer.scale * right_track[t]
            + rng.normal(0.0, _NOISE, size=(HAND_JOINTS, 2))
        )
        if rng.random() >= drop_right:
            hand_right[t] = quantize(right)
            has_right[t] = True
        if left_track is not None and rng.random() < left_present:
            left = (
                _LEFT_HAND_CENTER
                + signer.offset
                + signer.scale * left_track[t]
                + rng.normal(0.0, _NOISE, size=(HAND_JOINTS, 2))
            )
            hand_left[t] = quantize(left)
            has_left[t] = True
        pos = _REST_POINTS + signer.offset + rng.normal(0.0, _NOISE, size=(len(_JOINTS), 2))
        if body_wrist_track is not None:
            pos[_RIGHT_WRIST] += body_wrist_track[t]
        body[t] = quantize(pos)
    return PoseSequence(
        np.arange(T) / _FPS, hand_left, hand_right, has_left, has_right,
        body, np.ones((T, len(_JOINTS)), dtype=bool), _JOINTS, _FPS, video_id,
    )


def _distractor(rng: np.random.Generator) -> np.ndarray:
    """Non-letter hand shape, as seen in lead-in/lead-out motion."""
    return rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2))


def _bounce(template: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Partial relaxation between repeated letters.

    Doubles are articulated with a brief shape release; a rigid translation
    would be erased by per-frame mean centering, so the cue must live in
    the hand shape itself.
    """
    return 0.45 * template + 0.55 * rest


def _letter_segments(
    world: SyntheticWorld, word: str, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[int]]:
    """Per-letter templates and durations, with a sideways bounce between
    repeated letters (the visual cue doubles rely on)."""
    templates: list[np.ndarray] = []
    durations: list[int] = []
    prev: str | None = None
    for ch in word:
        tpl = world.hand_templates.get(ch)
        if tpl is None:
            tpl = rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2))
        if ch == prev:
            templates.append(_bounce(tpl, world.rest_hand))
            durations.append(int(rng.integers(2, 4)))
        templates.append(tpl)
        durations.append(int(rng.integers(2, 7)))
        prev = ch
    return templates, durations


def fingerspelling_clip(
    world: SyntheticWorld,
    words: tuple[str, ...],
    signer: Signer,
    rng: np.random.Generator,
    video_id: str = "",
) -> PoseSequence:
    """Render a pure fingerspelling clip.

    Clips carry lead-in and lead-out rest, and most include a stretch of
    non-letter distractor motion there, so the recognizer learns to emit
    blank on content that is not fingerspelling.
    """
    templates: list[np.ndarray] = []
    durations: list[int] = []

    def push_rest(allow_distractor: bool) -> None:
        templates.append(world.rest_hand)
        durations.append(int(rng.integers(2, 5)))
        if allow_distractor and rng.random() < 0.7:
            templates.append(_distractor(rng))
            durations.append(int(rng.integers(4, 11)))
            templates.append(world.rest_hand)
            durations.append(int(rng.integers(2, 5)))

    push_rest(allow_distractor=True)
    for i, word in enumerate(words):
        seg_templates, seg_durations = _letter_segments(world, word, rng)
        templates.extend(seg_templates)
        durations.extend(seg_durations)
        push_rest(allow_distractor=(i == len(words) - 1))
    track = _blend_segments(templates, durations)
    return _frames_from_right_hand(track, rng, signer, video_id, drop_right=0.02)


def _random_word(
    rng: np.random.Generator, alphabet: Alphabet, min_len: int = 2, max_len: int = 5
) -> str:
    letters = [c for c in alphabet.chars if c.isalpha()]
    digits = [c for c in alphabet.chars if c.isdigit()]
    length = int(rng.integers(min_len, max_len + 1))
    chars = []
    for _ in range(length):
        pool = digits if digits and rng.random() < 0.08 else letters
        chars.append(pool[int(rng.integers(0, len(pool)))])
    return "".join(chars)


def decoy_word(rng: np.random.Generator, alphabet: Alphabet) -> str:
    """A plausible not-fingerspelled word, at typical English word length."""
    return _random_word(rng, alphabet, min_len=4, max_len=8)


def make_fingerspelling_corpus(
    world: SyntheticWorld,
    num_phrases: int = 500,
    num_signers: int = 10,
    seed: int = 7,
) -> list[FsSample]:
    rng = np.random.default_rng(seed)
    signers = make_signers(num_signers, rng)
    samples = []
    for i in range(num_phrases):
        signer = signers[i % num_signers]
        n_words = int(rng.integers(1, 4))
        words = tuple(_random_word(rng, world.alphabet) for _ in range(n_words))
        sample_id = f"fs{i:05d}"
        poses = fingerspelling_clip(world, words, signer, rng, video_id=sample_id)
        samples.append(
            FsSample(sample_id=sample_id, words=words, poses=poses, signer_id=signer.signer_id)
        )
    return samples


def isr_clip(
    world: SyntheticWorld,
    gloss: str,
    signer: Signer,
    rng: np.random.Generator,
    video_id: str = "",
) -> tuple[PoseSequence, tuple[int, int]]:
    """Render one isolated-sign clip with rest margins around the sign.

    Margins may contain distractor motion (labeled NULL by the trainer's
    span targets), so the model learns that unfamiliar handshapes are not
    signs and do not activate ANY.
    """
    tpl = world.sign_templates[gloss]
    lead = int(rng.integers(5, 9))
    hold = int(rng.integers(10, 17))
    tail = int(rng.integers(5, 9))
    right_parts = [world.rest_hand, tpl.dominant, world.rest_hand]
    left_parts = [world.rest_hand, tpl.non_dominant, world.rest_hand]
    durs = [lead, hold, tail]
    if rng.random() < 0.5:
        extra = int(rng.integers(4, 9))
        right_parts = [_distractor(rng), *right_parts]
        left_parts = [_distractor(rng), *left_parts]
        durs = [extra, *durs]
        lead += extra
    if rng.random() < 0.5:
        extra = int(rng.integers(4, 9))
        right_parts = [*right_parts, _distractor(rng)]
        left_parts = [*left_parts, _distractor(rng)]
        durs = [*durs, extra]
    right = _blend_segments(right_parts, durs)
    left = _blend_segments(left_parts, durs)
    wrist = np.zeros((sum(durs), 2))
    wrist[lead : lead + hold] = tpl.wrist_shift
    poses = _frames_from_right_hand(
        right, rng, signer, video_id, left_track=left, left_present=0.8, body_wrist_track=wrist
    )
    return poses, (lead, lead + hold - 1)


def make_isr_corpus(
    world: SyntheticWorld,
    clips_per_class: int = 15,
    num_signers: int = 10,
    seed: int = 11,
) -> list[IsrSample]:
    rng = np.random.default_rng(seed)
    signers = make_signers(num_signers, rng)
    samples = []
    i = 0
    for gloss in world.vocabulary.glosses:
        for _ in range(clips_per_class):
            signer = signers[i % num_signers]
            sample_id = f"isr{i:05d}"
            poses, span = isr_clip(world, gloss, signer, rng, video_id=sample_id)
            samples.append(
                IsrSample(
                    sample_id=sample_id,
                    gloss=gloss,
                    poses=poses,
                    span=span,
                    signer_id=signer.signer_id,
                )
            )
            i += 1
    return samples


def compose_sentence_video(
    world: SyntheticWorld,
    glosses: GlossSequence,
    seed: int = 0,
    video_id: str = "",
) -> tuple[PoseSequence, list[tuple[int, int]]]:
    """Render a mixed signing video for a gloss sequence.

    Fingerspelled-kind tokens become letter segments with pauses around
    them; in-vocabulary glosses use their sign template; anything else
    (out-of-vocabulary glosses, classifiers) gets an unseen random
    template. Returns the video and one inclusive frame span per token.
    """
    rng = np.random.default_rng(seed)
    signer = Signer(signer_id="composer", offset=np.zeros(2), scale=1.0)

    right_templates: list[np.ndarray] = [world.rest_hand]
    left_templates: list[np.ndarray] = [world.rest_hand]
    wrist_templates: list[np.ndarray] = [np.zeros(2)]
    durations: list[int] = [int(rng.integers(4, 8))]
    spans: list[tuple[int, int]] = []
    cursor = durations[0]

    def push(right, left, wrist, dur):
        nonlocal cursor
        right_templates.append(right)
        left_templates.append(left)
        wrist_templates.append(wrist)
        durations.append(dur)
        cursor += dur

    for tok in glosses.tokens:
        start = cursor
        if tok.kind in FINGERSPELLED_KINDS:
            seg_templates, seg_durations = _letter_segments(world, tok.text, rng)
            for tpl, dur in zip(seg_templates, seg_durations):
                push(tpl, world.rest_hand, np.zeros(2), dur)
        else:
            sign = world.sign_templates.get(tok.text)
            if sign is None:
                sign = SignTemplate(
                    dominant=rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2)),
                    non_dominant=rng.uniform(-0.13, 0.13, size=(HAND_JOINTS, 2)),
                    wrist_shift=rng.uniform(-0.06, 0.06, size=2),
                )
            push(sign.dominant, sign.non_dominant, sign.wrist_shift, int(rng.integers(10, 17)))
        spans.append((start, cursor - 1))
        push(world.rest_hand, world.rest_hand, np.zeros(2), int(rng.integers(4, 8)))

    right = _blend_segments(right_templates, durations)
    left = _blend_segments(left_templates, durations)
    wrist = np.concatenate(
        [np.repeat(w[None, :], d, axis=0) for w, d in zip(wrist_templates, durations)]
    )
    poses = _frames_from_right_hand(
        right, rng, signer, video_id, left_track=left, left_present=0.85, body_wrist_track=wrist
    )
    return poses, spans


def perturb_sequence(
    glosses: GlossSequence, world: SyntheticWorld, rng: np.random.Generator
) -> GlossSequence:
    """Derive a plausible wrong candidate: swap, substitute, or respell."""
    tokens = list(glosses.tokens)
    for _ in range(20):
        op = rng.integers(0, 3)
        if op == 0 and len(tokens) >= 2:
            i, j = rng.choice(len(tokens), size=2, replace=False)
            if tokens[i].text == tokens[j].text:
                continue
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == 1:
            idx = int(rng.integers(0, len(tokens)))
            if tokens[idx].kind is not TokenKind.GLOSS:
                continue
            choices = [g for g in world.vocabulary.glosses if g != tokens[idx].text]
            tokens[idx] = GlossToken(
                kind=TokenKind.GLOSS, text=choices[int(rng.integers(0, len(choices)))]
            )
        else:
            idx = int(rng.integers(0, len(tokens)))
            if tokens[idx].kind is not TokenKind.FINGERSPELLED:
                continue
            tokens[idx] = GlossToken(
                kind=TokenKind.FINGERSPELLED, text=_random_word(rng, world.alphabet)
            )
        candidate = GlossSequence(tokens=tuple(tokens))
        if [t.text for t in candidate.tokens] != [t.text for t in glosses.tokens]:
            return candidate
    # Fallback: reverse the sequence, which always differs for length >= 2.
    return GlossSequence(tokens=tuple(reversed(tokens)))
