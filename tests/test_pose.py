"""Pose ingestion, handedness, imputation, normalization, features."""

import json
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from sequences import pose_sequence

from signscribe import pose
from signscribe.pose import (
    BODY_DEFAULT_JOINTS,
    FINGERSPELLING_FEATURES,
    ISR_ONE_HAND_FEATURES,
    ISR_TWO_HAND_FEATURES,
    STD_EPS,
    ChannelEmptyError,
    Hand,
    NoHandsError,
    PoseError,
    PoseSequence,
    VideoFeatures,
    _decode,
    _imputed,
    _is_number,
    _nearest_present,
    _normalize_hand,
    mirror_flip,
    normalize_body,
    read_pose_jsonl,
    select_dominant_hand,
    write_pose_jsonl,
)

GRID = 1024.0
ARRAYS = ("timestamps", "hand_left", "hand_right", "left_present", "right_present", "body", "body_present")


def grid_hand(rng):
    return np.round(rng.uniform(0.1, 0.9, size=(21, 2)) * GRID) / GRID


def grid_body(rng):
    return np.round(rng.uniform(0.1, 0.9, size=(len(BODY_DEFAULT_JOINTS), 2)) * GRID) / GRID


def hands_at(n, present):
    """(n, 21, 2) hands, NaN (absent) but for the given {frame: points}."""
    hands = np.full((n, 21, 2), np.nan)
    for i, points in present.items():
        hands[i] = points
    return hands


def make_sequence(rng, n=6, left_every=1, right_every=1):
    """Grid-valued hands on every left_every-th / right_every-th frame; every body joint on all."""
    left, right, body = {}, {}, np.empty((n, len(BODY_DEFAULT_JOINTS), 2))
    for i in range(n):
        if i % left_every == 0:
            left[i] = grid_hand(rng)
        if i % right_every == 0:
            right[i] = grid_hand(rng)
        body[i] = grid_body(rng)
    return pose_sequence(np.arange(n) / 30.0, hands_at(n, left), hands_at(n, right), body, video_id="t")


def drop(seq, frames, hands=(), joints=()):
    """``seq`` with the named hands ("left", "right") and body joints absent on ``frames``."""
    present = {name: getattr(seq, name).copy() for name in ("left_present", "right_present", "body_present")}
    for hand in hands:
        present[f"{hand}_present"][frames] = False
    for name in joints:
        present["body_present"][frames, seq.joints.index(name)] = False
    return replace(seq, **present)


class TestSelectDominantHand:
    def _seq(self, left_frames, right_frames, n=10):
        rng = np.random.default_rng(0)
        left, right = {}, {}
        for i in range(n):
            if i in left_frames:
                left[i] = grid_hand(rng)
            if i in right_frames:
                right[i] = grid_hand(rng)
        return pose_sequence(np.arange(n) / 30.0, hands_at(n, left), hands_at(n, right))

    def test_left_dominant_flips(self):
        seq = self._seq(left_frames=set(range(9)), right_frames={0, 1})
        assert select_dominant_hand(seq) is Hand.LEFT

    def test_right_only(self):
        seq = self._seq(left_frames=set(), right_frames=set(range(10)))
        assert select_dominant_hand(seq) is Hand.RIGHT

    def test_tie_breaks_right(self):
        seq = self._seq(left_frames={0, 1, 2, 3, 4}, right_frames={5, 6, 7, 8, 9})
        assert select_dominant_hand(seq) is Hand.RIGHT

    def test_no_hands_error(self):
        seq = self._seq(left_frames=set(), right_frames=set())
        with pytest.raises(NoHandsError):
            select_dominant_hand(seq)


class TestMirrorFlip:
    def test_x_reflection(self):
        hand = np.full((21, 2), 0.25)
        hand[:, 1] = 0.6
        flipped = mirror_flip(pose_sequence([0.0], hand_right=hand[None]))
        assert flipped.hand_left[0, 0, 0] == pytest.approx(0.75)
        assert flipped.hand_left[0, 0, 1] == pytest.approx(0.6)
        assert flipped.left_present.tolist() == [True]
        assert flipped.right_present.tolist() == [False]

    def test_involution_exact_on_grid(self):
        rng = np.random.default_rng(4)
        seq = make_sequence(rng, n=8, left_every=2)
        twice = mirror_flip(mirror_flip(seq))
        assert twice.joints == seq.joints
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(twice, name), getattr(seq, name))

    def test_body_names_swapped(self):
        body = np.array([[[0.25, 0.3], [0.75, 0.3]]])
        seq = pose_sequence([0.0], body=body, joints=("left_shoulder", "right_shoulder"))
        flipped = mirror_flip(seq)
        np.testing.assert_allclose(flipped.body[0, flipped.joints.index("left_shoulder")], [0.25, 0.3])
        np.testing.assert_allclose(flipped.body[0, flipped.joints.index("right_shoulder")], [0.75, 0.3])


def imputed_right_hand(seq):
    return _imputed(seq.timestamps, seq.hand_right, seq.right_present, "hand_right")


class TestImputeMissing:
    """``pose._imputed``, the nearest-present-frame fill of every input channel."""

    def test_nearest_rule(self):
        rng = np.random.default_rng(1)
        h0, h3 = grid_hand(rng), grid_hand(rng)
        filled = imputed_right_hand(pose_sequence(np.arange(4) / 30, hand_right=hands_at(4, {0: h0, 3: h3})))
        np.testing.assert_array_equal(filled, [h0, h0, h3, h3])

    def test_tie_prefers_earlier(self):
        rng = np.random.default_rng(2)
        h0, h2 = grid_hand(rng), grid_hand(rng)
        filled = imputed_right_hand(pose_sequence(np.arange(3) / 30, hand_right=hands_at(3, {0: h0, 2: h2})))
        np.testing.assert_array_equal(filled[1], h0)

    def test_identity_when_fully_populated(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng, n=5)
        assert imputed_right_hand(seq) is seq.hand_right

    def test_idempotent(self):
        """Features of a video equal those of the video with its gaps already filled."""
        rng = np.random.default_rng(6)
        seq = make_sequence(rng, n=9, left_every=3)
        filled = _imputed(seq.timestamps, seq.hand_left, seq.left_present, "hand_left")
        once = replace(seq, hand_left=filled, left_present=np.ones(9, dtype=bool))
        rows = VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)
        assert VideoFeatures(once).rows(ISR_TWO_HAND_FEATURES).tobytes() == rows.tobytes()

    def test_single_valid_frame_broadcasts(self):
        rng = np.random.default_rng(7)
        h = grid_hand(rng)
        for points in imputed_right_hand(pose_sequence(np.arange(4) / 30, hand_right=hands_at(4, {1: h}))):
            np.testing.assert_array_equal(points, h)

    def test_channel_empty_error(self):
        seq = pose_sequence([0.0], hand_right=np.full((1, 21, 2), 0.5))
        with pytest.raises(ChannelEmptyError) as got:
            _imputed(seq.timestamps, seq.hand_left, seq.left_present, "hand_left")
        assert got.value.channel == "hand_left"


# The hand features as two separate steps, each centring the hand: the
# reference for pose._normalize_hand, which centres once.


def hand_joint_std(hands: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Per-joint, per-axis deviation of mean-centred hands over a video, floored at STD_EPS."""
    stack = np.asarray(hands)
    std = (stack - stack.mean(axis=1, keepdims=True)).std(axis=0)
    return np.maximum(std, STD_EPS)


def normalize_hand(hand: np.ndarray, std: np.ndarray | None = None) -> np.ndarray:
    """Centre on the 2-D hand mean, scale per joint, flatten to 42 values.

    ``hand`` is one frame's (21, 2) points or a video's (T, 21, 2).
    """
    centered = hand - hand.mean(axis=-2, keepdims=True)
    if std is not None:
        centered = centered / std
    return centered.reshape(*hand.shape[:-2], -1)


class TestNormalizeHand:
    @pytest.mark.parametrize("frames", [1, 2, 56, 950])
    def test_single_centring_matches_the_reference(self, frames):
        rng = np.random.default_rng(frames)
        hands = rng.uniform(size=(frames, 21, 2))
        hands[:, 3] = 0.5  # a frozen joint: its deviation is floored
        got = _normalize_hand(hands)
        assert got.tobytes() == normalize_hand(hands, hand_joint_std(hands)).tobytes()

    def test_degenerate_hand_gives_zeros(self):
        hand = np.full((21, 2), 0.5)
        out = normalize_hand(hand, std=np.full((21, 2), 1e-6))
        np.testing.assert_array_equal(out, np.zeros(42))

    def test_output_centered(self):
        rng = np.random.default_rng(8)
        hand = rng.uniform(size=(21, 2))
        out = normalize_hand(hand).reshape(21, 2)
        np.testing.assert_allclose(out.mean(axis=0), [0.0, 0.0], atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        hand = rng.uniform(0.2, 0.6, size=(21, 2))
        std = np.full((21, 2), 0.1)
        shifted = hand + np.array([0.3, -0.1])
        np.testing.assert_allclose(
            normalize_hand(hand, std), normalize_hand(shifted, std), atol=1e-9
        )

    def test_video_std_translation_invariant(self):
        rng = np.random.default_rng(10)
        hands = [rng.uniform(size=(21, 2)) for _ in range(6)]
        shifted = [h + np.array([0.2, 0.1]) for h in hands]
        np.testing.assert_allclose(hand_joint_std(hands), hand_joint_std(shifted), atol=1e-12)


class TestNormalizeBody:
    def test_worked_arithmetic(self):
        assert BODY_DEFAULT_JOINTS[:3] == ("nose", "left_shoulder", "right_shoulder")
        body = np.full((len(BODY_DEFAULT_JOINTS), 2), 0.5)
        body[:3] = [[0.5, 0.7], [0.4, 0.5], [0.6, 0.5]]
        out = normalize_body(body)
        np.testing.assert_allclose(out, [0.0, 1.0, -0.5, 0.0, 0.5, 0.0] + [0.0] * 12, atol=1e-12)

    def test_below_hip_joints_removed(self):
        """The body columns are the default joints, found by name in any order."""
        seq = make_sequence(np.random.default_rng(11), n=4)
        assert normalize_body(seq.body[0]).shape == (2 * len(BODY_DEFAULT_JOINTS),)
        knee = np.full((4, 1, 2), 0.5)
        with_knee = replace(
            seq,
            body=np.concatenate([seq.body, knee], axis=1)[:, ::-1],
            body_present=np.ones((4, len(BODY_DEFAULT_JOINTS) + 1), dtype=bool),
            joints=(*BODY_DEFAULT_JOINTS, "left_knee")[::-1],
        )
        want = VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)
        assert VideoFeatures(with_knee).rows(ISR_TWO_HAND_FEATURES).tobytes() == want.tobytes()

    def test_scale_invariance_about_midpoint(self):
        rng = np.random.default_rng(11)
        body = rng.uniform(0.2, 0.8, size=(len(BODY_DEFAULT_JOINTS), 2))
        mid = (body[1] + body[2]) / 2
        scaled = mid + 2.5 * (body - mid)
        np.testing.assert_allclose(normalize_body(body), normalize_body(scaled), atol=1e-9)

    @staticmethod
    def _first_error(joints):
        rng = np.random.default_rng(12)
        hands = np.stack([grid_hand(rng) for _ in range(3)])
        body = np.stack([grid_body(rng)[: len(joints)] for _ in range(3)])
        seq = pose_sequence(np.arange(3) / 30, hands, hands, body, joints=joints)
        with pytest.raises(ChannelEmptyError) as got:
            VideoFeatures(seq).rows(ISR_ONE_HAND_FEATURES)
        return got.value.channel

    def test_missing_shoulders(self):
        assert self._first_error(("nose",)) == "body:left_shoulder"

    def test_missing_joint(self):
        assert self._first_error(tuple(j for j in BODY_DEFAULT_JOINTS if j != "left_hip")) == "body:left_hip"


class TestBuildFeatures:
    def test_fingerspelling_dim(self):
        rng = np.random.default_rng(12)
        seq = make_sequence(rng, n=7)
        assert VideoFeatures(seq).rows(FINGERSPELLING_FEATURES).shape == (7, 42)

    def test_isr_dims(self):
        rng = np.random.default_rng(13)
        seq = make_sequence(rng, n=4)
        video = VideoFeatures(seq)
        two = video.rows(ISR_TWO_HAND_FEATURES)
        one = video.rows(ISR_ONE_HAND_FEATURES)
        assert two.shape == (4, 18 + 42 + 42)
        assert one.shape == (4, 18 + 42)
        # body columns first, then the dominant hand, then the other hand
        np.testing.assert_array_equal(two[:, :60], one)

    def test_never_writes_the_source_arrays(self):
        """Every channel has gaps, and the arrays are read-only: building the
        inputs in either order, from the video or its mirror, writes none."""
        seq = random_video(np.random.default_rng(18), left=0.6, right=0.8, joint=0.7, jitter=1e-3)
        assert not (seq.left_present.all() or seq.right_present.all() or seq.body_present.all(axis=0).any())
        inputs = (FINGERSPELLING_FEATURES, ISR_TWO_HAND_FEATURES, ISR_ONE_HAND_FEATURES)
        for video, hand in ((seq, Hand.RIGHT), (mirror_flip(seq), Hand.LEFT)):
            assert select_dominant_hand(video) is hand
            features = VideoFeatures(video)
            want = {columns: features.rows(columns).tobytes() for columns in inputs}
            for name in ARRAYS:
                getattr(video, name).flags.writeable = False
            for order in (inputs, inputs[::-1]):
                features = VideoFeatures(video)
                assert {columns: features.rows(columns).tobytes() for columns in order} == want

    def test_missing_channel_rejected(self):
        rng = np.random.default_rng(14)
        seq = pose_sequence([0.0], hand_right=grid_hand(rng)[None])
        with pytest.raises(ChannelEmptyError):
            VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)

    def test_feature_translation_invariance(self):
        rng = np.random.default_rng(15)
        seq = make_sequence(rng, n=6)
        shift = np.array([0.05, -0.02])
        shifted = replace(
            seq, hand_left=seq.hand_left + shift, hand_right=seq.hand_right + shift, body=seq.body + shift
        )
        a = VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)
        b = VideoFeatures(shifted).rows(ISR_TWO_HAND_FEATURES)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestPrepareSequence:
    def test_left_dominant_lands_in_right_slot(self):
        rng = np.random.default_rng(16)
        left = grid_hand(rng)
        seq = pose_sequence(np.arange(5) / 30, np.stack([left] * 5), hands_at(5, {0: grid_hand(rng)}))
        mirrored = left.copy()
        mirrored[:, 0] = 1.0 - mirrored[:, 0]
        hands = np.stack([mirrored] * 5)
        np.testing.assert_array_equal(
            VideoFeatures(seq).rows(FINGERSPELLING_FEATURES),
            normalize_hand(hands, hand_joint_std(hands)),
        )


class TestSequenceValidation:
    def test_timestamps_strictly_increasing(self):
        with pytest.raises(PoseError):
            pose_sequence([0.0, 0.0])

    def test_bad_fps(self):
        with pytest.raises(PoseError):
            replace(pose_sequence([]), fps=0.0)

    def test_non_finite_rejected(self):
        seq = pose_sequence([0.0], hand_right=np.full((1, 21, 2), 0.5))
        with pytest.raises(PoseError):
            replace(seq, hand_right=np.full((1, 21, 2), np.nan))


class TestPoseJsonl:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        seq = make_sequence(rng, n=5, left_every=2)
        path = tmp_path / "video.jsonl"
        write_pose_jsonl(path, seq)
        loaded = read_pose_jsonl(path)
        assert loaded.fps == seq.fps
        assert loaded.video_id == seq.video_id
        assert len(loaded) == len(seq)
        np.testing.assert_array_equal(loaded.timestamps, seq.timestamps)
        np.testing.assert_array_equal(loaded.hand_right, seq.hand_right)
        np.testing.assert_array_equal(loaded.left_present, seq.left_present)
        np.testing.assert_array_equal(loaded.hand_left[seq.left_present], seq.hand_left[seq.left_present])
        assert sorted(loaded.joints) == sorted(seq.joints)
        for j, name in enumerate(seq.joints):
            np.testing.assert_array_equal(loaded.body[:, loaded.joints.index(name)], seq.body[:, j])
        assert loaded.body_present.all()

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(18)
        seq = make_sequence(rng, n=7, left_every=3)
        seq = drop(drop(seq, 2, joints=seq.joints), 4, joints=["nose"])
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_pose_jsonl(first, replace(seq, video_id="v"))
        write_pose_jsonl(second, read_pose_jsonl(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "header, record",
        [
            ({"fps": 30.0}, {"hand_right": [[0.5, 0.5]] * 20}),
            ({"fps": 30.0}, {"hand_right": [[0.5, 0.5, 0.5]] * 21}),
            ({"fps": 30.0}, {"hand_right": [[0.5, 0.5]] * 20 + [[0.5]]}),
            ({"fps": 30.0}, {"hand_left": [[0.5, float("nan")]] * 21}),
            ({"fps": 30.0}, {"body": {"nose": [float("inf"), 0.5]}}),
            ({"fps": 30.0}, {"body": {"nose": [0.5, 0.5, 0.5]}}),
            ({"fps": 30.0}, {"t": 0.0}),  # repeats the first frame's timestamp
            ({"fps": 0.0}, {}),
            ({"fps": -30.0}, {}),
            ({"fps": 30.0}, {"t": "0.5"}),
            ({"fps": 30.0}, {"t": True}),
            ({"fps": 30.0}, {"t": float("inf")}),
            ({"fps": None}, {}),
            ({"fps": [30]}, {}),
            ({"fps": "30"}, {}),
            ({"fps": True}, {}),
            ({"fps": 30.0, "video_id": 7}, {}),
            ({"fps": 10**400}, {}),  # an int no float can hold
            ({"fps": 30.0}, {"hand_right": [["0.5", "0.25"]] * 21}),
            ({"fps": 30.0}, {"hand_left": [[True, False]] * 21}),
            ({"fps": 30.0}, {"body": {"nose": ["0.5", "0.5"]}}),
            ({"fps": 30.0}, {"body": {"nose": [True, False]}}),
            ({"fps": 30.0}, {"hand_right": [[0.5, 0.5]] * 20 + [[0.5, True]]}),  # read as 1.0
            ({"fps": 30.0}, {"body": {"nose": [0.5, 0.5], "neck": [False, 0.5]}}),
        ],
    )
    def test_reader_rejects(self, tmp_path, header, record):
        """Each fault names its line: the header's (line 1) when the second frame
        is valid, else the second frame's (line 3)."""
        first = {"t": 0.0, "hand_left": None, "hand_right": [[0.5, 0.5]] * 21, "body": None}
        second = {**first, "t": 1 / 30, **record}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in (header, first, second)) + "\n")
        with pytest.raises(PoseError, match=f"bad.jsonl:{3 if record else 1}: "):
            read_pose_jsonl(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"hand_right": [[0.5, 0.5]] * 20},
            {"hand_right": [[0.5, 0.5, 0.5]] * 21},
            {"hand_right": [[0.5, 0.5]] * 20 + [[0.5]]},
            {"hand_left": 0.5},
            {"hand_left": [[0.5, 0.5]] * 20 + [None]},
            {"hand_right": [["0.5", "0.25"]] * 21},
            {"hand_left": [[True, False]] * 21},
            {"hand_right": [[0.5, 0.5]] * 20 + [[0.5, True]]},
            {"hand_right": [[0.5, 0.5]] * 20 + [[0.5, None]]},
            {"body": {"nose": [0.5, 0.5, 0.5]}},
            {"body": {"nose": [0.5]}},
            {"body": {"nose": 0.5}},
            {"body": {"nose": ["0.5", "0.5"]}},
            {"body": {"nose": [True, False]}},
            {"body": {"nose": [0.5, 0.5], "neck": [False, 0.5]}},
            {"body": {"nose": [0.5, 0.5], "neck": {"x": 0.5, "y": 0.5}}},
        ],
    )
    def test_reader_names_the_line_of_a_bad_point(self, tmp_path, record):
        first = {"t": 0.0, "hand_left": None, "hand_right": [[0.5, 0.5]] * 21, "body": {"nose": [0.5, 0.5]}}
        second = {**first, "t": 1 / 30, **record}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in ({"fps": 30.0}, first, second, first | {"t": 0.1})) + "\n")
        with pytest.raises(PoseError, match="bad.jsonl:3: "):
            read_pose_jsonl(path)

    def test_reader_names_the_first_bad_line_of_a_later_chunk(self, tmp_path):
        frame = {"hand_left": None, "hand_right": [[0.5, 0.5]] * 21, "body": {"nose": [0.5, 0.5]}}
        frames = [{"t": i / 30, **frame} for i in range(300)]
        frames[205] = {**frames[205], "hand_right": [[0.5, 0.5]] * 20 + [[0.5, False]]}
        frames[201] = {**frames[201], "body": {"nose": [0.5, "0.5"]}}  # earlier in the same chunk
        frames[290] = {**frames[290], "hand_left": [[0.5, True]] * 21}  # in the chunk after
        path = tmp_path / "bad.jsonl"
        path.write_text("\n\n".join(json.dumps(r) for r in [{"fps": 30.0}, *frames]) + "\n")
        with pytest.raises(PoseError, match="bad.jsonl:405: "):  # frame 201 sits on line 3 + 2 * 201
            read_pose_jsonl(path)

    def test_reader_rejects_one_frame_without_a_time(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"fps": 30}\n{"t": null, "hand_right": null}\n')
        with pytest.raises(PoseError, match=":2: 't' must be a finite number"):
            read_pose_jsonl(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_reader_rejects_empty_file(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(PoseError):
            read_pose_jsonl(path)


# --- per-frame reference ----------------------------------------------------
# The per-frame prepare_sequence + build_features that the columnar code
# replaced, kept as the oracle: the array code must give the same feature
# rows bit for bit, and fail on the same channel. The oracle reads a video
# as per-frame records: an absent hand is None, the body a dict of the
# present joints (or None when there are none).

Frame = namedtuple("Frame", "timestamp hand_left hand_right body")


class Spec(namedtuple("Spec", "body dominant_hand non_dominant_hand")):
    """The column groups an input holds, as the references read them."""

    def channels(self):
        body = [f"body:{joint}" for joint in BODY_DEFAULT_JOINTS] if self.body else []
        return body + ["hand_right"] * self.dominant_hand + ["hand_left"] * self.non_dominant_hand


FS_SPEC = Spec(body=False, dominant_hand=True, non_dominant_hand=False)
TWO_HAND_SPEC = Spec(body=True, dominant_hand=True, non_dominant_hand=True)
ONE_HAND_SPEC = Spec(body=True, dominant_hand=True, non_dominant_hand=False)


def frames_of(seq):
    return [
        Frame(
            timestamp=float(seq.timestamps[i]),
            hand_left=seq.hand_left[i] if seq.left_present[i] else None,
            hand_right=seq.hand_right[i] if seq.right_present[i] else None,
            body={name: seq.body[i, j] for j, name in enumerate(seq.joints) if seq.body_present[i, j]} or None,
        )
        for i in range(len(seq))
    ]


def _ref_channel(frame, channel):
    if channel in ("hand_left", "hand_right"):
        return getattr(frame, channel)
    return None if frame.body is None else frame.body.get(channel[5:])


def _ref_flip(points):
    out = points.copy()
    out[..., 0] = 1.0 - out[..., 0]
    return out


def _ref_mirror_name(name):
    if name.startswith("left_"):
        return "right_" + name[5:]
    if name.startswith("right_"):
        return "left_" + name[6:]
    return name


def _ref_prepare(frames, spec):
    n = len(frames)
    left = sum(f.hand_left is not None for f in frames) / n
    right = sum(f.hand_right is not None for f in frames) / n
    if left == 0.0 and right == 0.0:
        raise NoHandsError("no hand present in any frame")
    if left > right:
        frames = [
            Frame(
                timestamp=f.timestamp,
                hand_left=None if f.hand_right is None else _ref_flip(f.hand_right),
                hand_right=None if f.hand_left is None else _ref_flip(f.hand_left),
                body=None
                if f.body is None
                else {_ref_mirror_name(k): _ref_flip(v) for k, v in f.body.items()},
            )
            for f in frames
        ]
    ts = np.array([f.timestamp for f in frames])
    filled = {}
    for channel in spec.channels():
        values = [_ref_channel(f, channel) for f in frames]
        valid = [i for i, v in enumerate(values) if v is not None]
        if not valid:
            raise ChannelEmptyError(channel)
        valid_ts = ts[valid]
        filled[channel] = [
            v if v is not None else values[valid[int(np.argmin(np.abs(valid_ts - ts[i])))]]
            for i, v in enumerate(values)
        ]
    out = []
    for i, f in enumerate(frames):
        body = dict(f.body) if f.body else {}
        body.update({c[5:]: v[i] for c, v in filled.items() if c.startswith("body:")})
        out.append(
            Frame(
                timestamp=f.timestamp,
                hand_left=filled["hand_left"][i] if "hand_left" in filled else f.hand_left,
                hand_right=filled["hand_right"][i] if "hand_right" in filled else f.hand_right,
                body=body or None,
            )
        )
    return out


def _ref_features(frames, spec):
    for f in frames:
        for channel in spec.channels():
            if _ref_channel(f, channel) is None:
                raise ChannelEmptyError(channel)
    columns = []
    if spec.body:
        rows = []
        for f in frames:
            ls, rs = f.body["left_shoulder"], f.body["right_shoulder"]
            mid = (ls + rs) / 2.0
            width = max(float(np.linalg.norm(ls - rs)), 1e-6)
            rows.append(np.concatenate([(f.body[j] - mid) / width for j in BODY_DEFAULT_JOINTS]))
        columns.append(np.stack(rows))
    for wanted, slot in ((spec.dominant_hand, "hand_right"), (spec.non_dominant_hand, "hand_left")):
        if wanted:
            centered = [h - h.mean(axis=0, keepdims=True) for h in (getattr(f, slot) for f in frames)]
            std = np.maximum(np.stack(centered).std(axis=0), 1e-6)
            columns.append(np.stack([(c / std).reshape(-1) for c in centered]))
    return np.concatenate(columns, axis=1)


# name: (the spec the reference prepares for, the spec it builds)
SPECS = {
    "fingerspelling": (FS_SPEC, FS_SPEC),
    "isr_two_hand": (TWO_HAND_SPEC, TWO_HAND_SPEC),
    "isr_one_hand": (TWO_HAND_SPEC, ONE_HAND_SPEC),
}
COLUMNS = {FS_SPEC: FINGERSPELLING_FEATURES, TWO_HAND_SPEC: ISR_TWO_HAND_FEATURES, ONE_HAND_SPEC: ISR_ONE_HAND_FEATURES}


def assert_matches_reference(seq):
    """Feature rows equal to the reference's for every input, or the same error.

    The inputs are asked of one shared :class:`VideoFeatures`, in the order
    the pipeline asks for them; an expected error is asked of a fresh one
    for the input the reference prepared for. Returns the names of the
    inputs that were built.
    """
    frames = frames_of(seq)
    video = VideoFeatures(seq)
    built = []
    for name, (prepare_spec, spec) in SPECS.items():
        try:
            expected = _ref_features(_ref_prepare(frames, prepare_spec), spec)
        except ChannelEmptyError as exc:
            with pytest.raises(ChannelEmptyError) as got:
                VideoFeatures(seq).rows(COLUMNS[prepare_spec])
            assert got.value.channel == exc.channel
            continue
        rows = video.rows(COLUMNS[spec])
        assert np.array_equal(rows, expected), name
        built.append(name)
    return built


def random_video(rng, n=40, step=1 / 30, left=0.8, right=0.9, joint=1.0, jitter=0.0):
    """Grid-valued frames; each hand and body joint present with the given odds."""
    hands = np.full((2, n, 21, 2), np.nan)
    body = np.full((n, len(BODY_DEFAULT_JOINTS), 2), np.nan)
    for i in range(n):
        for j in range(len(BODY_DEFAULT_JOINTS)):
            if rng.random() < joint:
                body[i, j] = np.round(rng.uniform(0.1, 0.9, size=2) * GRID) / GRID + rng.normal(0, jitter, 2)
        for k, odds in enumerate((left, right)):
            if rng.random() < odds:
                hands[k, i] = grid_hand(rng) + rng.normal(0, jitter, (21, 2))
    return pose_sequence(np.arange(n) * step, hands[0], hands[1], body)


class TestMatchesPerFrameReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_left_dominant_is_mirrored(self, seed):
        rng = np.random.default_rng(100 + seed)
        seq = random_video(rng, left=0.95, right=0.4, jitter=1e-3)
        assert select_dominant_hand(seq) is Hand.LEFT
        assert len(assert_matches_reference(seq)) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_left_hand_missing_on_some_frames(self, seed):
        rng = np.random.default_rng(200 + seed)
        seq = random_video(rng, left=0.5, right=1.0, jitter=1e-3)
        assert len(assert_matches_reference(seq)) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_equidistant_ties(self, seed):
        # Every channel is present on even frames only, and the timestamps
        # are exact binary fractions, so each odd frame is exactly as far
        # from the frame before it as from the frame after it.
        rng = np.random.default_rng(300 + seed)
        seq = random_video(rng, n=21, step=0.125, left=1.0, right=1.0)
        seq = drop(seq, slice(1, None, 2), hands=("left", "right"), joints=seq.joints)
        assert len(assert_matches_reference(seq)) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_body_joints_absent_on_some_frames(self, seed):
        rng = np.random.default_rng(400 + seed)
        seq = random_video(rng, joint=0.7, jitter=1e-3)
        assert len(assert_matches_reference(seq)) == 3

    def test_one_handed_video(self):
        rng = np.random.default_rng(500)
        seq = random_video(rng, left=0.0, right=0.9)
        assert assert_matches_reference(seq) == ["fingerspelling"]
        with pytest.raises(ChannelEmptyError) as got:
            VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)
        assert got.value.channel == "hand_left"

    def test_composed_sentence_video_and_its_mirror(self, world):
        from signscribe import synthetic as syn
        from signscribe.gloss import parse_gloss_sequence

        line = parse_gloss_sequence("fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG")
        seq, _ = syn.compose_sentence_video(world, line, seed=5)
        for video in (seq, mirror_flip(seq)):
            assert len(assert_matches_reference(video)) == 3


# --- per-network reference ----------------------------------------------------
# The columnar builders each network input was made with before the inputs
# shared one VideoFeatures: each network prepared the video (handedness,
# mirror, imputation of its spec's channels, named by string, into a copy of
# the whole sequence) and normalised its own groups. The shared features
# must give every input bit for bit, and a bad video must raise the same
# first error, in the order the pipeline asks: the fingerspelling input,
# then the two ISR inputs.


def _old_channel(seq, name):
    """Points (T, ..., 2) and (T,) presence flags of a named channel, as views."""
    present = {"hand_left": "left_present", "hand_right": "right_present"}
    if name in present:
        return getattr(seq, name), getattr(seq, present[name])
    joint = name.removeprefix("body:")
    if name.startswith("body:") and joint in seq.joints:
        j = seq.joints.index(joint)
        return seq.body[:, j], seq.body_present[:, j]
    return None, np.zeros(len(seq), dtype=bool)


def _old_impute_missing(seq, channels):
    seq = replace(seq, **{name: getattr(seq, name).copy() for name in ARRAYS[1:]})
    for channel in channels:
        points, present = _old_channel(seq, channel)
        if not present.any():
            raise ChannelEmptyError(channel)
        points[:] = points[_nearest_present(seq.timestamps, present)]
        present[:] = True
    return seq


def _old_prepare_sequence(seq, spec):
    if select_dominant_hand(seq) is Hand.LEFT:
        seq = mirror_flip(seq)
    return _old_impute_missing(seq, spec.channels())


def _old_build_features(seq, spec):
    if not len(seq):
        raise PoseError("empty sequence")
    for channel in spec.channels():
        if not _old_channel(seq, channel)[1].all():
            raise ChannelEmptyError(channel)
    columns = []
    if spec.body:
        columns.append(normalize_body(seq.body[:, [seq.joints.index(joint) for joint in BODY_DEFAULT_JOINTS]]))
    for wanted, hands in ((spec.dominant_hand, seq.hand_right), (spec.non_dominant_hand, seq.hand_left)):
        if wanted:
            columns.append(normalize_hand(hands, hand_joint_std(hands)))
    rows = np.concatenate(columns, axis=1)
    if not np.all(np.isfinite(rows)):
        raise PoseError("non-finite feature values")
    return rows


def _old_inputs(seq):
    yield _old_build_features(_old_prepare_sequence(seq, FS_SPEC), FS_SPEC)
    prepared = _old_prepare_sequence(seq, TWO_HAND_SPEC)
    yield _old_build_features(prepared, TWO_HAND_SPEC)
    yield _old_build_features(prepared, ONE_HAND_SPEC)


def _new_inputs(seq):
    from signscribe import fingerspelling, isr

    video = VideoFeatures(seq)
    yield fingerspelling._features(video)
    yield from isr._features(video)


def _outcomes(inputs):
    """Each input's bytes until the first error, then that error."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for rows in inputs:
                out.append((rows.shape, rows.tobytes()))
        except PoseError as exc:
            out.append((type(exc), str(exc), getattr(exc, "channel", None)))
    return out


class TestSharedFeaturesMatchPerNetworkBuilders:
    def _check(self, seq):
        got, want = _outcomes(_new_inputs(seq)), _outcomes(_old_inputs(seq))
        assert got == want
        return want

    @pytest.mark.parametrize("seed", range(8))
    def test_left_dominant(self, seed):
        rng = np.random.default_rng(600 + seed)
        seq = random_video(rng, left=0.95, right=0.4, joint=0.8, jitter=1e-3)
        assert len(self._check(seq)) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_missing_channels(self, seed):
        rng = np.random.default_rng(700 + seed)
        seq = random_video(rng, left=0.5, right=0.7, joint=0.6, jitter=1e-3)
        assert len(self._check(seq)) == 3

    @pytest.mark.parametrize("absent, channel", [
        ("left", "hand_left"),
        ("nose", "body:nose"),
        ("left_hip", "body:left_hip"),
    ])
    def test_channel_absent_everywhere(self, absent, channel):
        rng = np.random.default_rng(800)
        seq = random_video(rng, left=0.0 if absent == "left" else 0.9)
        if absent != "left":
            seq = drop(seq, slice(None), joints=[absent])
        outcome = self._check(seq)
        assert len(outcome) == 2 and outcome[1][2] == channel

    def test_first_error_is_the_fingerspelling_one(self):
        """Huge dominant-hand coordinates overflow its features before the ISR
        input finds the nose absent: the fingerspelling error comes first."""
        rng = np.random.default_rng(801)
        seq = drop(random_video(rng, right=1.0), slice(None), joints=["nose"])
        seq = replace(seq, hand_right=seq.hand_right * 1e308)
        assert self._check(seq) == [(PoseError, "non-finite feature values", None)]

    def test_no_hands(self):
        assert self._check(pose_sequence(np.arange(4) / 30)) == [(NoHandsError, "no hand present in any frame", None)]


# --- per-frame reader reference -----------------------------------------------
# read_pose_jsonl as it was before it converted coordinates a chunk at a time:
# one np.asarray per present hand and per frame's body, written into the
# arrays row by row, with a boolean walk of any line holding true or false.
# Kept as the oracle: the chunked reader must give the same arrays and joints
# byte for byte, and refuse what this one refuses.


def _ref_points(value, shape, what):
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise PoseError(f"{what} must be {shape} numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise PoseError(f"{what} must be {shape} numbers, got {a.dtype} values")
    if a.shape != shape:
        raise PoseError(f"{what} must be {shape}, got {a.shape}")
    return a


def _ref_holds_bool(points):
    return type(points) is list and any(type(v) is bool for p in points if type(p) is list for v in p)


def _ref_frame_records(path, lines):
    for n, line in lines:
        r = _decode(path, n, line)
        if type(r) is not dict or "t" not in r:
            raise PoseError(f"{path}:{n}: a frame must be an object with a 't'")
        if not _is_number(r["t"]):
            raise PoseError(f"{path}:{n}: 't' must be a finite number")
        hand_left, hand_right, body = r.get("hand_left"), r.get("hand_right"), r.get("body")
        if body is not None and type(body) is not dict:
            raise PoseError(f"{path}:{n}: 'body' must be an object or null")
        if (b"true" in line or b"false" in line) and any(
            _ref_holds_bool(points) for points in (hand_left, hand_right, list((body or {}).values()))
        ):
            raise PoseError(f"{path}:{n}: a point must hold numbers, not booleans")
        yield r["t"], hand_left, hand_right, body


def _ref_from_records(records, num_frames, fps, video_id):
    ts = np.zeros(num_frames)
    hands = np.zeros((2, num_frames, 21, 2))
    hand_present = np.zeros((2, num_frames), dtype=bool)
    body = np.zeros((num_frames, 0, 2))
    body_present = np.zeros((num_frames, 0), dtype=bool)
    joints = []
    columns = {}
    for i, (t, hand_left, hand_right, frame_body) in enumerate(records):
        ts[i] = t
        for k, hand in enumerate((hand_left, hand_right)):
            if hand is not None:
                hands[k, i] = _ref_points(hand, (21, 2), "hand")
                hand_present[k, i] = True
        if not frame_body:
            continue
        names = tuple(frame_body)
        if names not in columns:
            new = [name for name in names if name not in joints]
            joints += new
            body = np.pad(body, ((0, 0), (0, len(new)), (0, 0)))
            body_present = np.pad(body_present, ((0, 0), (0, len(new))))
            cols = [joints.index(name) for name in names]
            consecutive = cols == list(range(cols[0], cols[0] + len(cols)))
            columns[names] = slice(cols[0], cols[-1] + 1) if consecutive else cols
        body[i, columns[names]] = _ref_points(list(frame_body.values()), (len(names), 2), "body joints")
        body_present[i, columns[names]] = True
    return PoseSequence(
        ts, hands[0], hands[1], hand_present[0], hand_present[1],
        body, body_present, tuple(joints), fps, video_id,
    )


def ref_read_pose_jsonl(path):
    with open(path, "rb") as fh:
        lines = [(n, line) for n, line in enumerate(fh, 1) if line.strip()]
    header = _decode(path, *lines[0])
    return _ref_from_records(_ref_frame_records(path, lines[1:]), len(lines) - 1, float(header["fps"]), header["video_id"])


FIRST_JOINTS = ("nose", "left_shoulder", "right_shoulder", "neck")
LATER_JOINTS = ("right_hip", "right_shoulder", "nose", "left_hip")  # two new, others reordered


def random_pose_frames(rng, n, kinds=("float",)):
    """n frames as pose-file records: each hand present, null or left out; the
    body a random subset, in random order, of FIRST_JOINTS until a frame drawn
    from 129-199 (past the first 128-frame chunk) and of LATER_JOINTS after.
    Each coordinate is of a kind drawn from ``kinds``: a float, a small int, or
    an int past int64 but within uint64."""
    change = int(rng.integers(129, 200))

    def points(k):
        drawn = {
            "float": rng.uniform(-0.5, 1.5, size=(k, 2)).tolist(),
            "int": rng.integers(0, 5, size=(k, 2)).tolist(),
            "big": rng.integers(2**63, 2**64 - 1, size=(k, 2), dtype=np.uint64, endpoint=True).tolist(),
        }
        pick = rng.integers(len(kinds), size=(k, 2)).tolist()
        return [[drawn[kinds[pick[a][b]]][a][b] for b in range(2)] for a in range(k)]

    frames = []
    for i in range(n):
        frame = {"t": i / 30}
        for hand in ("hand_left", "hand_right"):
            draw = rng.random()
            if draw < 0.7:
                frame[hand] = points(21)
            elif draw < 0.85:
                frame[hand] = None
        names = [j for j in (FIRST_JOINTS if i < change else LATER_JOINTS) if rng.random() < 0.8]
        if rng.random() < 0.3:
            names = list(rng.permutation(names))
        frame["body"] = dict(zip(names, points(len(names)))) if names else rng.choice([None, {}])
        frames.append(frame)
    return frames


def write_pose_lines(path, frames, blank_every=0):
    lines = [json.dumps({"fps": 30.0, "video_id": "v"}), *map(json.dumps, frames)]
    if blank_every:
        lines = [x for k, line in enumerate(lines) for x in ([line, ""] if k % blank_every == 0 else [line])]
    path.write_text("\n".join(lines) + "\n")


class TestReaderMatchesPerFrameReference:
    @pytest.mark.parametrize("chunk", [3, 128])
    @pytest.mark.parametrize(
        "seed, n, kinds",
        [
            (31, 300, ("float",)),
            (32, 260, ("float", "int")),
            (33, 140, ("int", "big")),
            (34, 300, ("float", "int", "big")),
            (35, 1, ("float",)),
            (36, 128, ("float", "big")),
        ],
    )
    def test_same_arrays_and_joints(self, tmp_path, monkeypatch, chunk, seed, n, kinds):
        monkeypatch.setattr(pose, "_CHUNK_FRAMES", chunk)
        rng = np.random.default_rng(seed)
        path = tmp_path / "video.jsonl"
        write_pose_lines(path, random_pose_frames(rng, n, kinds), blank_every=int(rng.integers(0, 7)))
        new, old = read_pose_jsonl(path), ref_read_pose_jsonl(path)
        assert new.joints == old.joints and (new.fps, new.video_id) == (old.fps, old.video_id)
        for name in ARRAYS:
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    ODD_COORDINATES = (True, False, "0.5", None, [0.5], {}, [0.5, 0.5])
    ODD_POINTS = (True, None, 0.5, "ab", [], [0.5], [0.5, 0.5, 0.5], [True, 0.5], {"x": 0.5, "y": 0.5})
    ODD_HANDS = (5, "x", True, {}, [], [[0.5, 0.5]] * 20, [[0.5, 0.5]] * 22, [[0.5] * 21] * 2)
    ODD_BODIES = ([], 5, "x", True)
    ODD_TIMES = ("0", None, True, [0.0])

    def mutate(self, rng, frame):
        """The frame with one of its points, a hand, its body or its time made malformed."""
        frame = json.loads(json.dumps(frame))
        hands = [h for h in ("hand_left", "hand_right") if frame.get(h)]
        joints = list(frame["body"] or {})
        what = rng.choice(["coordinate", "point", "hand", "body", "time"])
        if what in ("coordinate", "point") and (hands or joints):
            k = int(rng.integers(len(hands) + len(joints)))
            points = frame[hands[k]] if k < len(hands) else frame["body"]
            key = int(rng.integers(21)) if k < len(hands) else joints[k - len(hands)]
            if what == "coordinate":
                points[key][int(rng.integers(2))] = self.ODD_COORDINATES[rng.integers(len(self.ODD_COORDINATES))]
            else:
                points[key] = self.ODD_POINTS[rng.integers(len(self.ODD_POINTS))]
        elif what == "hand":
            frame[rng.choice(["hand_left", "hand_right"])] = self.ODD_HANDS[rng.integers(len(self.ODD_HANDS))]
        elif what == "body":
            frame["body"] = self.ODD_BODIES[rng.integers(len(self.ODD_BODIES))]
        else:
            frame["t"] = self.ODD_TIMES[rng.integers(len(self.ODD_TIMES))]
        return frame

    @pytest.mark.parametrize("chunk", [3, 128])
    def test_both_refuse_a_malformed_frame_and_the_new_one_names_its_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(pose, "_CHUNK_FRAMES", chunk)
        rng = np.random.default_rng(37)
        path = tmp_path / "bad.jsonl"
        for _ in range(300):
            frames = random_pose_frames(rng, 12, ("float", "int", "big"))
            bad = int(rng.integers(12))
            frames[bad] = self.mutate(rng, frames[bad])
            write_pose_lines(path, frames)
            with pytest.raises(PoseError):
                ref_read_pose_jsonl(path)
            with pytest.raises(PoseError, match=f"bad.jsonl:{bad + 2}: "):
                read_pose_jsonl(path)
