"""Pose ingestion, handedness, imputation, normalization, features."""

import json
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from sequences import pose_sequence

from signscribe.pose import (
    BODY_DEFAULT_JOINTS,
    FINGERSPELLING_FEATURES,
    ISR_ONE_HAND_FEATURES,
    ISR_TWO_HAND_FEATURES,
    ChannelEmptyError,
    FeatureSpec,
    Hand,
    NoHandsError,
    NoShouldersError,
    PoseError,
    VideoFeatures,
    hand_joint_std,
    impute_missing,
    mirror_flip,
    normalize_body,
    normalize_hand,
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
        np.testing.assert_allclose(flipped.channel("body:left_shoulder")[0][0], [0.25, 0.3])
        np.testing.assert_allclose(flipped.channel("body:right_shoulder")[0][0], [0.75, 0.3])


class TestImputeMissing:
    def test_nearest_rule(self):
        rng = np.random.default_rng(1)
        h0, h3 = grid_hand(rng), grid_hand(rng)
        seq = pose_sequence(np.arange(4) / 30, hand_right=hands_at(4, {0: h0, 3: h3}))
        seq = impute_missing(seq, ["hand_right"])
        np.testing.assert_array_equal(seq.hand_right[1], h0)
        np.testing.assert_array_equal(seq.hand_right[2], h3)
        assert seq.right_present.all()

    def test_tie_prefers_earlier(self):
        rng = np.random.default_rng(2)
        h0, h2 = grid_hand(rng), grid_hand(rng)
        seq = pose_sequence(np.arange(3) / 30, hand_right=hands_at(3, {0: h0, 2: h2}))
        seq = impute_missing(seq, ["hand_right"])
        np.testing.assert_array_equal(seq.hand_right[1], h0)

    def test_identity_when_fully_populated(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng, n=5)
        imputed = impute_missing(seq)
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(imputed, name), getattr(seq, name))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        seq = make_sequence(rng, n=9, left_every=3)
        once = impute_missing(seq)
        twice = impute_missing(once)
        np.testing.assert_array_equal(once.hand_left, twice.hand_left)

    def test_single_valid_frame_broadcasts(self):
        rng = np.random.default_rng(7)
        h = grid_hand(rng)
        seq = impute_missing(pose_sequence(np.arange(4) / 30, hand_right=hands_at(4, {1: h})), ["hand_right"])
        for points in seq.hand_right:
            np.testing.assert_array_equal(points, h)

    def test_channel_empty_error(self):
        seq = pose_sequence([0.0], hand_right=np.full((1, 21, 2), 0.5))
        with pytest.raises(ChannelEmptyError):
            impute_missing(seq, ["hand_left"])


class TestNormalizeHand:
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
        out = normalize_body(body, BODY_DEFAULT_JOINTS)
        np.testing.assert_allclose(out, [0.0, 1.0, -0.5, 0.0, 0.5, 0.0] + [0.0] * 12, atol=1e-12)

    def test_below_hip_joints_removed(self):
        rng = np.random.default_rng(11)
        body = rng.uniform(0.2, 0.8, size=(len(BODY_DEFAULT_JOINTS), 2))
        with_knee = np.concatenate([body, [[0.5, 0.9]]])
        joints = (*BODY_DEFAULT_JOINTS, "left_knee")
        assert normalize_body(body, BODY_DEFAULT_JOINTS).shape == (2 * len(BODY_DEFAULT_JOINTS),)
        np.testing.assert_array_equal(normalize_body(with_knee, joints), normalize_body(body, BODY_DEFAULT_JOINTS))
        # columns are found by name, in any order
        np.testing.assert_array_equal(
            normalize_body(with_knee[::-1], joints[::-1]), normalize_body(body, BODY_DEFAULT_JOINTS)
        )

    def test_scale_invariance_about_midpoint(self):
        rng = np.random.default_rng(11)
        body = rng.uniform(0.2, 0.8, size=(len(BODY_DEFAULT_JOINTS), 2))
        mid = (body[1] + body[2]) / 2
        scaled = mid + 2.5 * (body - mid)
        np.testing.assert_allclose(
            normalize_body(body, BODY_DEFAULT_JOINTS), normalize_body(scaled, BODY_DEFAULT_JOINTS), atol=1e-9
        )

    def test_missing_shoulders(self):
        with pytest.raises(NoShouldersError):
            normalize_body(np.array([[0.5, 0.2]]), ("nose",))

    def test_missing_joint(self):
        with pytest.raises(PoseError, match="'left_hip' missing"):
            normalize_body(np.zeros((8, 2)), tuple(j for j in BODY_DEFAULT_JOINTS if j != "left_hip"))


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

    def test_columns_of_groups_that_are_not_adjacent(self):
        seq = make_sequence(np.random.default_rng(17), n=5)
        two = VideoFeatures(seq).rows(ISR_TWO_HAND_FEATURES)
        rows = VideoFeatures(seq).rows(FeatureSpec(dominant_hand=False, non_dominant_hand=True, body=True))
        assert rows.tobytes() == np.concatenate([two[:, :18], two[:, 60:]], axis=1).tobytes()

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
        for name in seq.joints:
            np.testing.assert_array_equal(loaded.channel("body:" + name)[0], seq.channel("body:" + name)[0])
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
        ],
    )
    def test_reader_rejects(self, tmp_path, header, record):
        first = {"t": 0.0, "hand_left": None, "hand_right": [[0.5, 0.5]] * 21, "body": None}
        second = {**first, "t": 1 / 30, **record}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in (header, first, second)) + "\n")
        with pytest.raises(PoseError):
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


SPECS = {
    "fingerspelling": (FINGERSPELLING_FEATURES, FINGERSPELLING_FEATURES),
    "isr_two_hand": (ISR_TWO_HAND_FEATURES, ISR_TWO_HAND_FEATURES),
    "isr_one_hand": (ISR_TWO_HAND_FEATURES, ISR_ONE_HAND_FEATURES),
}


def assert_matches_reference(seq):
    """Feature rows equal to the reference's for every spec, or the same error.

    The specs are asked of one shared :class:`VideoFeatures`, in the order
    the pipeline asks for them; an expected error is asked of a fresh one
    with the spec the reference prepared for. Returns the names of the
    specs whose features were built.
    """
    frames = frames_of(seq)
    video = VideoFeatures(seq)
    built = []
    for name, (prepare_spec, spec) in SPECS.items():
        try:
            expected = _ref_features(_ref_prepare(frames, prepare_spec), spec)
        except ChannelEmptyError as exc:
            with pytest.raises(ChannelEmptyError) as got:
                VideoFeatures(seq).rows(prepare_spec)
            assert got.value.channel == exc.channel
            continue
        rows = video.rows(spec)
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
# mirror, imputation of its spec's channels) and normalised its own groups.
# The shared features must give every input bit for bit, and a bad video
# must raise the same first error, in the order the pipeline asks: the
# fingerspelling input, then the two ISR inputs.


def _old_prepare_sequence(seq, spec):
    if select_dominant_hand(seq) is Hand.LEFT:
        seq = mirror_flip(seq)
    return impute_missing(seq, channels=spec.channels())


def _old_build_features(seq, spec):
    if not len(seq):
        raise PoseError("empty sequence")
    for channel in spec.channels():
        if not seq.channel(channel)[1].all():
            raise ChannelEmptyError(channel)
    columns = []
    if spec.body:
        columns.append(normalize_body(seq.body, seq.joints))
    for wanted, hands in ((spec.dominant_hand, seq.hand_right), (spec.non_dominant_hand, seq.hand_left)):
        if wanted:
            columns.append(normalize_hand(hands, hand_joint_std(hands)))
    rows = np.concatenate(columns, axis=1)
    if not np.all(np.isfinite(rows)):
        raise PoseError("non-finite feature values")
    return rows


def _old_inputs(seq):
    fs = _old_build_features(_old_prepare_sequence(seq, FINGERSPELLING_FEATURES), FINGERSPELLING_FEATURES)
    yield fs
    prepared = _old_prepare_sequence(seq, ISR_TWO_HAND_FEATURES)
    yield _old_build_features(prepared, ISR_TWO_HAND_FEATURES)
    yield _old_build_features(prepared, ISR_ONE_HAND_FEATURES)


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
