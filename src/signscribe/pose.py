"""Precomputed 2-D keypoint ingestion and model input features.

Coordinates are image-normalized (x, y in [0, 1]). A :class:`PoseSequence`
holds a video column by column: (T,) timestamps, each hand as (T, 21, 2),
the named upper-body joints as (T, J, 2), and presence masks per frame
(and per joint). A sequence is built from these arrays or read from a
JSON Lines pose file. Missing channels are filled from the temporally nearest
valid frame before feature extraction; all of this works on whole arrays.

Handedness is resolved per video from the fraction of valid frames per
hand; left-dominant videos are mirrored so the dominant hand always sits
in the right-hand slot.
"""

from __future__ import annotations

import enum
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

HAND_JOINTS = 21
STD_EPS = 1e-6

BODY_DEFAULT_JOINTS = (
    "nose",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
)

# Hand channel -> the PoseSequence field holding its per-frame presence.
_PRESENT = {"hand_left": "left_present", "hand_right": "right_present"}
_ARRAY_FIELDS = ("hand_left", "hand_right", "left_present", "right_present", "body", "body_present")


class PoseError(ValueError):
    pass


class NoHandsError(PoseError):
    pass


class ChannelEmptyError(PoseError):
    def __init__(self, channel: str):
        self.channel = channel
        super().__init__(f"channel {channel!r} is absent in every frame")


class NoShouldersError(PoseError):
    pass


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """A video's keypoints, one array row per frame.

    Rows whose presence flag is off hold filler and are never read. Build
    a sequence from these arrays, or read one with :func:`read_pose_jsonl`.
    """

    timestamps: np.ndarray  # (T,) seconds, strictly increasing
    hand_left: np.ndarray  # (T, 21, 2)
    hand_right: np.ndarray  # (T, 21, 2)
    left_present: np.ndarray  # (T,) bool
    right_present: np.ndarray  # (T,) bool
    body: np.ndarray  # (T, J, 2); column j holds joint joints[j]
    body_present: np.ndarray  # (T, J) bool
    joints: tuple[str, ...]
    fps: float
    video_id: str = ""

    def __post_init__(self):
        if not self.fps > 0:
            raise PoseError("fps must be positive")
        if not np.all(np.diff(self.timestamps) > 0):
            raise PoseError("timestamps must be strictly increasing")
        if not (np.isfinite(self.hand_left).all() and np.isfinite(self.hand_right).all()):
            raise PoseError("non-finite hand coordinates")
        bad = ~np.isfinite(self.body).all(axis=(0, 2))
        if bad.any():
            raise PoseError(f"non-finite body joint {self.joints[int(np.argmax(bad))]!r}")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def frames(self) -> PoseSequence:
        """This sequence. Kept only because the benchmark harness
        (``perfbench/workloads.py``) counts frames with ``len(seq.frames)``."""
        return self

    def channel(self, name: str) -> tuple[np.ndarray | None, np.ndarray]:
        """Points (T, ..., 2) and (T,) presence flags of a channel, as views.

        Channels are ``"hand_left"``, ``"hand_right"`` and ``"body:<joint>"``;
        an unknown one has no points and is present nowhere.
        """
        if name in _PRESENT:
            return getattr(self, name), getattr(self, _PRESENT[name])
        joint = name.removeprefix("body:")
        if name.startswith("body:") and joint in self.joints:
            j = self.joints.index(joint)
            return self.body[:, j], self.body_present[:, j]
        return None, np.zeros(len(self), dtype=bool)


def _points(value, shape: tuple[int, int], what: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise PoseError(f"{what} must be {shape} numbers: {exc}") from None
    if a.shape != shape:
        raise PoseError(f"{what} must be {shape}, got {a.shape}")
    return a


def _from_records(
    records: Iterable[tuple], num_frames: int, fps: float, video_id: str
) -> PoseSequence:
    """Write (timestamp, hand_left, hand_right, body) records into preallocated arrays.

    A body joint gets a column when first seen. The columns of each distinct
    tuple of joint names are looked up once, as a slice when consecutive.
    """
    ts = np.zeros(num_frames)
    hands = np.zeros((2, num_frames, HAND_JOINTS, 2))
    hand_present = np.zeros((2, num_frames), dtype=bool)
    body = np.zeros((num_frames, 0, 2))
    body_present = np.zeros((num_frames, 0), dtype=bool)
    joints: list[str] = []
    columns: dict[tuple[str, ...], slice | list[int]] = {}
    for i, (t, hand_left, hand_right, frame_body) in enumerate(records):
        ts[i] = t
        for k, hand in enumerate((hand_left, hand_right)):
            if hand is not None:
                hands[k, i] = _points(hand, (HAND_JOINTS, 2), "hand")
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
        body[i, columns[names]] = _points(list(frame_body.values()), (len(names), 2), "body joints")
        body_present[i, columns[names]] = True
    return PoseSequence(
        ts, hands[0], hands[1], hand_present[0], hand_present[1],
        body, body_present, tuple(joints), fps, video_id,
    )


class Hand(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def select_dominant_hand(seq: PoseSequence) -> Hand:
    """Pick the hand present in more frames; ties break to the right hand."""
    n = len(seq)
    if not n:
        raise PoseError("empty sequence")
    left = np.count_nonzero(seq.left_present) / n
    right = np.count_nonzero(seq.right_present) / n
    if left == 0.0 and right == 0.0:
        raise NoHandsError("no hand present in any frame")
    return Hand.LEFT if left > right else Hand.RIGHT


def _mirror_joint_name(name: str) -> str:
    if name.startswith("left_"):
        return "right_" + name[5:]
    if name.startswith("right_"):
        return "left_" + name[6:]
    return name


def _mirror_points(points: np.ndarray) -> np.ndarray:
    out = points.copy()
    out[..., 0] = 1.0 - out[..., 0]
    return out


def mirror_flip(seq: PoseSequence) -> PoseSequence:
    """Reflect x -> 1 - x and swap left/right hand slots and body joints."""
    return replace(
        seq,
        hand_left=_mirror_points(seq.hand_right),
        hand_right=_mirror_points(seq.hand_left),
        left_present=seq.right_present,
        right_present=seq.left_present,
        body=_mirror_points(seq.body),
        joints=tuple(_mirror_joint_name(name) for name in seq.joints),
    )


def _nearest_present(ts: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Index of the temporally nearest present frame, for every frame.

    A present frame maps to itself; a tie maps to the earlier frame.
    """
    valid = np.flatnonzero(present)
    valid_ts = ts[valid]
    after = np.searchsorted(valid_ts, ts)  # first valid frame at or after each t
    later = np.minimum(after, len(valid) - 1)
    earlier = np.maximum(after - 1, 0)
    take_later = np.abs(valid_ts[later] - ts) < np.abs(valid_ts[earlier] - ts)
    return valid[np.where(take_later, later, earlier)]


def _impute_channel(seq: PoseSequence, channel: str) -> None:
    """Fill a channel's missing frames in place; raise if it is valid nowhere."""
    points, present = seq.channel(channel)
    if not present.any():
        raise ChannelEmptyError(channel)
    if present.all():
        return
    points[:] = points[_nearest_present(seq.timestamps, present)]
    present[:] = True


def impute_missing(seq: PoseSequence, channels: list[str] | None = None) -> PoseSequence:
    """Copy each missing channel from the temporally nearest valid frame.

    Distance is measured on timestamps; ties prefer the earlier frame.
    Raises :class:`ChannelEmptyError` for a requested channel valid nowhere.
    By default every channel present in some frame is filled.
    """
    if channels is None:
        channels = [*_PRESENT, *("body:" + joint for joint in seq.joints)]
        channels = [c for c in channels if seq.channel(c)[1].any()]
    seq = replace(seq, **{name: getattr(seq, name).copy() for name in _ARRAY_FIELDS})
    for channel in channels:
        _impute_channel(seq, channel)
    return seq


def hand_joint_std(hands: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Per-joint, per-axis deviation scale over a video.

    Computed on mean-centered hands (each frame re-centered on its own 2-D
    hand mean) so the statistic reflects articulation, not translation.
    Floored at STD_EPS to guard frozen joints.
    """
    stack = np.asarray(hands)
    std = (stack - stack.mean(axis=1, keepdims=True)).std(axis=0)
    return np.maximum(std, STD_EPS)


def normalize_hand(hand: np.ndarray, std: np.ndarray | None = None) -> np.ndarray:
    """Center on the 2-D hand mean, scale per joint, flatten to 42 values.

    ``hand`` is one frame's (21, 2) points or a video's (T, 21, 2).
    """
    centered = hand - hand.mean(axis=-2, keepdims=True)
    if std is not None:
        centered = centered / std
    return centered.reshape(*hand.shape[:-2], -1)


def normalize_body(body: np.ndarray, joints: tuple[str, ...]) -> np.ndarray:
    """Center on the shoulder midpoint and scale by shoulder width.

    ``body`` is one frame's (J, 2) points or a video's (T, J, 2), column j
    holding joint ``joints[j]``. The output holds the
    :data:`BODY_DEFAULT_JOINTS`, in that order, flattened to 2 values each;
    other joints are ignored.
    """
    if "left_shoulder" not in joints or "right_shoulder" not in joints:
        raise NoShouldersError("both shoulders are required for body normalization")
    missing = [name for name in BODY_DEFAULT_JOINTS if name not in joints]
    if missing:
        raise PoseError(f"body joint {missing[0]!r} missing after imputation")
    points = body[..., [joints.index(name) for name in BODY_DEFAULT_JOINTS], :]
    ls, rs = points[..., 1, :], points[..., 2, :]  # BODY_DEFAULT_JOINTS[1:3]
    mid = (ls + rs) / 2.0
    gap = ls - rs
    # A dot product, as np.linalg.norm takes for one vector: BLAS may fuse
    # its multiply-add, so a plain sum of squares can round differently.
    width = np.sqrt(np.matmul(gap[..., None, :], gap[..., :, None])[..., 0, 0])
    width = np.maximum(width, STD_EPS)[..., None, None]
    return ((points - mid[..., None, :]) / width).reshape(*points.shape[:-2], -1)


# Column groups of the network inputs, in column order: the channels each reads
# and the columns it fills.
_GROUP_CHANNELS = {
    "body": tuple("body:" + joint for joint in BODY_DEFAULT_JOINTS),
    "dominant_hand": ("hand_right",),
    "non_dominant_hand": ("hand_left",),
}
_BODY_DIM = 2 * len(BODY_DEFAULT_JOINTS)
_HAND_DIM = 2 * HAND_JOINTS
_GROUP_COLUMNS = {
    "body": slice(0, _BODY_DIM),
    "dominant_hand": slice(_BODY_DIM, _BODY_DIM + _HAND_DIM),
    "non_dominant_hand": slice(_BODY_DIM + _HAND_DIM, _BODY_DIM + 2 * _HAND_DIM),
}


@dataclass(frozen=True)
class FeatureSpec:
    """Channel groups concatenated per frame: body, dominant hand, non-dominant hand."""

    dominant_hand: bool = True
    non_dominant_hand: bool = False
    body: bool = False

    @property
    def dim(self) -> int:
        return sum(_GROUP_COLUMNS[g].stop - _GROUP_COLUMNS[g].start for g in self.groups())

    def groups(self) -> list[str]:
        return [group for group in _GROUP_CHANNELS if getattr(self, group)]

    def channels(self) -> list[str]:
        return [channel for group in self.groups() for channel in _GROUP_CHANNELS[group]]


FINGERSPELLING_FEATURES = FeatureSpec(dominant_hand=True)
ISR_TWO_HAND_FEATURES = FeatureSpec(dominant_hand=True, non_dominant_hand=True, body=True)
ISR_ONE_HAND_FEATURES = FeatureSpec(dominant_hand=True, non_dominant_hand=False, body=True)


class VideoFeatures:
    """A video's network inputs, built from one shared preparation.

    The column groups sit side by side in one (T, body + dominant hand +
    non-dominant hand) matrix, and each input is a column selection of it:
    the fingerspelling input is the dominant-hand columns and the ISR
    one-hand input the first columns of the two-hand input. The video is
    resolved for handedness (and mirrored when left-dominant) once, each
    channel is imputed once and each group normalised once, when an input
    first needs it. The dominant hand is read from the right-hand slot.

    Work runs in the order the inputs are asked for, so a bad video raises
    the error that preparing each input on its own would: an empty or
    handless video first, then the first of the spec's channels valid in no
    frame, then non-finite feature values.
    """

    def __init__(self, seq: PoseSequence):
        self._source = seq
        self._seq: PoseSequence | None = None  # prepared copy, until every group is built
        self._imputed: set[str] = set()
        self._built: set[str] = set()
        self._columns = np.empty((len(seq), _BODY_DIM + 2 * _HAND_DIM))

    @classmethod
    def of(cls, video: PoseSequence | VideoFeatures) -> VideoFeatures:
        return video if isinstance(video, VideoFeatures) else cls(video)

    def rows(self, spec: FeatureSpec) -> np.ndarray:
        """(T, spec.dim) feature rows; the caller must not write to them."""
        groups = spec.groups()
        todo = [group for group in groups if group not in self._built]
        if todo:
            self._build([c for c in spec.channels() if c not in self._imputed], todo)
        columns = [_GROUP_COLUMNS[group] for group in groups]
        if columns[-1].stop - columns[0].start == spec.dim:  # adjacent groups
            return np.ascontiguousarray(self._columns[:, columns[0].start : columns[-1].stop])
        return np.concatenate([self._columns[:, c] for c in columns], axis=1)

    def _build(self, channels: list[str], groups: list[str]) -> None:
        if self._seq is None:
            seq = self._source
            if select_dominant_hand(seq) is Hand.LEFT:
                seq = mirror_flip(seq)
            self._seq = impute_missing(seq, channels=channels)
        else:
            for channel in channels:
                _impute_channel(self._seq, channel)
        self._imputed.update(channels)
        for group in groups:
            if group == "body":
                rows = normalize_body(self._seq.body, self._seq.joints)
            else:
                hands = self._seq.channel(_GROUP_CHANNELS[group][0])[0]
                rows = normalize_hand(hands, hand_joint_std(hands))
            if not np.all(np.isfinite(rows)):
                raise PoseError("non-finite feature values")
            self._columns[:, _GROUP_COLUMNS[group]] = rows
            self._built.add(group)
        if len(self._built) == len(_GROUP_COLUMNS):
            self._seq = None  # no input reads it again


# --- JSON Lines pose file format ------------------------------------------
#
# Line 1 (header): {"fps": <number>, "video_id": <string>}
# Lines 2..N:      {"t": <seconds>,
#                   "hand_left":  [[x, y] * 21] | null,
#                   "hand_right": [[x, y] * 21] | null,
#                   "body": {"<joint>": [x, y], ...} | null}


def write_pose_jsonl(path: str | Path, seq: PoseSequence) -> None:
    """Write one line per frame; absent hands are null and absent joints left out."""
    by_name = sorted(range(len(seq.joints)), key=seq.joints.__getitem__)
    lines = [json.dumps({"fps": seq.fps, "video_id": seq.video_id})]
    columns = (getattr(seq, name).tolist() for name in ("timestamps", *_ARRAY_FIELDS))
    for t, left, right, has_left, has_right, body, has_body in zip(*columns):
        joints = {seq.joints[j]: body[j] for j in by_name if has_body[j]}
        lines.append(
            json.dumps(
                {
                    "t": t,
                    "hand_left": left if has_left else None,
                    "hand_right": right if has_right else None,
                    "body": joints or None,
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _is_number(value) -> bool:
    """An int or float within the finite float range; JSON ``true`` decodes to a bool."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _frame_records(path: str | Path, records: Iterable[tuple[int, object]]) -> Iterator[tuple]:
    """(t, hand_left, hand_right, body) of each (line number, decoded line) frame record."""
    for n, r in records:
        if type(r) is not dict or "t" not in r:
            raise PoseError(f"{path}:{n}: a frame must be an object with a 't'")
        if not _is_number(r["t"]):
            raise PoseError(f"{path}:{n}: 't' must be a finite number")
        body = r.get("body")
        if body is not None and type(body) is not dict:
            raise PoseError(f"{path}:{n}: 'body' must be an object or null")
        yield r["t"], r.get("hand_left"), r.get("hand_right"), body


def _decode(path: str | Path, n: int, line: bytes):
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise PoseError(f"{path}:{n}: not a JSON value: {exc}") from None


def read_pose_jsonl(path: str | Path) -> PoseSequence:
    """Read a pose file, writing each frame straight into the sequence's arrays.

    Each line is decoded on its own with ``orjson``, which takes only
    strict JSON: a line that is not a JSON value (truncated, or with a
    ``NaN``/``Infinity`` literal or a number beyond the float range) raises
    :class:`PoseError` naming the file and its 1-based line.
    """
    with open(path, "rb") as fh:
        num_lines = sum(1 for line in fh if line.strip())
        if not num_lines:
            raise PoseError(f"{path} is empty")
        fh.seek(0)
        records = ((n, _decode(path, n, line)) for n, line in enumerate(fh, 1) if line.strip())
        n, header = next(records)
        if type(header) is not dict or "fps" not in header:
            raise PoseError(f"{path}:{n}: the header must be an object with an 'fps'")
        if not _is_number(header["fps"]):
            raise PoseError(f"{path}:{n}: 'fps' must be a finite number")
        video_id = header.get("video_id", "")
        if type(video_id) is not str:
            raise PoseError(f"{path}:{n}: 'video_id' must be a string")
        fps = float(header["fps"])
        return _from_records(_frame_records(path, records), num_lines - 1, fps, video_id)
