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
import itertools
import json
import sys
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

_ARRAY_FIELDS = ("hand_left", "hand_right", "left_present", "right_present", "body", "body_present")


class PoseError(ValueError):
    pass


class NoHandsError(PoseError):
    pass


class ChannelEmptyError(PoseError):
    def __init__(self, channel: str):
        self.channel = channel
        super().__init__(f"channel {channel!r} is absent in every frame")


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


def _imputed(ts: np.ndarray, points: np.ndarray, present: np.ndarray, channel: str) -> np.ndarray:
    """``points`` (T, ..., 2) with each absent frame filled from the temporally
    nearest present frame (ties to the earlier one), as a new array; the
    points themselves when every frame is present. Raises
    :class:`ChannelEmptyError` naming ``channel`` when no frame is present.
    """
    if not present.any():
        raise ChannelEmptyError(channel)
    if present.all():
        return points
    return points[_nearest_present(ts, present)]


def _normalize_hand(hand: np.ndarray) -> np.ndarray:
    """A video's (T, 21, 2) hand as (T, 42) feature rows.

    Each frame is centred on its own 2-D hand mean, once. The centred points
    are scaled per joint and axis by their deviation over the video, floored
    at STD_EPS to guard frozen joints, so the scale reflects articulation,
    not translation.
    """
    centered = hand - hand.mean(axis=1, keepdims=True)
    std = np.maximum(centered.std(axis=0), STD_EPS)
    return (centered / std).reshape(len(hand), -1)


def normalize_body(body: np.ndarray) -> np.ndarray:
    """Center on the shoulder midpoint and scale by shoulder width.

    ``body`` is one frame's (9, 2) or a video's (T, 9, 2)
    :data:`BODY_DEFAULT_JOINTS`, in that order; the output flattens them
    to 2 values each.
    """
    ls, rs = body[..., 1, :], body[..., 2, :]  # BODY_DEFAULT_JOINTS[1:3]
    mid = (ls + rs) / 2.0
    gap = ls - rs
    # A dot product, as np.linalg.norm takes for one vector: BLAS may fuse
    # its multiply-add, so a plain sum of squares can round differently.
    width = np.sqrt(np.matmul(gap[..., None, :], gap[..., :, None])[..., 0, 0])
    width = np.maximum(width, STD_EPS)[..., None, None]
    return ((body - mid[..., None, :]) / width).reshape(*body.shape[:-2], -1)


# The network inputs are column ranges of one (T, body + dominant hand +
# non-dominant hand) matrix; the width of each is its network's input_dim.
_BODY_DIM = 2 * len(BODY_DEFAULT_JOINTS)
_HAND_DIM = 2 * HAND_JOINTS
FINGERSPELLING_FEATURES = range(_BODY_DIM, _BODY_DIM + _HAND_DIM)
ISR_TWO_HAND_FEATURES = range(0, _BODY_DIM + 2 * _HAND_DIM)
ISR_ONE_HAND_FEATURES = range(0, _BODY_DIM + _HAND_DIM)
# The column groups, in column order, named by the prepared sequence's
# field they read: the dominant hand sits in the right-hand slot.
_GROUPS = (
    ("body", range(0, _BODY_DIM)),
    ("hand_right", range(_BODY_DIM, _BODY_DIM + _HAND_DIM)),
    ("hand_left", range(_BODY_DIM + _HAND_DIM, _BODY_DIM + 2 * _HAND_DIM)),
)


def _group_points(seq: PoseSequence, group: str) -> np.ndarray:
    """A column group's points with absent frames imputed: the (T, 9, 2)
    default body joints, or a (T, 21, 2) hand."""
    ts = seq.timestamps
    if group == "hand_right":
        return _imputed(ts, seq.hand_right, seq.right_present, group)
    if group == "hand_left":
        return _imputed(ts, seq.hand_left, seq.left_present, group)
    body = np.empty((len(seq), len(BODY_DEFAULT_JOINTS), 2))
    for k, joint in enumerate(BODY_DEFAULT_JOINTS):
        if joint not in seq.joints:
            raise ChannelEmptyError("body:" + joint)
        j = seq.joints.index(joint)
        body[:, k] = _imputed(ts, seq.body[:, j], seq.body_present[:, j], "body:" + joint)
    return body


class VideoFeatures:
    """A video's network inputs, built from one shared preparation.

    Each input is a column range of one matrix (:data:`FINGERSPELLING_FEATURES`,
    :data:`ISR_TWO_HAND_FEATURES`, :data:`ISR_ONE_HAND_FEATURES`). The video
    is resolved for handedness (and mirrored when left-dominant) once, and
    each column group is imputed and normalised once, when an input first
    needs it, without writing to the video's arrays.

    Work runs in the order the inputs are asked for, so a bad video raises
    the error that preparing each input on its own would: an empty or
    handless video first, then the first of the input's channels (body
    joints, dominant hand, non-dominant hand) valid in no frame, then
    non-finite feature values.
    """

    def __init__(self, seq: PoseSequence):
        self._source = seq
        self._seq: PoseSequence | None = None  # prepared, until every group is built
        self._built: set[str] = set()
        self._columns = np.empty((len(seq), _BODY_DIM + 2 * _HAND_DIM))

    @classmethod
    def of(cls, video: PoseSequence | VideoFeatures) -> VideoFeatures:
        return video if isinstance(video, VideoFeatures) else cls(video)

    def rows(self, columns: range) -> np.ndarray:
        """(T, len(columns)) feature rows; the caller must not write to them."""
        todo = [(g, cols) for g, cols in _GROUPS if cols.start in columns and g not in self._built]
        if todo:
            self._build(todo)
        return np.ascontiguousarray(self._columns[:, columns.start : columns.stop])

    def _build(self, groups: list[tuple[str, range]]) -> None:
        if self._seq is None:
            seq = self._source
            self._seq = mirror_flip(seq) if select_dominant_hand(seq) is Hand.LEFT else seq
        points = [_group_points(self._seq, group) for group, _ in groups]  # absent channels raise first
        for (group, cols), p in zip(groups, points):
            rows = normalize_body(p) if group == "body" else _normalize_hand(p)
            if not np.all(np.isfinite(rows)):
                raise PoseError("non-finite feature values")
            self._columns[:, cols.start : cols.stop] = rows
            self._built.add(group)
        if len(self._built) == len(_GROUPS):
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


def _decode(path: str | Path, n: int, line: bytes):
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise PoseError(f"{path}:{n}: not a JSON value: {exc}") from None


_CHUNK_FRAMES = 128  # frames whose coordinates are converted together


def read_pose_jsonl(path: str | Path) -> PoseSequence:
    """Read a pose file, a chunk of frames at a time, into preallocated arrays.

    Each line is decoded on its own with ``orjson``, which takes only
    strict JSON: a line that is not a JSON value (truncated, or with a
    ``NaN``/``Infinity`` literal or a number beyond the float range) raises
    :class:`PoseError` naming the file and its 1-based line, as does a
    malformed frame: say, a hand that is not 21 [x, y] points of numbers, or
    a ``t`` not greater than the previous frame's.

    A frame's point shapes are checked as it is decoded. Its coordinates go
    onto one flat list per hand and per tuple of body joint names, which is
    type-checked and converted once every :data:`_CHUNK_FRAMES` frames; a bad
    value is traced back to the first of the chunk's lines holding one. A
    body joint gets a column when first seen.
    """
    with open(path, "rb") as fh:
        num_frames = sum(1 for line in fh if line.strip()) - 1
        if num_frames < 0:
            raise PoseError(f"{path} is empty")
        fh.seek(0)
        lines = ((n, line) for n, line in enumerate(fh, 1) if line.strip())
        n, line = next(lines)
        header = _decode(path, n, line)
        if type(header) is not dict or "fps" not in header:
            raise PoseError(f"{path}:{n}: the header must be an object with an 'fps'")
        if not _is_number(header["fps"]):
            raise PoseError(f"{path}:{n}: 'fps' must be a finite number")
        if header["fps"] <= 0:
            raise PoseError(f"{path}:{n}: 'fps' must be positive")
        video_id = header.get("video_id", "")
        if type(video_id) is not str:
            raise PoseError(f"{path}:{n}: 'video_id' must be a string")
        ts = np.zeros(num_frames)
        hands = np.zeros((2, num_frames, HAND_JOINTS, 2))
        hand_present = np.zeros((2, num_frames), dtype=bool)
        body = np.zeros((num_frames, 0, 2))
        body_present = np.zeros((num_frames, 0), dtype=bool)
        joints: list[str] = []
        columns: dict[tuple[str, ...], list[int]] = {}
        last_t = -np.inf
        frames = enumerate(lines)
        for start in range(0, num_frames, _CHUNK_FRAMES):
            line_numbers: list[int] = []
            # hand 0 or 1, or a tuple of joint names -> (its frames, x then y of each one's points)
            chunk: dict[int | tuple[str, ...], tuple[list[int], list]] = {}
            for i, (n, line) in itertools.islice(frames, _CHUNK_FRAMES):
                r = _decode(path, n, line)
                if type(r) is not dict or "t" not in r:
                    raise PoseError(f"{path}:{n}: a frame must be an object with a 't'")
                if not _is_number(r["t"]):
                    raise PoseError(f"{path}:{n}: 't' must be a finite number")
                t = float(r["t"])
                if t <= last_t:
                    raise PoseError(f"{path}:{n}: 't' must be greater than the previous frame's")
                ts[i] = last_t = t
                line_numbers.append(n)
                for k, name in enumerate(("hand_left", "hand_right")):
                    if r.get(name) is not None:
                        try:
                            xs, ys = zip(*r[name], strict=True)
                        except (TypeError, ValueError):
                            xs = ys = ()
                        if len(xs) != HAND_JOINTS:
                            raise PoseError(f"{path}:{n}: {name!r} must be {HAND_JOINTS} [x, y] points")
                        rows, flat = chunk.setdefault(k, ([], []))
                        rows.append(i)
                        flat += xs + ys
                frame_body = r.get("body")
                if frame_body is not None and type(frame_body) is not dict:
                    raise PoseError(f"{path}:{n}: 'body' must be an object or null")
                if frame_body:
                    try:
                        xs, ys = zip(*frame_body.values(), strict=True)
                    except (TypeError, ValueError):
                        raise PoseError(f"{path}:{n}: each body joint must be an [x, y] point") from None
                    names = tuple(frame_body)
                    if names not in columns:
                        joints += [name for name in names if name not in joints]
                        columns[names] = [joints.index(name) for name in names]
                    rows, flat = chunk.setdefault(names, ([], []))
                    rows.append(i)
                    flat += xs + ys
            try:  # ints and floats only: JSON true and false decode to bools
                values = [np.fromiter(flat, float, len(flat)) for _, flat in chunk.values()
                          if set(map(type, flat)) <= {int, float}]
            except OverflowError:  # an int past the float range
                values = []
            if len(values) < len(chunk):
                i = min(rows[j // (len(flat) // len(rows))] for rows, flat in chunk.values()
                        for j, v in enumerate(flat) if not _is_number(v))
                raise PoseError(f"{path}:{line_numbers[i - start]}: a point must hold two finite numbers")
            if len(joints) > body.shape[1]:
                grow = ((0, 0), (0, len(joints) - body.shape[1]))
                body, body_present = np.pad(body, (*grow, (0, 0))), np.pad(body_present, grow)
            for (key, (rows, _)), v in zip(chunk.items(), values):
                points = v.reshape(len(rows), 2, -1).transpose(0, 2, 1)
                if type(key) is int:
                    hands[key, rows], hand_present[key, rows] = points, True
                else:
                    cells = np.ix_(rows, columns[key])
                    body[cells], body_present[cells] = points, True
    return PoseSequence(
        ts, hands[0], hands[1], hand_present[0], hand_present[1],
        body, body_present, tuple(joints), float(header["fps"]), video_id,
    )
