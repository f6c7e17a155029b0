"""Test helper: a pose sequence built from whole arrays."""

import numpy as np

from signscribe.pose import BODY_DEFAULT_JOINTS, HAND_JOINTS, PoseSequence


def pose_sequence(
    timestamps, hand_left=None, hand_right=None, body=None, joints=BODY_DEFAULT_JOINTS, video_id=""
):
    """A 30 fps sequence of (T, 21, 2) hands and a (T, J, 2) body of ``joints``.

    A hand frame or body joint holding a NaN is absent, and so is every
    frame of a channel left out; absent points are stored as zeros.
    """
    ts = np.asarray(timestamps, dtype=float)
    hands = [
        np.full((len(ts), HAND_JOINTS, 2), np.nan) if h is None else np.array(h, dtype=float)
        for h in (hand_left, hand_right)
    ]
    body = np.full((len(ts), len(joints), 2), np.nan) if body is None else np.array(body, dtype=float)
    present = [~np.isnan(h).any(axis=(1, 2)) for h in hands]
    body_present = ~np.isnan(body).any(axis=2)
    return PoseSequence(
        ts,
        *(np.where(p[:, None, None], h, 0.0) for h, p in zip(hands, present)),
        *present,
        np.where(body_present[..., None], body, 0.0),
        body_present,
        tuple(joints),
        30.0,
        video_id,
    )
