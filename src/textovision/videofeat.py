"""Per-video features from precomputed per-frame features: mean pooling,
plus optional concatenation of an audio vector. Frame rows are named
``<video_id>#<frame_index>``; inputs and outputs are ``Features`` tables."""

from __future__ import annotations

import numpy as np

from .formats import item_id_of
from .retrieval import Features


def group_frames(frames: Features) -> dict[str, list[int]]:
    """The row indices of each video's frames, videos in first-appearance order."""
    groups: dict[str, list[int]] = {}
    for row, frame_id in enumerate(frames.ids):
        groups.setdefault(item_id_of(frame_id), []).append(row)
    return groups


def mean_pool(frames: Features) -> Features:
    """One row per video: the coordinatewise mean of its (frames, dim) rows."""
    groups = group_frames(frames)
    pooled = np.empty((len(groups), frames.dim))
    for row, rows in zip(pooled, groups.values()):
        frames.matrix[rows].mean(axis=0, out=row)
    return Features(tuple(groups), pooled)


def concat_visual_audio(visual: Features, audio: Features) -> Features:
    """Each visual row followed by the audio row of the same id; both
    halves are recoverable by slicing."""
    audio_row = {item_id: row for row, item_id in enumerate(audio.ids)}
    for item_id in visual.ids:
        if item_id not in audio_row:
            raise ValueError(f"video {item_id!r} has no audio feature row")
    rows = [audio_row[item_id] for item_id in visual.ids]
    return Features(visual.ids, np.hstack([visual.matrix, audio.matrix[rows]]))
