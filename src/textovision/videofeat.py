"""Per-video features from precomputed per-frame features: mean pooling,
plus optional concatenation of an audio vector. Frame rows are named
``<video_id>#<frame_index>``; inputs and outputs are ``Features`` tables."""

from __future__ import annotations

import numpy as np

from .formats import item_id_of
from .retrieval import Features

#: audio values ``concat_visual_audio`` gathers at a time (1 MiB)
CONCAT_BLOCK = 131072


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
    out = np.empty((len(visual), visual.dim + audio.dim))
    out[:, : visual.dim] = visual.matrix
    # np.take buffers an ``out`` that is not contiguous, as the audio half
    # is, so it fills that half a bounded block of rows at a time
    step = max(1, CONCAT_BLOCK // max(audio.dim, 1))
    for start in range(0, len(rows), step):
        np.take(audio.matrix, rows[start : start + step], axis=0,
                out=out[start : start + step, visual.dim :])
    return Features(visual.ids, out)
