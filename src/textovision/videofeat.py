"""Per-video features from precomputed per-frame features: mean pooling,
plus optional concatenation of an audio vector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import item_id_of
from .retrieval import VisualFeature


@dataclass(frozen=True)
class FrameFeatureSet:
    """Ordered per-frame vectors of one video, as a (frames, dim) matrix."""

    video_id: str
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(
                f"video {self.video_id!r} needs at least one frame of uniform dimension"
            )
        object.__setattr__(self, "frames", frames)


@dataclass(frozen=True)
class AudioFeature:
    video_id: str
    values: np.ndarray


def mean_pool(feature_set: FrameFeatureSet) -> VisualFeature:
    """Coordinatewise arithmetic mean across frames."""
    return VisualFeature(feature_set.video_id, feature_set.frames.mean(axis=0))


def concat_visual_audio(visual: VisualFeature, audio: AudioFeature) -> VisualFeature:
    """Visual part first, audio part second; both halves recoverable by slicing."""
    if visual.item_id != audio.video_id:
        raise ValueError(
            f"visual feature {visual.item_id!r} does not match audio feature {audio.video_id!r}"
        )
    combined = np.concatenate(
        [np.asarray(visual.values, dtype=np.float64), np.asarray(audio.values, dtype=np.float64)]
    )
    return VisualFeature(visual.item_id, combined)


def group_frames(rows: Sequence[VisualFeature]) -> list[FrameFeatureSet]:
    """Group frame rows into per-video sets, keeping first-appearance order."""
    grouped: dict[str, list[np.ndarray]] = {}
    order: list[str] = []
    for row in rows:
        video_id = item_id_of(row.item_id)
        if video_id not in grouped:
            grouped[video_id] = []
            order.append(video_id)
        grouped[video_id].append(np.asarray(row.values, dtype=np.float64))
    return [FrameFeatureSet(video_id, np.stack(grouped[video_id])) for video_id in order]
