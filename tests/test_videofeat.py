import numpy as np
import pytest

from textovision.formats import item_id_of
from textovision.retrieval import VisualFeature
from textovision.videofeat import (
    AudioFeature,
    FrameFeatureSet,
    concat_visual_audio,
    group_frames,
    mean_pool,
)


class TestMeanPool:
    def test_two_frames(self):
        pooled = mean_pool(FrameFeatureSet("v", np.array([[1.0, 3.0], [3.0, 5.0]])))
        assert pooled.item_id == "v"
        assert pooled.values.tolist() == [2.0, 4.0]

    def test_single_frame_identity(self):
        frame = np.array([[0.5, 1.5, 2.5]])
        pooled = mean_pool(FrameFeatureSet("v", frame))
        assert np.array_equal(pooled.values, frame[0])

    def test_three_frames(self):
        pooled = mean_pool(FrameFeatureSet("v", np.array([[0.0, 0.0], [0.0, 0.0], [6.0, 3.0]])))
        assert pooled.values.tolist() == [2.0, 1.0]

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            FrameFeatureSet("v", np.zeros((0, 3)))

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError):
            FrameFeatureSet("v", [[1.0, 2.0], [1.0]])

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(7, 5))
        pooled = mean_pool(FrameFeatureSet("v", frames)).values
        shuffled = mean_pool(FrameFeatureSet("v", frames[rng.permutation(7)])).values
        assert np.allclose(pooled, shuffled, atol=1e-12)
        assert np.all(pooled >= frames.min(axis=0) - 1e-12)
        assert np.all(pooled <= frames.max(axis=0) + 1e-12)

    def test_idempotent_on_identical_frames(self):
        frame = np.array([1.0, 2.0, 3.0])
        pooled = mean_pool(FrameFeatureSet("v", np.stack([frame] * 4)))
        assert np.array_equal(pooled.values, frame)


class TestConcat:
    def test_visual_first_audio_second(self):
        out = concat_visual_audio(
            VisualFeature("v", np.array([1.0, 2.0])), AudioFeature("v", np.array([3.0]))
        )
        assert out.values.tolist() == [1.0, 2.0, 3.0]

    def test_empty_audio_is_identity(self):
        visual = VisualFeature("v", np.array([1.0, 2.0]))
        out = concat_visual_audio(visual, AudioFeature("v", np.zeros(0)))
        assert np.array_equal(out.values, visual.values)

    def test_dims_add(self):
        out = concat_visual_audio(
            VisualFeature("v", np.zeros(2048)), AudioFeature("v", np.zeros(1024))
        )
        assert out.values.shape == (3072,)

    def test_id_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            concat_visual_audio(
                VisualFeature("v1", np.zeros(2)), AudioFeature("v2", np.zeros(2))
            )

    def test_slicing_recovers_both_parts(self):
        rng = np.random.default_rng(4)
        visual = rng.normal(size=6)
        audio = rng.normal(size=3)
        out = concat_visual_audio(
            VisualFeature("v", visual), AudioFeature("v", audio)
        ).values
        assert np.array_equal(out[:6], visual)
        assert np.array_equal(out[6:], audio)


class TestGrouping:
    def test_prefix_before_last_hash(self):
        assert item_id_of("vid42#3") == "vid42"
        assert item_id_of("set#a#7") == "set#a"

    def test_malformed_frame_id(self):
        for frame_id in ("noseparator", "#7"):
            with pytest.raises(ValueError, match=f"'{frame_id}'"):
                group_frames([VisualFeature(frame_id, np.array([1.0]))])

    def test_groups_in_first_appearance_order(self):
        rows = [
            VisualFeature("b#0", np.array([1.0])),
            VisualFeature("a#0", np.array([2.0])),
            VisualFeature("b#1", np.array([3.0])),
        ]
        groups = group_frames(rows)
        assert [g.video_id for g in groups] == ["b", "a"]
        assert groups[0].frames.tolist() == [[1.0], [3.0]]
