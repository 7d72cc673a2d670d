import tracemalloc

import numpy as np
import pytest

from textovision.formats import item_id_of
from textovision.retrieval import Features
from textovision.videofeat import concat_visual_audio, group_frames, mean_pool


def frames_of(video_id, frames):
    """A frame table for one video: rows '<video_id>#0', '<video_id>#1', ..."""
    frames = np.asarray(frames, dtype=np.float64)
    return Features([f"{video_id}#{k}" for k in range(len(frames))], frames)


def one_row(item_id, values):
    return Features((item_id,), np.asarray(values, dtype=np.float64)[None, :])


class TestMeanPool:
    def test_two_frames(self):
        pooled = mean_pool(frames_of("v", [[1.0, 3.0], [3.0, 5.0]]))
        assert pooled.ids == ("v",)
        assert pooled.matrix.tolist() == [[2.0, 4.0]]

    def test_single_frame_identity(self):
        frame = np.array([[0.5, 1.5, 2.5]])
        pooled = mean_pool(frames_of("v", frame))
        assert np.array_equal(pooled.matrix, frame)

    def test_three_frames(self):
        pooled = mean_pool(frames_of("v", [[0.0, 0.0], [0.0, 0.0], [6.0, 3.0]]))
        assert pooled.matrix.tolist() == [[2.0, 1.0]]

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            Features(("v",), np.zeros((0, 3)))

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError):
            Features(("v#0", "v#1"), [[1.0, 2.0], [1.0]])

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(7, 5))
        pooled = mean_pool(frames_of("v", frames)).matrix[0]
        shuffled = mean_pool(frames_of("v", frames[rng.permutation(7)])).matrix[0]
        assert np.allclose(pooled, shuffled, atol=1e-12)
        assert np.all(pooled >= frames.min(axis=0) - 1e-12)
        assert np.all(pooled <= frames.max(axis=0) + 1e-12)

    def test_idempotent_on_identical_frames(self):
        frame = np.array([1.0, 2.0, 3.0])
        pooled = mean_pool(frames_of("v", np.stack([frame] * 4)))
        assert np.array_equal(pooled.matrix[0], frame)

    def test_interleaved_videos_pool_bit_for_bit_like_per_video_slices(self):
        rng = np.random.default_rng(3)
        ids = [f"v{k % 3}#{k}" for k in range(12)]
        matrix = rng.normal(size=(12, 7)) * 10.0 ** rng.integers(-5, 5, size=(12, 1))
        pooled = mean_pool(Features(ids, matrix))
        assert pooled.ids == ("v0", "v1", "v2")
        for v in range(3):
            assert pooled.matrix[v].tobytes() == np.stack(matrix[v::3]).mean(axis=0).tobytes()

    def test_peak_memory_stays_near_the_output_size(self):
        # 5000 two-frame 64-d videos: a list of pooled rows stacked at the end
        # peaks near three times the output, one preallocated matrix near 1.5x
        rng = np.random.default_rng(6)
        ids = [f"v{v}#{k}" for v in range(5000) for k in range(2)]
        frames = Features(ids, rng.normal(size=(len(ids), 64)))
        tracemalloc.start()
        try:
            pooled = mean_pool(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = pooled.matrix.nbytes
        assert peak <= 2 * size, f"peak {peak / 1e6:.2f} MB for {size / 1e6:.2f} MB of output"


class TestConcat:
    def test_visual_first_audio_second(self):
        out = concat_visual_audio(one_row("v", [1.0, 2.0]), one_row("v", [3.0]))
        assert out.matrix.tolist() == [[1.0, 2.0, 3.0]]

    def test_empty_audio_is_identity(self):
        visual = one_row("v", [1.0, 2.0])
        out = concat_visual_audio(visual, Features(("v",), np.zeros((1, 0))))
        assert np.array_equal(out.matrix, visual.matrix)

    def test_dims_add(self):
        out = concat_visual_audio(one_row("v", np.zeros(2048)), one_row("v", np.zeros(1024)))
        assert out.matrix.shape == (1, 3072)

    def test_id_mismatch(self):
        with pytest.raises(ValueError, match="'v1' has no audio feature row"):
            concat_visual_audio(one_row("v1", np.zeros(2)), one_row("v2", np.zeros(2)))

    def test_slicing_recovers_both_parts(self):
        rng = np.random.default_rng(4)
        visual = rng.normal(size=6)
        audio = rng.normal(size=3)
        out = concat_visual_audio(one_row("v", visual), one_row("v", audio)).matrix[0]
        assert np.array_equal(out[:6], visual)
        assert np.array_equal(out[6:], audio)

    def test_audio_rows_follow_visual_order(self):
        visual = Features(("a", "b"), [[1.0], [2.0]])
        audio = Features(("b", "a", "c"), [[20.0], [10.0], [30.0]])
        out = concat_visual_audio(visual, audio)
        assert out.ids == ("a", "b")
        assert out.matrix.tolist() == [[1.0, 10.0], [2.0, 20.0]]

    def test_peak_memory_stays_near_the_output_size(self):
        # 5000 videos, 32-d visual, 256-d audio in another order: gathering
        # the audio rows whole before joining the halves peaks near twice
        # the output, filling one preallocated matrix in blocks near once
        rng = np.random.default_rng(9)
        visual = Features([f"v{v}" for v in range(5000)], rng.normal(size=(5000, 32)))
        order = rng.permutation(5000)
        audio = Features([f"v{v}" for v in order], rng.normal(size=(5000, 256)))
        tracemalloc.start()
        try:
            out = concat_visual_audio(visual, audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.matrix.nbytes
        assert peak <= 1.25 * size, f"peak {peak / 1e6:.2f} MB for {size / 1e6:.2f} MB of output"
        joined = np.hstack([visual.matrix, audio.matrix[np.argsort(order)]])
        assert out.matrix.tobytes() == joined.tobytes()


class TestGrouping:
    def test_prefix_before_last_hash(self):
        assert item_id_of("vid42#3") == "vid42"
        assert item_id_of("set#a#7") == "set#a"

    def test_malformed_frame_id(self):
        for frame_id in ("noseparator", "#7"):
            with pytest.raises(ValueError, match=f"'{frame_id}'"):
                group_frames(one_row(frame_id, [1.0]))

    def test_groups_in_first_appearance_order(self):
        rows = Features(("b#0", "a#0", "b#1"), [[1.0], [2.0], [3.0]])
        groups = group_frames(rows)
        assert list(groups) == ["b", "a"]
        assert rows.matrix[groups["b"]].tolist() == [[1.0], [3.0]]
