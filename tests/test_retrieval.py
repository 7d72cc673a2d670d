import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textovision.retrieval import VisualFeature, cosine, rank_all, rank_items

nonzero_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


def vf(item_id, *values):
    return VisualFeature(item_id, np.array(values, dtype=np.float64))


class TestCosine:
    def test_identical_direction(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariance(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine(np.zeros(2), np.array([1.0, 0.0]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(2), np.ones(3))

    @given(nonzero_vectors, nonzero_vectors)
    def test_symmetry_and_range(self, a, b):
        a = np.array(a)
        b = np.array(b)
        s = cosine(a, b)
        assert s == cosine(b, a)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestRankItems:
    def test_descending_order(self):
        ranking = rank_items(
            vf("q", 1.0, 0.0), [vf("a", 1.0, 0.0), vf("b", 0.0, 1.0), vf("c", -1.0, 0.0)]
        )
        assert ranking.item_ids() == ["a", "b", "c"]
        scores = [s for _, s in ranking.entries]
        assert scores == pytest.approx([1.0, 0.0, -1.0])

    def test_tie_break_by_id(self):
        ranking = rank_items(vf("q", 1.0, 1.0), [vf("zz", 2.0, 2.0), vf("aa", 1.0, 1.0)])
        assert ranking.item_ids() == ["aa", "zz"]

    def test_hand_computed_scores(self):
        ranking = rank_items(vf("q", 3.0, 4.0), [vf("u", 3.0, 4.0), vf("v", 4.0, 3.0)])
        assert ranking.item_ids() == ["u", "v"]
        assert dict(ranking.entries)["v"] == pytest.approx(24.0 / 25.0)
        assert dict(ranking.entries)["u"] == pytest.approx(1.0)

    def test_zero_candidate_named(self):
        with pytest.raises(ValueError, match="'bad'"):
            rank_items(vf("q", 1.0, 0.0), [vf("ok", 1.0, 1.0), vf("bad", 0.0, 0.0)])

    def test_zero_query_named(self):
        with pytest.raises(ValueError, match="'q'"):
            rank_items(vf("q", 0.0, 0.0), [vf("ok", 1.0, 1.0)])

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="empty"):
            rank_items(vf("q", 1.0), [])

    def test_dim_mismatch_names_query(self):
        with pytest.raises(ValueError, match="'q'"):
            rank_items(vf("q", 1.0, 2.0, 3.0), [vf("a", 1.0, 2.0)])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=0, max_value=4))
    def test_scaling_a_candidate_preserves_the_ranking(self, factor, which):
        rng = np.random.default_rng(17)
        candidates = [vf(f"c{i}", *rng.normal(size=4)) for i in range(5)]
        query = vf("q", *rng.normal(size=4))
        before = rank_items(query, candidates)
        scaled = list(candidates)
        scaled[which] = VisualFeature(
            candidates[which].item_id, candidates[which].values * factor
        )
        after = rank_items(query, scaled)
        assert before.item_ids() == after.item_ids()
        assert dict(before.entries)[f"c{which}"] == pytest.approx(
            dict(after.entries)[f"c{which}"], abs=1e-12
        )

    def test_self_retrieval_ranks_first(self):
        rng = np.random.default_rng(23)
        candidates = [vf(f"c{i}", *rng.normal(size=6)) for i in range(10)]
        query = VisualFeature("probe", candidates[4].values.copy())
        candidates.append(VisualFeature("self", query.values.copy()))
        ranking = rank_items(query, candidates)
        # 'c4' shares the vector and wins the tie on id byte order
        assert ranking.item_ids()[:2] == ["c4", "self"]
        top_score = ranking.entries[0][1]
        assert top_score == pytest.approx(1.0, abs=1e-12)
        assert all(s <= 1.0 + 1e-12 for _, s in ranking.entries)


class TestRankAll:
    def test_single_query_matches_rank_items(self):
        candidates = [vf("a", 1.0, 0.0), vf("b", 0.0, 1.0)]
        query = vf("q", 1.0, 0.5)
        assert rank_all([query], candidates) == [rank_items(query, candidates)]

    def test_query_order_preserved_under_permutation(self):
        rng = np.random.default_rng(31)
        candidates = [vf(f"c{i}", *rng.normal(size=3)) for i in range(6)]
        queries = [vf(f"q{i}", *rng.normal(size=3)) for i in range(4)]
        forward_order = rank_all(queries, candidates)
        reversed_order = rank_all(queries[::-1], candidates)
        assert forward_order == reversed_order[::-1]

    def test_totality_on_large_pool(self):
        rng = np.random.default_rng(47)
        candidates = [vf(f"c{i:03d}", *rng.normal(size=8)) for i in range(500)]
        queries = [vf(f"q{i:03d}", *rng.normal(size=8)) for i in range(100)]
        rankings = rank_all(queries, candidates)
        assert len(rankings) == 100
        for ranking in rankings:
            assert len(ranking.entries) == 500
            assert len(set(ranking.item_ids())) == 500
            scores = [s for _, s in ranking.entries]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
