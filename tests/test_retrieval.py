import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textovision.retrieval import Features, Ranking, rank_all

nonzero_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


def vf(item_id, *values):
    """A one-row Features table."""
    return Features((item_id,), np.array([values], dtype=np.float64))


def stack(rows):
    """One Features table from one-row tables, in list order."""
    if not rows:
        return Features((), np.zeros((0, 1)))
    return Features([r.ids[0] for r in rows], np.vstack([r.matrix for r in rows]))


def rank_items(query, candidates):
    """The Ranking of one query row against a list of one-row tables."""
    (ranking,) = rank_all(query, stack(candidates))
    return ranking


def cosine(a, b):
    """The score ``rank_all`` gives one-row candidate ``b`` against query ``a``."""
    (ranking,) = rank_all(vf("a", *a), vf("b", *b))
    (score,) = ranking.scores
    return score


def columns(rankings):
    """Each ranking's query id, item ids and score bits, to compare rankings."""
    return [(r.query_id, list(r.item_ids), np.asarray(r.scores, float).tobytes())
            for r in rankings]


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance(self):
        assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="query 'a' is a zero vector"):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="candidate 'b' is a zero vector"):
            cosine([1.0, 0.0], [0.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="query 'a' has dim 2, candidates have 3"):
            cosine([1.0, 1.0], [1.0, 1.0, 1.0])

    @given(nonzero_vectors, nonzero_vectors)
    def test_symmetry_and_range(self, a, b):
        # rank_all takes a query's norm and the candidates' norms by
        # different numpy paths, so the two orders may differ in the last bit
        s = cosine(a, b)
        assert s == pytest.approx(cosine(b, a), rel=1e-12, abs=1e-12)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestRankItems:
    def test_descending_order(self):
        ranking = rank_items(
            vf("q", 1.0, 0.0), [vf("a", 1.0, 0.0), vf("b", 0.0, 1.0), vf("c", -1.0, 0.0)]
        )
        assert list(ranking.item_ids) == ["a", "b", "c"]
        assert list(ranking.scores) == pytest.approx([1.0, 0.0, -1.0])

    def test_tie_break_by_id(self):
        ranking = rank_items(vf("q", 1.0, 1.0), [vf("zz", 2.0, 2.0), vf("aa", 1.0, 1.0)])
        assert list(ranking.item_ids) == ["aa", "zz"]

    def test_hand_computed_scores(self):
        ranking = rank_items(vf("q", 3.0, 4.0), [vf("u", 3.0, 4.0), vf("v", 4.0, 3.0)])
        assert list(ranking.item_ids) == ["u", "v"]
        assert list(ranking.scores) == pytest.approx([1.0, 24.0 / 25.0])

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
        scaled[which] = Features(candidates[which].ids, candidates[which].matrix * factor)
        after = rank_items(query, scaled)
        assert list(before.item_ids) == list(after.item_ids)
        assert before.scores == pytest.approx(after.scores, abs=1e-12)

    def test_self_retrieval_ranks_first(self):
        rng = np.random.default_rng(23)
        candidates = [vf(f"c{i}", *rng.normal(size=6)) for i in range(10)]
        query = Features(("probe",), candidates[4].matrix.copy())
        candidates.append(Features(("self",), query.matrix.copy()))
        ranking = rank_items(query, candidates)
        # 'c4' shares the vector and wins the tie on id byte order
        assert list(ranking.item_ids[:2]) == ["c4", "self"]
        assert ranking.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert all(s <= 1.0 + 1e-12 for s in ranking.scores)


class TestRankAll:
    def test_single_query_matches_batched_query(self):
        candidates = stack([vf("a", 1.0, 0.0), vf("b", 0.0, 1.0)])
        query = vf("q", 1.0, 0.5)
        batch = stack([query, vf("p", -1.0, 2.0)])
        assert columns(rank_all(query, candidates)) == columns(rank_all(batch, candidates)[:1])

    def test_query_order_preserved_under_permutation(self):
        rng = np.random.default_rng(31)
        candidates = stack([vf(f"c{i}", *rng.normal(size=3)) for i in range(6)])
        queries = [vf(f"q{i}", *rng.normal(size=3)) for i in range(4)]
        forward_order = rank_all(stack(queries), candidates)
        reversed_order = rank_all(stack(queries[::-1]), candidates)
        assert columns(forward_order) == columns(reversed_order[::-1])

    def test_totality_on_large_pool(self):
        rng = np.random.default_rng(47)
        candidates = Features([f"c{i:03d}" for i in range(500)], rng.normal(size=(500, 8)))
        queries = Features([f"q{i:03d}" for i in range(100)], rng.normal(size=(100, 8)))
        rankings = rank_all(queries, candidates)
        assert len(rankings) == 100
        for ranking in rankings:
            assert len(ranking.scores) == 500
            assert len(set(ranking.item_ids)) == 500
            assert all(a >= b for a, b in zip(ranking.scores, ranking.scores[1:]))

    def test_overflowing_scores_are_rejected_naming_the_query(self):
        # finite values whose norms overflow: the cosine would be inf/inf
        with pytest.raises(ValueError, match="query 'q': cosine scores overflow"):
            rank_all(vf("q", 1e200, 1e200), stack([vf("a", 1e200, 1e200)]))


# candidate rows from a small set, so duplicates (exact score ties) and
# rows orthogonal to the query (zero scores) are common; the last two
# queries score (±1, 0) rows -0.0 and +0.0 (the cosine underflows)
TIE_ROWS = [(1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (0.0, -3.0), (-1.0, 0.0), (-0.0, 2.0),
            (1.0, 1.0), (3.0, 3.0), (0.5, -0.5)]
TIE_QUERIES = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-0.0, -2.0), (0.25, -0.25),
               (-1e-200, 1e150), (1e-200, 1e150)]


class TestRankAllMatchesSortedKeyOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(TIE_ROWS), min_size=1, max_size=12),
        st.lists(st.sampled_from(TIE_QUERIES), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_forced_ties(self, rows, query_rows, random):
        # ids whose sorted order differs from file order, with common prefixes
        ids = [f"{name}{i}" for i, name in enumerate(["b", "a", "ab", "B", "é", "a#1"] * 2)]
        ids = ids[: len(rows)]
        random.shuffle(ids)
        candidates = Features(ids, np.array(rows))
        queries = Features([f"q{i}" for i in range(len(query_rows))], np.array(query_rows))
        expected = oracles.rank_all(
            [oracles.VisualFeature(i, np.array(v)) for i, v in zip(queries.ids, query_rows)],
            [oracles.VisualFeature(i, np.array(v)) for i, v in zip(ids, rows)],
        )
        # bit for bit, including the sign of zero scores
        assert columns(rank_all(queries, candidates)) == columns(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(TIE_ROWS), min_size=2, max_size=12),
        st.lists(st.sampled_from(TIE_QUERIES), min_size=1, max_size=4),
        st.sampled_from(["1", "N-1", "N", "N+5"]),
        st.randoms(use_true_random=False),
    )
    def test_top_is_the_head_of_the_full_ranking(self, rows, query_rows, which, random):
        ids = [f"{name}{i}" for i, name in enumerate(["b", "a", "ab", "B", "é", "a#1"] * 2)]
        ids = ids[: len(rows)]
        random.shuffle(ids)
        candidates = Features(ids, np.array(rows))
        queries = Features([f"q{i}" for i in range(len(query_rows))], np.array(query_rows))
        top = {"1": 1, "N-1": len(rows) - 1, "N": len(rows), "N+5": len(rows) + 5}[which]
        heads = [Ranking(r.query_id, r.item_ids[:top], r.scores[:top])
                 for r in rank_all(queries, candidates)]
        assert columns(rank_all(queries, candidates, top=top)) == columns(heads)

    def test_signed_zero_scores_tie_and_order_by_id(self):
        candidates = Features(["z", "m", "a"], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        (ranking,) = rank_all(Features(["q"], [[-1e-200, 1e150]]), candidates)
        assert list(ranking.item_ids) == ["a", "m", "z"]
        scores = ranking.scores
        assert scores[0] == 1.0 and np.signbit(scores[1:]).tolist() == [False, True]

    def test_random_pool_matches_bit_for_bit(self):
        rng = np.random.default_rng(5)
        ids = [f"v{i:03d}" for i in rng.permutation(250)]
        candidates = Features(ids, rng.normal(size=(250, 64)))
        queries = Features([f"s{i}" for i in range(40)], rng.normal(size=(40, 64)))
        expected = oracles.rank_all(
            [oracles.VisualFeature(i, row) for i, row in zip(queries.ids, queries.matrix)],
            [oracles.VisualFeature(i, row) for i, row in zip(candidates.ids, candidates.matrix)],
        )
        assert columns(rank_all(queries, candidates)) == columns(expected)
