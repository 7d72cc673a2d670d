import numpy as np
import pytest
from oracles import brute_force_metrics

from textovision.metrics import (
    GroundTruth,
    average_precision,
    evaluate,
    first_relevant_rank,
    mean_average_precision,
    mean_inverted_rank,
    mean_rank,
    median_rank,
    parse_metric_names,
    recall_at_k,
)
from textovision.retrieval import Ranking


def ranking(query_id, *item_ids):
    scores = np.linspace(1.0, 0.0, num=len(item_ids))
    return Ranking(query_id, tuple(zip(item_ids, scores)))


class TestFirstRelevantRank:
    def test_second_position(self):
        truth = GroundTruth({"q": {"a"}})
        assert first_relevant_rank(ranking("q", "b", "a", "c"), truth) == 2

    def test_first_position(self):
        truth = GroundTruth({"q": {"a"}})
        assert first_relevant_rank(ranking("q", "a", "b"), truth) == 1

    def test_first_of_several(self):
        truth = GroundTruth({"q": {"a", "b"}})
        assert first_relevant_rank(ranking("q", "c", "b", "a"), truth) == 2

    def test_query_absent(self):
        with pytest.raises(ValueError, match="absent"):
            first_relevant_rank(ranking("q", "a"), GroundTruth({"other": {"a"}}))

    def test_no_relevant_present(self):
        with pytest.raises(ValueError, match="no relevant item"):
            first_relevant_rank(ranking("q", "b", "c"), GroundTruth({"q": {"zzz"}}))


class TestRankStatistics:
    def test_recall_at_k_fixture(self):
        ranks = [1, 3, 7, 12]
        assert recall_at_k(ranks, 5) == 50.0
        assert recall_at_k(ranks, 1) == 25.0
        assert recall_at_k(ranks, 10) == 75.0

    def test_median_and_mean_fixture(self):
        assert median_rank([1, 3, 7, 12]) == 5.0
        assert mean_rank([1, 3, 7, 12]) == 5.75

    def test_single_query(self):
        assert median_rank([4]) == 4.0
        assert mean_rank([4]) == 4.0

    def test_outlier_shifts_mean_not_median(self):
        assert median_rank([2, 2, 2, 100]) == 2.0
        assert mean_rank([2, 2, 2, 100]) == 26.5

    def test_mean_inverted_rank_fixture(self):
        assert mean_inverted_rank([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert mean_inverted_rank([1, 1, 1]) == 1.0
        assert mean_inverted_rank([10]) == pytest.approx(0.1)

    def test_empty_input_rejected(self):
        for fn in (median_rank, mean_rank, mean_inverted_rank):
            with pytest.raises(ValueError):
                fn([])
        with pytest.raises(ValueError):
            recall_at_k([], 5)

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            mean_rank([0])
        with pytest.raises(ValueError):
            recall_at_k([1], 0)


class TestAveragePrecision:
    def test_relevant_at_one_and_three(self):
        truth = GroundTruth({"q": {"a", "b"}})
        ap = average_precision(ranking("q", "a", "x", "b", "y"), truth)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_single_relevant_at_two(self):
        truth = GroundTruth({"q": {"a"}})
        assert average_precision(ranking("q", "x", "a"), truth) == 0.5

    def test_all_relevant(self):
        truth = GroundTruth({"q": {"a", "b", "c"}})
        assert average_precision(ranking("q", "a", "b", "c"), truth) == 1.0

    def test_map_is_mean_of_aps(self):
        truth = GroundTruth({"q1": {"a"}, "q2": {"a"}})
        rankings = [ranking("q1", "a", "b"), ranking("q2", "b", "a")]
        assert mean_average_precision(rankings, truth) == pytest.approx((1.0 + 0.5) / 2.0)


class TestGroundTruth:
    def test_from_pairs_groups_by_query(self):
        truth = GroundTruth.from_pairs([("q1", "a"), ("q1", "b"), ("q2", "c")])
        assert truth.relevance == {"q1": {"a", "b"}, "q2": {"c"}}

    def test_rejects_empty_relevance(self):
        with pytest.raises(ValueError):
            GroundTruth({"q": set()})
        with pytest.raises(ValueError):
            GroundTruth({"": {"a"}})


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(606)
        ks = (1, 5, 10)
        for _ in range(200):
            n_queries = int(rng.integers(1, 11))
            pool = [f"i{j}" for j in range(int(rng.integers(2, 21)))]
            scores = {}
            relevance = {}
            rankings = []
            for qi in range(n_queries):
                query_id = f"q{qi}"
                row = {item: float(rng.normal()) for item in pool}
                n_rel = int(rng.integers(1, len(pool) + 1))
                chosen = rng.choice(len(pool), size=n_rel, replace=False)
                scores[query_id] = row
                relevance[query_id] = {pool[c] for c in chosen}
                ordered = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))
                rankings.append(Ranking(query_id, tuple(ordered)))

            truth = GroundTruth(relevance)
            expected = brute_force_metrics(scores, relevance, ks)

            ranks = [first_relevant_rank(r, truth) for r in rankings]
            assert ranks == expected["ranks"]
            for k in ks:
                assert recall_at_k(ranks, k) == pytest.approx(expected["r_at"][k], abs=1e-12)
            assert median_rank(ranks) == pytest.approx(expected["medr"], abs=1e-12)
            assert mean_rank(ranks) == pytest.approx(expected["meanr"], abs=1e-12)
            assert mean_inverted_rank(ranks) == pytest.approx(expected["mir"], abs=1e-12)
            assert mean_average_precision(rankings, truth) == pytest.approx(
                expected["map"], abs=1e-12
            )


class TestMonotonicity:
    def test_recall_nondecreasing_in_k_and_total_at_pool_size(self):
        ranks = [1, 3, 7, 12, 12]
        values = [recall_at_k(ranks, k) for k in range(1, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0

    def test_improving_a_relevant_rank_never_hurts(self):
        truth = GroundTruth({"q": {"c"}})
        worse = ranking("q", "a", "b", "c", "d")
        better = ranking("q", "a", "c", "b", "d")
        worse_rank = first_relevant_rank(worse, truth)
        better_rank = first_relevant_rank(better, truth)
        assert better_rank < worse_rank
        assert average_precision(better, truth) >= average_precision(worse, truth)
        assert mean_inverted_rank([better_rank]) >= mean_inverted_rank([worse_rank])

    def test_map_is_one_iff_relevant_items_lead_contiguously(self):
        truth = GroundTruth({"q": {"a", "b"}})
        perfect = ranking("q", "a", "b", "x", "y")
        broken = ranking("q", "a", "x", "b", "y")
        assert average_precision(perfect, truth) == 1.0
        assert average_precision(broken, truth) < 1.0


class TestEvaluate:
    def test_full_report(self):
        truth = GroundTruth({"q1": {"a"}, "q2": {"b"}})
        rankings = [ranking("q1", "a", "b", "c"), ranking("q2", "c", "a", "b")]
        names = ["r@1", "r@2", "medr", "meanr", "mir", "map"]
        report = dict(zip(names, evaluate(names, rankings, truth)))
        assert report["r@1"] == report["r@2"] == 50.0
        assert report["medr"] == 2.0
        assert report["meanr"] == 2.0
        assert report["mir"] == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
        assert report["map"] == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    def test_metric_ranges(self):
        truth = GroundTruth({"q": {"a"}})
        map_score, mir, medr = evaluate(["map", "mir", "medr"], [ranking("q", "b", "a")], truth)
        assert 0.0 <= map_score <= 1.0
        assert 0.0 < mir <= 1.0
        assert medr >= 1.0

    def test_values_follow_name_order_with_repeats(self):
        truth = GroundTruth({"q": {"a"}})
        rankings = [ranking("q", "b", "a")]
        assert evaluate(["r@1", "medr", "r@1"], rankings, truth) == [0.0, 2.0, 0.0]

    def test_parse_metric_names(self):
        assert parse_metric_names(" r@5, medr ,,map,r@100") == ["r@5", "medr", "map", "r@100"]
        for bad in ("ndcg", "r@0", "r@", "r@x", "MAP"):
            with pytest.raises(ValueError, match=f"unknown metric name '{bad}'"):
                parse_metric_names(f"r@1,{bad}")
        with pytest.raises(ValueError, match="no metric"):
            parse_metric_names(" , ")
