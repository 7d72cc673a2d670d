import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_metrics

from textovision.metrics import GroundTruth, evaluate, parse_metric_names
from textovision.retrieval import Ranking

DEFAULT_NAMES = ["r@1", "r@5", "r@10", "medr", "meanr", "mir", "map"]


def ranking(query_id, *item_ids):
    scores = np.linspace(1.0, 0.0, num=len(item_ids))
    return Ranking(query_id, list(item_ids), scores)


def rank_of(one, truth):
    """The query's rank: ``meanr`` over its ranking alone."""
    (value,) = evaluate(["meanr"], [one], truth)
    return value


def ranked_at(*ranks):
    """One ranking of ``max(ranks)`` items per rank, holding its query's only
    relevant item at that rank, and their ground truth."""
    size = max(ranks)
    rankings = [
        ranking(f"q{i}", *("rel" if pos == rank else f"x{pos}" for pos in range(1, size + 1)))
        for i, rank in enumerate(ranks)
    ]
    return rankings, GroundTruth({f"q{i}": {"rel"} for i in range(len(ranks))})


class TestFirstRelevantRank:
    def test_second_position(self):
        truth = GroundTruth({"q": {"a"}})
        assert rank_of(ranking("q", "b", "a", "c"), truth) == 2

    def test_first_position(self):
        truth = GroundTruth({"q": {"a"}})
        assert rank_of(ranking("q", "a", "b"), truth) == 1

    def test_first_of_several(self):
        truth = GroundTruth({"q": {"a", "b"}})
        assert rank_of(ranking("q", "c", "b", "a"), truth) == 2

    def test_query_absent(self):
        with pytest.raises(ValueError, match="absent"):
            rank_of(ranking("q", "a"), GroundTruth({"other": {"a"}}))

    def test_no_relevant_present(self):
        with pytest.raises(ValueError, match="none of its relevant items"):
            rank_of(ranking("q", "b", "c"), GroundTruth({"q": {"zzz"}}))


class TestRankStatistics:
    def test_recall_at_k_fixture(self):
        rankings, truth = ranked_at(1, 3, 7, 12)
        assert evaluate(["r@5", "r@1", "r@10"], rankings, truth) == [50.0, 25.0, 75.0]

    def test_median_and_mean_fixture(self):
        assert evaluate(["medr", "meanr"], *ranked_at(1, 3, 7, 12)) == [5.0, 5.75]

    def test_single_query(self):
        assert evaluate(["medr", "meanr"], *ranked_at(4)) == [4.0, 4.0]

    def test_outlier_shifts_mean_not_median(self):
        assert evaluate(["medr", "meanr"], *ranked_at(2, 2, 2, 100)) == [2.0, 26.5]

    def test_mean_inverted_rank_fixture(self):
        assert evaluate(["mir"], *ranked_at(1, 2, 4)) == [pytest.approx((1 + 0.5 + 0.25) / 3)]
        assert evaluate(["mir"], *ranked_at(1, 1, 1)) == [1.0]
        assert evaluate(["mir"], *ranked_at(10)) == [pytest.approx(0.1)]

    def test_empty_input_rejected(self):
        truth = GroundTruth({"q": {"a"}})
        for name in ("medr", "meanr", "mir", "r@5"):
            with pytest.raises(ValueError, match="^no rankings to evaluate$"):
                evaluate([name], [], truth)


class TestAveragePrecision:
    def test_relevant_at_one_and_three(self):
        truth = GroundTruth({"q": {"a", "b"}})
        (ap,) = evaluate(["map"], [ranking("q", "a", "x", "b", "y")], truth)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_single_relevant_at_two(self):
        truth = GroundTruth({"q": {"a"}})
        assert evaluate(["map"], [ranking("q", "x", "a")], truth) == [0.5]

    def test_all_relevant(self):
        truth = GroundTruth({"q": {"a", "b", "c"}})
        assert evaluate(["map"], [ranking("q", "a", "b", "c")], truth) == [1.0]

    def test_map_is_mean_of_aps(self):
        truth = GroundTruth({"q1": {"a"}, "q2": {"a"}})
        rankings = [ranking("q1", "a", "b"), ranking("q2", "b", "a")]
        assert evaluate(["map"], rankings, truth) == [pytest.approx((1.0 + 0.5) / 2.0)]


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
                rankings.append(Ranking(query_id, *zip(*ordered)))

            truth = GroundTruth(relevance)
            expected = brute_force_metrics(scores, relevance, ks)

            assert [rank_of(r, truth) for r in rankings] == expected["ranks"]
            names = [f"r@{k}" for k in ks] + ["medr", "meanr", "mir", "map"]
            report = dict(zip(names, evaluate(names, rankings, truth)))
            for k in ks:
                assert report[f"r@{k}"] == pytest.approx(expected["r_at"][k], abs=1e-12)
            for name in ("medr", "meanr", "mir", "map"):
                assert report[name] == pytest.approx(expected[name], abs=1e-12)


@st.composite
def scored_instances(draw):
    """Scores with ties (broken on item id), a relevant set and a ranking
    length per query."""
    pool = [f"i{j}" for j in range(draw(st.integers(1, 12)))]
    scores, relevance, lengths = {}, {}, {}
    for qi in range(draw(st.integers(1, 6))):
        query_id = f"q{qi}"
        scores[query_id] = {item: draw(st.integers(0, 4)) / 4 for item in pool}
        relevance[query_id] = set(draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
        lengths[query_id] = draw(st.integers(1, len(pool)))
    return scores, relevance, lengths


def oracle_rankings(scores, lengths=None):
    """Each query's items in (-score, id) order, cut to ``lengths[query_id]`` if given."""
    rankings = []
    for query_id, row in scores.items():
        ordered = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))
        if lengths:
            ordered = ordered[: lengths[query_id]]
        rankings.append(Ranking(query_id, *zip(*ordered)))
    return rankings


class TestEvaluateAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(scored_instances())
    def test_default_metrics_equal_the_oracle(self, instance):
        scores, relevance, _ = instance
        expected = brute_force_metrics(scores, relevance, (1, 5, 10))
        values = evaluate(DEFAULT_NAMES, oracle_rankings(scores), GroundTruth(relevance))
        wanted = [expected["r_at"][k] for k in (1, 5, 10)]
        wanted += [expected[name] for name in ("medr", "meanr", "mir", "map")]
        assert values == pytest.approx(wanted, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(scored_instances())
    def test_truncated_rankings_decide_or_name_the_shortest_miss(self, instance):
        scores, relevance, lengths = instance
        expected = brute_force_metrics(scores, relevance, (1, 5, 10))
        rankings = oracle_rankings(scores, lengths)
        truth = GroundTruth(relevance)
        missed = [q for q, rank in zip(scores, expected["ranks"]) if rank > lengths[q]]
        if not missed:
            # every first relevant item survives the cut; only average precision
            # loses the relevant items past it
            wanted = [expected["r_at"][k] for k in (1, 5, 10)]
            wanted += [expected[name] for name in ("medr", "meanr", "mir")]
            assert evaluate(DEFAULT_NAMES[:-1], rankings, truth) == pytest.approx(wanted,
                                                                                 abs=1e-12)
            return
        shortest = min(missed, key=lengths.get)
        length = lengths[shortest]
        name = next(n for n in DEFAULT_NAMES if not n.startswith("r@") or int(n[2:]) > length)
        with pytest.raises(ValueError) as raised:
            evaluate(DEFAULT_NAMES, rankings, truth)
        assert str(raised.value) == (
            f"{name} is undefined for query {shortest!r}: none of its relevant items is among "
            f"its {length} ranked items (the ranking may be truncated, as by rank --top)"
        )


class TestMonotonicity:
    def test_recall_nondecreasing_in_k_and_total_at_pool_size(self):
        rankings, truth = ranked_at(1, 3, 7, 12, 12)
        values = evaluate([f"r@{k}" for k in range(1, 13)], rankings, truth)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0

    def test_improving_a_relevant_rank_never_hurts(self):
        truth = GroundTruth({"q": {"c"}})
        worse = ranking("q", "a", "b", "c", "d")
        better = ranking("q", "a", "c", "b", "d")
        worse_rank, worse_ap, worse_mir = evaluate(["meanr", "map", "mir"], [worse], truth)
        better_rank, better_ap, better_mir = evaluate(["meanr", "map", "mir"], [better], truth)
        assert better_rank < worse_rank
        assert better_ap >= worse_ap
        assert better_mir >= worse_mir

    def test_map_is_one_iff_relevant_items_lead_contiguously(self):
        truth = GroundTruth({"q": {"a", "b"}})
        perfect = ranking("q", "a", "b", "x", "y")
        broken = ranking("q", "a", "x", "b", "y")
        assert evaluate(["map"], [perfect], truth) == [1.0]
        assert evaluate(["map"], [broken], truth)[0] < 1.0


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

    def truncated(self):
        """q1 finds its item at rank 2; q2's item is not among its 3 entries,
        as after ``rank --top 3``."""
        truth = GroundTruth({"q1": {"a"}, "q2": {"z"}})
        return [ranking("q1", "b", "a", "c"), ranking("q2", "a", "b", "c")], truth

    def test_truncated_ranking_counts_a_miss_for_r_at_k_within_its_length(self):
        rankings, truth = self.truncated()
        assert evaluate(["r@1", "r@2", "r@3"], rankings, truth) == [0.0, 50.0, 50.0]

    @pytest.mark.parametrize("name", ["r@4", "medr", "meanr", "mir", "map"])
    def test_truncated_ranking_refuses_metrics_it_cannot_decide(self, name):
        rankings, truth = self.truncated()
        with pytest.raises(ValueError, match=f"{name} is undefined for query 'q2': .* among "
                                             f"its 3 ranked items .*may be truncated"):
            evaluate(["r@1", name], rankings, truth)

    def test_shortest_truncated_ranking_decides(self):
        truth = GroundTruth({"q1": {"z"}, "q2": {"z"}})
        rankings = [ranking("q1", "a", "b", "c"), ranking("q2", "a", "b")]
        assert evaluate(["r@2"], rankings, truth) == [0.0]
        with pytest.raises(ValueError, match="query 'q2'.* its 2 ranked items"):
            evaluate(["r@3"], rankings, truth)

    def test_query_absent_from_truth_still_rejected(self):
        with pytest.raises(ValueError, match="'q' is absent from the ground truth"):
            evaluate(["r@1"], [ranking("q", "a")], GroundTruth({"other": {"a"}}))

    def test_parse_metric_names(self):
        assert parse_metric_names(" r@5, medr ,,map,r@100") == ["r@5", "medr", "map", "r@100"]
        for bad in ("ndcg", "r@0", "r@", "r@x", "MAP"):
            with pytest.raises(ValueError, match=f"unknown metric name '{bad}'"):
                parse_metric_names(f"r@1,{bad}")
        with pytest.raises(ValueError, match="no metric"):
            parse_metric_names(" , ")
