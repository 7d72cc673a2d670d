"""Rank-based retrieval metrics: R@K, median/mean rank, mean inverted
rank, and mean average precision. Stateless and loop-based; pools at
evaluation scale are small.

Metrics are also named: ``r@K`` for any K >= 1, ``medr``, ``meanr``,
``mir`` and ``map``. ``parse_metric_names`` checks a comma-separated
list of names and ``evaluate`` computes the named metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .retrieval import Ranking


@dataclass(frozen=True)
class GroundTruth:
    """Query id to set of relevant item ids."""

    relevance: dict[str, set[str]]

    def __post_init__(self):
        for query_id, items in self.relevance.items():
            if not query_id:
                raise ValueError("ground truth contains an empty query id")
            if not items:
                raise ValueError(f"query {query_id!r} has no relevant item")
            if any(not item for item in items):
                raise ValueError(f"query {query_id!r} has an empty relevant item id")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GroundTruth":
        relevance: dict[str, set[str]] = {}
        for query_id, item_id in pairs:
            relevance.setdefault(query_id, set()).add(item_id)
        return cls(relevance)


def first_relevant_rank(ranking: Ranking, truth: GroundTruth) -> int:
    """1-based position of the highest-ranked relevant item."""
    relevant = truth.relevance.get(ranking.query_id)
    if relevant is None:
        raise ValueError(f"query {ranking.query_id!r} is absent from the ground truth")
    for pos, (item_id, _) in enumerate(ranking.entries, start=1):
        if item_id in relevant:
            return pos
    raise ValueError(f"no relevant item for query {ranking.query_id!r} appears in the ranking")


def recall_at_k(ranks: Sequence[int], k: int) -> float:
    """Percentage of queries whose first relevant item lands in the top k."""
    _check_ranks(ranks)
    if k < 1:
        raise ValueError("k must be >= 1")
    return 100.0 * sum(1 for r in ranks if r <= k) / len(ranks)


def median_rank(ranks: Sequence[int]) -> float:
    """Median first-relevant rank; even counts average the two middle values."""
    _check_ranks(ranks)
    return float(statistics.median(ranks))


def mean_rank(ranks: Sequence[int]) -> float:
    _check_ranks(ranks)
    return statistics.fmean(ranks)


def mean_inverted_rank(ranks: Sequence[int]) -> float:
    """Mean of 1/rank of the first relevant item."""
    _check_ranks(ranks)
    return statistics.fmean(1.0 / r for r in ranks)


def average_precision(ranking: Ranking, truth: GroundTruth) -> float:
    """Mean over relevant items of the precision at that item's rank.

    Only relevant items present in the ranking contribute; the ranking
    must contain at least one.
    """
    relevant = truth.relevance.get(ranking.query_id)
    if relevant is None:
        raise ValueError(f"query {ranking.query_id!r} is absent from the ground truth")
    hits = 0
    precisions = []
    for pos, (item_id, _) in enumerate(ranking.entries, start=1):
        if item_id in relevant:
            hits += 1
            precisions.append(hits / pos)
    if not precisions:
        raise ValueError(f"no relevant item for query {ranking.query_id!r} appears in the ranking")
    return statistics.fmean(precisions)


def mean_average_precision(rankings: Sequence[Ranking], truth: GroundTruth) -> float:
    if not rankings:
        raise ValueError("no rankings to evaluate")
    return statistics.fmean(average_precision(r, truth) for r in rankings)


def _metric(name: str) -> Callable[[list[int], Sequence[Ranking], GroundTruth], float]:
    """The function computing the metric ``name`` from the first-relevant
    ranks, the rankings and the ground truth. It is made per call and
    looks up the module's metric functions when it runs, so a replaced
    module attribute (a profiler's wrapper, say) is the one called."""
    if name.startswith("r@") and name[2:].isdigit() and int(name[2:]) >= 1:
        return lambda ranks, rankings, truth: recall_at_k(ranks, int(name[2:]))
    functions = {
        "medr": lambda ranks, rankings, truth: median_rank(ranks),
        "meanr": lambda ranks, rankings, truth: mean_rank(ranks),
        "mir": lambda ranks, rankings, truth: mean_inverted_rank(ranks),
        "map": lambda ranks, rankings, truth: mean_average_precision(rankings, truth),
    }
    if name not in functions:
        raise ValueError(f"unknown metric name {name!r}")
    return functions[name]


def parse_metric_names(text: str) -> list[str]:
    """The metric names of a comma-separated list, in order; an empty list
    or an unknown name raises ``ValueError``."""
    names = [token.strip() for token in text.split(",") if token.strip()]
    if not names:
        raise ValueError("no metric name given")
    for name in names:
        _metric(name)
    return names


def evaluate(names: Sequence[str], rankings: Sequence[Ranking], truth: GroundTruth) -> list[float]:
    """The value of each named metric over ``rankings``, in ``names`` order."""
    ranks = [first_relevant_rank(r, truth) for r in rankings]
    return [_metric(name)(ranks, rankings, truth) for name in names]


def _check_ranks(ranks: Sequence[int]) -> None:
    if not ranks:
        raise ValueError("rank list is empty")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks are 1-based and must be >= 1")
