"""Rank-based retrieval metrics over ``Ranking`` records, in pure Python
(no numpy): ``r@K`` for any K >= 1, ``medr``, ``meanr``, ``mir`` and
``map``. ``parse_metric_names`` checks a comma-separated list of names.
``evaluate`` scans each ranking once for the positions of its query's
relevant items: the first is the query's rank, and the mean precision
at each is its average precision."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class Ranking:
    """Descending ordering of candidates for one query (all, or the best ``L`` under
    ``rank --top L``) as parallel columns: lists, or numpy rows; ``==`` is identity."""

    def __init__(self, query_id: str, item_ids: Sequence[str], scores: Sequence[float]):
        self.query_id = query_id
        self.item_ids = item_ids
        self.scores = scores

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """``(item_id, score)`` pairs, built per access for ``perfbench/tracer.py``."""
        return tuple(zip(self.item_ids, self.scores))


class GroundTruth:
    """Query id to set of relevant item ids."""

    def __init__(self, relevance: dict[str, set[str]]):
        self.relevance = relevance
        for query_id, items in relevance.items():
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


def _recall_k(name: str) -> int | None:
    """K of a metric named ``r@K``; None for any other name."""
    if name.startswith("r@") and name[2:].isdigit() and int(name[2:]) >= 1:
        return int(name[2:])
    return None


def _check_name(name: str) -> None:
    if name not in ("medr", "meanr", "mir", "map") and _recall_k(name) is None:
        raise ValueError(f"unknown metric name {name!r}")


def parse_metric_names(text: str) -> list[str]:
    """The metric names of a comma-separated list, in order; an empty list
    or an unknown name raises ``ValueError``."""
    names = [token.strip() for token in text.split(",") if token.strip()]
    if not names:
        raise ValueError("no metric name given")
    for name in names:
        _check_name(name)
    return names


def evaluate(names: Sequence[str], rankings: Sequence[Ranking], truth: GroundTruth) -> list[float]:
    """The value of each named metric over ``rankings``, in ``names`` order.

    A ranking of length L may hold none of its query's relevant items, as
    after ``rank --top L``. Such a query counts as a miss for ``r@K`` with
    K <= L; any other metric of it is undefined and raises ``ValueError``.
    """
    for name in names:
        _check_name(name)
    if not rankings:
        raise ValueError("no rankings to evaluate")
    positions = []
    for ranking in rankings:
        relevant = truth.relevance.get(ranking.query_id)
        if relevant is None:
            raise ValueError(f"query {ranking.query_id!r} is absent from the ground truth")
        positions.append([pos for pos, item_id in enumerate(ranking.item_ids, start=1)
                          if item_id in relevant])
    # a ranking holding no relevant item ranks its query past its end: a miss for every K <= L
    ranks = [found[0] if found else len(r.item_ids) + 1 for r, found in zip(rankings, positions)]
    shortest = min((r for r, found in zip(rankings, positions) if not found),
                   key=lambda r: len(r.item_ids), default=None)
    values = []
    for name in names:
        k = _recall_k(name)
        if shortest is not None and (k is None or k > len(shortest.item_ids)):
            raise ValueError(
                f"{name} is undefined for query {shortest.query_id!r}: none of its relevant "
                f"items is among its {len(shortest.item_ids)} ranked items "
                f"(the ranking may be truncated, as by rank --top)"
            )
        if k is not None:
            values.append(100.0 * sum(1 for r in ranks if r <= k) / len(ranks))
        elif name == "medr":
            values.append(_median(ranks))
        elif name == "meanr":
            values.append(_mean(ranks))
        elif name == "mir":
            values.append(_mean([1.0 / r for r in ranks]))
        else:
            values.append(_mean([
                _mean([hits / pos for hits, pos in enumerate(found, start=1)])
                for found in positions
            ]))
    return values


def _mean(values: Sequence[float]) -> float:
    """The mean from the correctly rounded sum, as ``statistics.fmean`` gives it."""
    return math.fsum(values) / len(values)


def _median(values: Sequence[int]) -> float:
    """The middle value, or the mean of the middle two, as ``float(statistics.median)``."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2
