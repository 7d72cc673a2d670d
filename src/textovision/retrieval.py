"""Rank candidate items against query vectors by cosine similarity.

Pure functions over immutable inputs. Ties are broken by ascending
item-id byte order so rankings are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

@dataclass(frozen=True)
class VisualFeature:
    """A d-dimensional vector attached to an image, video, or sentence id."""

    item_id: str
    values: np.ndarray


@dataclass(frozen=True)
class Ranking:
    """Full descending ordering of candidates for one query."""

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def item_ids(self) -> list[str]:
        return [item_id for item_id, _ in self.entries]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / (|a||b|); undefined (and rejected) for zero-norm inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def _candidate_matrix(candidates: Sequence[VisualFeature]) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.stack([np.asarray(c.values, dtype=np.float64) for c in candidates])
    norms = np.linalg.norm(matrix, axis=1)
    for c, norm in zip(candidates, norms):
        if norm == 0.0:
            raise ValueError(f"candidate {c.item_id!r} is a zero vector")
    return matrix, norms


def _rank_one(
    query: VisualFeature,
    candidates: Sequence[VisualFeature],
    matrix: np.ndarray,
    norms: np.ndarray,
) -> Ranking:
    q = np.asarray(query.values, dtype=np.float64)
    if q.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"query {query.item_id!r} has dim {q.shape[0]}, candidates have {matrix.shape[1]}"
        )
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError(f"query {query.item_id!r} is a zero vector")
    scores = (matrix @ q) / (norms * qn)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i].item_id))
    return Ranking(
        query_id=query.item_id,
        entries=tuple((candidates[i].item_id, float(scores[i])) for i in order),
    )


def rank_items(query: VisualFeature, candidates: Sequence[VisualFeature]) -> Ranking:
    """Full descending cosine ordering of ``candidates`` for one query."""
    if not candidates:
        raise ValueError("candidate list is empty")
    matrix, norms = _candidate_matrix(candidates)
    return _rank_one(query, candidates, matrix, norms)


def rank_all(
    queries: Sequence[VisualFeature], candidates: Sequence[VisualFeature]
) -> list[Ranking]:
    """One cosine Ranking per query, in query order."""
    if not candidates:
        raise ValueError("candidate list is empty")
    matrix, norms = _candidate_matrix(candidates)
    return [_rank_one(q, candidates, matrix, norms) for q in queries]
