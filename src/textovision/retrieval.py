"""Rank candidate items against query vectors by cosine similarity.

Feature vectors travel as one ``Features`` table: a tuple of ids and a
float64 matrix with one row per id. Ranking is a pure function of its
inputs. Ties are broken by ascending item id (code-point order, which
is UTF-8 byte order), so rankings are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import Ranking


@dataclass(frozen=True, eq=False)
class Features:
    """d-dimensional vectors of images, videos or sentences: ``matrix[i]``
    (C-contiguous float64) belongs to ``ids[i]``; ``len()`` counts rows."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids need as many matrix rows, got {matrix.shape}")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def rank_all(queries: Features, candidates: Features) -> list[Ranking]:
    """One full cosine Ranking of ``candidates`` per query, in query order.

    Each query is scored by one matrix-vector product. Its order is by
    descending score, then ascending id: ``np.lexsort`` on the negated
    scores and each id's position in ``sorted(ids)``, the same order as
    sorting on ``(-score, id)`` (``-0.0`` and ``0.0`` tie).
    """
    if not len(candidates):
        raise ValueError("candidate list is empty")
    if len(queries) and queries.dim != candidates.dim:
        raise ValueError(
            f"query {queries.ids[0]!r} has dim {queries.dim}, candidates have {candidates.dim}"
        )
    # overflowing values are reported as such below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = candidates.matrix
        norms = np.linalg.norm(matrix, axis=1)
        for item_id, norm in zip(candidates.ids, norms):
            if norm == 0.0:
                raise ValueError(f"candidate {item_id!r} is a zero vector")
        ids = np.array(candidates.ids, dtype=object)
        id_rank = np.argsort(np.argsort(ids, kind="stable"))

        rankings = []
        for query_id, q in zip(queries.ids, queries.matrix):
            qn = np.linalg.norm(q)
            if qn == 0.0:
                raise ValueError(f"query {query_id!r} is a zero vector")
            scores = (matrix @ q) / (norms * qn)
            if not np.isfinite(scores).all():
                raise ValueError(f"query {query_id!r}: cosine scores overflow (values too large)")
            order = np.lexsort((id_rank, -scores))
            entries = zip(ids[order].tolist(), scores[order].tolist())
            rankings.append(Ranking(query_id, tuple(entries)))
        return rankings
