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


def rank_all(queries: Features, candidates: Features, top: int | None = None) -> list[Ranking]:
    """One cosine Ranking of ``candidates`` per query, in query order: all, or
    the best ``top``, by descending score, then ascending id (``-0.0`` ties
    ``0.0``). One gemv per query fills its row of a score matrix with columns
    in id order, which one stable sort of each row keeps for equal scores;
    ``top`` sorts only the scores >= the row's ``top``-th best (``np.partition``)."""
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
        by_id = np.argsort(np.array(candidates.ids, dtype=object), kind="stable")
        ids, norms = np.array(candidates.ids, dtype=object)[by_id], norms[by_id]

        scores = np.empty((len(queries), len(candidates)))
        for row, query_id, q in zip(scores, queries.ids, queries.matrix):
            qn = np.linalg.norm(q)
            if qn == 0.0:
                raise ValueError(f"query {query_id!r} is a zero vector")
            np.divide((matrix @ q)[by_id], norms * qn, out=row)  # gathered columns: same bits
            if not np.isfinite(row).all():
                raise ValueError(f"query {query_id!r}: cosine scores overflow (values too large)")
    if top is None or top >= len(candidates):
        order = np.argsort(-scores, axis=1, kind="stable")
    else:
        kth = np.partition(scores, -top, axis=1)[:, -top]
        rows, cols = np.nonzero(scores >= kth[:, None])
        kept = cols[np.lexsort((-scores[rows, cols], rows))]  # stable: cols stay ascending
        order = kept[np.searchsorted(rows, np.arange(len(queries)))[:, None] + np.arange(top)]
    ranked = np.take_along_axis(scores, order, axis=1)
    return [Ranking(q, i, s) for q, i, s in zip(queries.ids, ids[order], ranked)]
