"""Text file formats shared by the CLI: sentence files, feature files,
vocabulary listings, relevance pairs, ranking files, and training
history.

Floats are written with ``repr`` (shortest round-tripping form, up to 17
significant digits), so write-then-read reproduces values exactly.
Ranking scores are the one deliberate exception: they are printed with
six decimal digits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .neuralnet import EpochStats
from .retrieval import Ranking, VisualFeature
from .textvec import Sentence


def _float_text(value: float) -> str:
    return repr(float(value))


# -- sentence files: "<sentence_id>\t<text>" ------------------------------


def read_sentences(path: str) -> list[Sentence]:
    sentences: list[Sentence] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            sid, sep, text = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected '<sentence_id>\\t<text>'")
            if not sid:
                raise ValueError(f"{path}:{lineno}: empty sentence id")
            if "\t" in text:
                raise ValueError(f"{path}:{lineno}: text field contains a tab")
            if sid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
            seen.add(sid)
            sentences.append(Sentence(sid, text))
    return sentences


def write_sentences(path: str, sentences: Sequence[Sentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            if not s.id or "\t" in s.id or "\n" in s.id:
                raise ValueError(f"invalid sentence id {s.id!r}")
            if "\t" in s.text or "\n" in s.text:
                raise ValueError(f"sentence {s.id!r}: text must not contain tabs or newlines")
            fh.write(f"{s.id}\t{s.text}\n")


# -- feature files: header "<count> <dim>", rows "<id> v1 ... v_dim" ------


def read_features(path: str) -> list[VisualFeature]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed feature header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: malformed feature header") from None
        if count < 1 or dim < 1:
            raise ValueError(f"{path}: feature header declares count {count}, dim {dim}")

        rows: list[VisualFeature] = []
        seen: set[str] = set()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            item_id = parts[0]
            if len(parts) - 1 != dim:
                raise ValueError(
                    f"{path}:{lineno}: row {item_id!r} has {len(parts) - 1} values, expected {dim}"
                )
            if item_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate item id {item_id!r}")
            seen.add(item_id)
            values = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {item_id!r}")
            rows.append(VisualFeature(item_id, values))
        if len(rows) != count:
            raise ValueError(f"{path}: header declares {count} rows but file has {len(rows)}")
    return rows


def write_features(path: str, features: Sequence[VisualFeature]) -> None:
    if not features:
        raise ValueError("refusing to write an empty feature file")
    dim = len(features[0].values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(features)} {dim}\n")
        for f in features:
            if len(f.values) != dim:
                raise ValueError(f"row {f.item_id!r} has dim {len(f.values)}, expected {dim}")
            values = " ".join(_float_text(v) for v in f.values)
            fh.write(f"{f.item_id} {values}\n")


# -- vocabulary / trigram listings: one entry per line, index order -------


def read_word_list(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        entries = [line.rstrip("\n") for line in fh]
    while entries and entries[-1] == "":
        entries.pop()
    if not entries:
        raise ValueError(f"{path}: empty vocabulary file")
    return entries


def write_word_list(path: str, entries: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry + "\n")


# -- relevance pairs / ground truth: "<query_id>\t<item_id>" --------------


def read_pairs(path: str, unique_left: bool = False) -> list[tuple[str, str]]:
    """All pairs in file order; with ``unique_left`` a repeated left id
    (say, a sentence paired with two items) is an error naming the line."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            left, sep, right = line.partition("\t")
            if not sep or not left or not right:
                raise ValueError(f"{path}:{lineno}: expected '<query_id>\\t<item_id>'")
            if unique_left and left in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {left!r}")
            seen.add(left)
            pairs.append((left, right))
    if not pairs:
        raise ValueError(f"{path}: no pairs found")
    return pairs


def item_id_of(member_id: str) -> str:
    """Sentence ids follow "<item_id>#<n>", and video frame ids
    "<video_id>#<frame_index>"; the item is the prefix before the last '#'."""
    prefix, sep, _ = member_id.rpartition("#")
    if not sep or not prefix:
        raise ValueError(f"id {member_id!r} does not follow '<item_id>#<n>'")
    return prefix


# -- ranking files: "<query_id>\t<item_id>\t<rank>\t<score>" --------------


def write_ranking(path: str, rankings: Sequence[Ranking], top: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ranking in rankings:
            entries = ranking.entries if top is None else ranking.entries[:top]
            for rank, (item_id, score) in enumerate(entries, start=1):
                fh.write(f"{ranking.query_id}\t{item_id}\t{rank}\t{score:.6f}\n")


def read_ranking(path: str) -> list[Ranking]:
    grouped: dict[str, list[tuple[str, float]]] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            query_id, item_id, rank_text, score_text = fields
            if query_id not in grouped:
                grouped[query_id] = []
                order.append(query_id)
            entries = grouped[query_id]
            if int(rank_text) != len(entries) + 1:
                raise ValueError(
                    f"{path}:{lineno}: rank {rank_text} out of order for query {query_id!r}"
                )
            entries.append((item_id, float(score_text)))
    if not order:
        raise ValueError(f"{path}: empty ranking file")
    return [Ranking(query_id, tuple(grouped[query_id])) for query_id in order]


# -- training history: "epoch\ttrain_loss\tval_loss" ----------------------


def write_history(path: str, history: Sequence[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\n")
        for stats in history:
            fh.write(
                f"{stats.epoch}\t{_float_text(stats.train_loss)}\t{_float_text(stats.val_loss)}\n"
            )
