"""Text file formats shared by the CLI: sentence files, feature files,
vocabulary listings, relevance pairs, ranking files, and training
history.

Floats are written with ``repr`` (shortest round-tripping form, up to 17
significant digits), so write-then-read reproduces values exactly.
Ranking scores are the one deliberate exception: they are printed with
six decimal digits. A feature file reads into, and is written from, one
``retrieval.Features`` table; so is an embedding file, whose ids are
words. Every file is written through ``atomic_open``: a failed write
leaves any earlier file intact.

Beside each feature file it writes, ``write_features`` leaves a binary
twin, ``<path>.twin``, that holds the same table and one sha256 of the
text's bytes followed by the table's. ``read_features`` loads the table
from the twin only when that digest matches and the twin passes the
text's checks; otherwise it parses the text. The text stays the one
source of truth, so a twin may be deleted at any time. A byte that is not
UTF-8 in any text file is an error naming the file.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
import warnings
from typing import TYPE_CHECKING, Sequence

from .metrics import Ranking

if TYPE_CHECKING:
    from .neuralnet import EpochStats
    from .retrieval import Features
    from .textvec import Sentence


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """A file at ``<path>.<pid>.tmp`` (UTF-8 text, or binary for ``"wb"``)
    that replaces ``path`` once the block completes; on any failure it is
    removed and ``path`` untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _open_text(path: str):
    """``path`` open for reading as UTF-8 text; a byte that is not UTF-8
    is an error naming the file. The decoder's position is left out: it
    counts from the start of the chunk it decoded, not of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


# -- sentence files: "<sentence_id>\t<text>" ------------------------------


def read_sentences(path: str) -> list[Sentence]:
    from .textvec import Sentence

    sentences: list[Sentence] = []
    seen: set[str] = set()
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            sid, sep, text = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected '<sentence_id>\\t<text>'")
            if not sid:
                raise ValueError(f"{path}:{lineno}: empty sentence id")
            if sid.split() != [sid]:
                raise ValueError(f"{path}:{lineno}: sentence id {sid!r} contains whitespace")
            if "\t" in text:
                raise ValueError(f"{path}:{lineno}: text field contains a tab")
            if sid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
            seen.add(sid)
            sentences.append(Sentence(sid, text))
    return sentences


# -- feature files: header "<count> <dim>", rows "<id> v1 ... v_dim" ------
#
# A twin, "<path>.twin", is a 48-byte header, _TWIN_TAG, the text's size
# (8 bytes, little-endian) and the sha256 of the text's bytes followed by
# the payload; then the payload: the matrix as <f8, then the ids in UTF-8
# joined by "\n". The header keeps the matrix 8-byte aligned.

_TWIN_TAG = b"tvtwin\x00\x01"


def read_features(path: str) -> Features:
    """One ``Features`` table from a feature file, rows in file order.

    The table comes from the file's twin if ``_twin_table`` vouches for it.
    Otherwise the values of all rows go through numpy's C tokenizer in one pass;
    its double parser rounds correctly, so the matrix equals what
    ``float`` gives per value. If that parse or a check of its result
    fails, the file is scanned again line by line only to name the
    line at fault.
    """
    import numpy as np

    from .retrieval import Features

    with _open_text(path) as fh:
        header = fh.readline().split()
        try:
            count, dim = map(int, header)
        except ValueError:
            raise ValueError(f"{path}: malformed feature header") from None
        if count < 1 or dim < 1:
            raise ValueError(f"{path}: feature header declares count {count}, dim {dim}")
        twin = _twin_table(path, fh.fileno(), count, dim)
        if twin is not None:
            return Features(*twin)

        ids: list[str] = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a file without rows warns: fail instead
            try:
                matrix = np.loadtxt(_value_parts(fh, ids), comments=None, ndmin=2)
            except (ValueError, UserWarning):
                matrix = None
    clean = matrix is not None and matrix.shape == (count, dim) and np.isfinite(matrix).all()
    if not (clean and len(ids) == len(set(ids)) == count):
        raise _feature_row_error(path, count, dim)
    return Features(ids, matrix)


def _twin_table(path: str, fd: int, count: int, dim: int):
    """``(ids, matrix)`` from ``<path>.twin``, or None. The text, open at
    ``fd``, and the twin must be regular files, the twin's header and digest
    must vouch for the text, and its table must pass the text's checks."""
    import hashlib

    import numpy as np

    text = os.fstat(fd)
    matrix_end = 48 + 8 * count * dim
    try:
        twin = os.stat(f"{path}.twin")
        # a pipe is never opened (that waits for a writer), and the size is
        # bounded by the text's before anything is allocated for it
        if not (stat.S_ISREG(text.st_mode) and stat.S_ISREG(twin.st_mode)
                and matrix_end < twin.st_size <= matrix_end + text.st_size):
            return None
        data = np.empty(twin.st_size, dtype=np.uint8)
        with open(f"{path}.twin", "rb") as fh:
            whole = fh.readinto(data) == len(data)
    except OSError:
        return None
    if not (whole and data[:16].tobytes() == _TWIN_TAG + text.st_size.to_bytes(8, "little")):
        return None
    digest, offset = hashlib.sha256(), 0
    buffer = memoryview(bytearray(min(1 << 20, text.st_size + 1)))  # reused by every read
    while size := os.preadv(fd, [buffer], offset):  # the file position stays
        digest.update(buffer[:size])
        offset += size
    digest.update(data[48:])
    if digest.digest() != data[16:48].tobytes():
        return None
    matrix = data[48:matrix_end].view("<f8").reshape(count, dim)
    try:
        ids = data[matrix_end:].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    # an unaligned matrix would make matmul bypass BLAS, and so change bits
    if matrix.flags.aligned and len(ids) == len(set(ids)) == count and np.isfinite(matrix).all():
        return ids, matrix
    return None


def _value_parts(lines, ids: list[str]):
    """The value part of each non-blank line, appending its id to ``ids``."""
    for line in lines:
        parts = line.split(None, 1)
        if parts:
            ids.append(parts[0])
            yield parts[1] if len(parts) == 2 else ""


def _feature_row_error(path: str, count: int, dim: int) -> ValueError:
    """The error naming the first bad line of a feature file whose
    one-pass parse failed."""
    import numpy as np

    seen: set[str] = set()
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if lineno == 1 or not parts:
                continue
            item_id, values, at = parts[0], parts[1:], f"{path}:{lineno}:"
            if len(values) != dim:
                return ValueError(f"{at} row {item_id!r} has {len(values)} values, expected {dim}")
            if item_id in seen:
                return ValueError(f"{at} duplicate item id {item_id!r}")
            seen.add(item_id)
            try:
                if not np.isfinite(np.loadtxt(values, comments=None)).all():
                    return ValueError(f"{at} non-finite value in row {item_id!r}")
            except ValueError:
                return ValueError(f"{at} non-numeric value in row {item_id!r}")
    return ValueError(f"{path}:{lineno}: header declares {count} rows but file has {len(seen)}")


def write_features(path: str, features: Features) -> None:
    """Write ``features`` atomically, each value as its ``repr``, hashing
    the bytes as they go; then, if the text reads back to exactly this
    table (ids without whitespace, unique; finite values), its twin, the
    same digest carried on over the twin's payload."""
    import hashlib

    import numpy as np

    if not (len(features) and features.dim):
        raise ValueError(f"refusing to write an empty feature file, shape {features.matrix.shape}")
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        rows = (f"{item_id} {' '.join(map(repr, row.tolist()))}\n"
                for item_id, row in zip(features.ids, features.matrix))
        for line in itertools.chain([f"{len(features)} {features.dim}\n"], rows):
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)
        size = fh.tell()
    ids, matrix = features.ids, features.matrix.astype("<f8", copy=False)
    if not (len(set(ids)) == len(ids) and all(item_id.split() == [item_id] for item_id in ids)
            and np.isfinite(matrix).all()):
        return
    id_bytes = "\n".join(ids).encode("utf-8")
    digest.update(matrix)
    digest.update(id_bytes)
    with atomic_open(f"{path}.twin", "wb") as fh:
        fh.write(_TWIN_TAG + size.to_bytes(8, "little") + digest.digest())
        fh.write(matrix)
        fh.write(id_bytes)


# -- vocabulary / trigram listings: one entry per line, index order -------


def write_word_list(path: str, entries: Sequence[str]) -> None:
    with atomic_open(path) as fh:
        for entry in entries:
            fh.write(entry + "\n")


# -- relevance pairs / ground truth: "<query_id>\t<item_id>" --------------


def read_pairs(path: str, unique_left: bool = False) -> list[tuple[str, str]]:
    """All pairs in file order. An id with whitespace in it or a repeated
    pair is an error naming the line, and so, with ``unique_left``, is a
    repeated left id (say, a sentence paired with two items)."""
    pairs: list[tuple[str, str]] = []
    seen: set[str | tuple[str, str]] = set()
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            left, sep, right = line.partition("\t")
            if not sep or not left or not right:
                raise ValueError(f"{path}:{lineno}: expected '<query_id>\\t<item_id>'")
            for part in (left, right):
                if part.split() != [part]:
                    raise ValueError(f"{path}:{lineno}: id {part!r} contains whitespace")
            key = left if unique_left else (left, right)
            if key in seen:
                kind = "id" if unique_left else "pair"
                raise ValueError(f"{path}:{lineno}: duplicate {kind} {key!r}")
            seen.add(key)
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


_BLOCK_LINES = 1 << 16


def write_ranking(path: str, rankings: Sequence[Ranking]) -> None:
    """Write every entry of ``rankings`` atomically, joining the lines of as many
    whole rankings as fit in ``_BLOCK_LINES`` (at least one) at a time from str
    columns: query field, item id, rank field (each made once), ``_score_texts``."""
    import numpy as np

    longest = max([len(r.item_ids) for r in rankings] + [1])
    rank_fields = np.array([f"\t{rank}\t" for rank in range(1, longest + 1)], dtype=object)
    step = max(1, _BLOCK_LINES // longest)
    with atomic_open(path) as fh:
        for batch in (rankings[i : i + step] for i in range(0, len(rankings), step)):
            lengths = [len(r.item_ids) for r in batch]
            columns = np.empty((sum(lengths), 6), dtype=object)
            columns[:, 0] = np.repeat(np.array([f"{r.query_id}\t" for r in batch], object), lengths)
            columns[:, 1] = np.concatenate([np.asarray(r.item_ids, dtype=object) for r in batch])
            columns[:, 2] = np.concatenate([rank_fields[:n] for n in lengths])
            columns[:, 3:] = _score_texts(np.concatenate([r.scores for r in batch], dtype=float))
            fh.write("".join(columns.ravel().tolist()))


def _score_texts(scores):
    """``f"{s:.6f}\\n"`` of each float64 score as three str columns: sign and
    units ("-0."), three digits, three digits and line end. For |s| < 9 they
    come from ``np.signbit`` and ``rint(|s| * 1e6)``, correctly rounded unless
    the product's fraction is within 2**-30 (its error bound) of one half.
    Those near ties, |s| >= 9, inf and nan go through the f-string."""
    import numpy as np

    units = np.array([f"{sign}{digit}." for sign in ("", "-") for digit in range(10)], object)
    triples = np.array([f"{k:03d}" for k in range(1000)], dtype=object)
    texts = np.full((len(scores), 3), "", dtype=object)
    fast = np.abs(scores) < 9.0
    scaled = np.abs(scores[fast]) * 1e6
    clear = np.abs(scaled - np.floor(scaled) - 0.5) > 2.0**-30
    fast[fast] = clear
    digits = np.rint(scaled[clear]).astype(np.int64)
    texts[fast, 0] = units[digits // 10**6 + 10 * np.signbit(scores[fast])]
    texts[fast, 1] = triples[digits // 1000 % 1000]
    texts[fast, 2] = (triples + "\n")[digits % 1000]
    texts[~fast, 0] = [f"{s:.6f}\n" for s in scores[~fast].tolist()]
    return texts


def read_ranking(path: str) -> list[Ranking]:
    """One ``Ranking`` per query, in order of first appearance. A bad line,
    out-of-order rank or item ranked twice for a query names its line."""
    grouped: dict[str, tuple[list[str], list[float]]] = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            query_id, item_id, rank_text, score_text = fields
            items, scores = grouped.setdefault(query_id, ([], []))
            try:
                rank = int(rank_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric rank {rank_text!r} "
                                 f"for query {query_id!r}") from None
            if rank != len(items) + 1:
                raise ValueError(
                    f"{path}:{lineno}: rank {rank_text} out of order for query {query_id!r}"
                )
            try:
                scores.append(float(score_text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric score {score_text!r} "
                                 f"for query {query_id!r}") from None
            items.append(item_id)
    if not grouped:
        raise ValueError(f"{path}: empty ranking file")
    if any(len(set(items)) != len(items) for items, _ in grouped.values()):
        raise _repeated_item_error(path)
    return [Ranking(query_id, items, scores) for query_id, (items, scores) in grouped.items()]


def _repeated_item_error(path: str) -> ValueError:
    """The error naming the first line of a ranking file that ranks an
    item a second time for its query."""
    seen: set[tuple[str, ...]] = set()
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            key = tuple(line.split("\t", 2)[:2])
            if key in seen and len(key) == 2:  # a blank line gives a 1-tuple
                return ValueError(f"{path}:{lineno}: item {key[1]!r} ranked twice "
                                  f"for query {key[0]!r}")
            seen.add(key)
    return ValueError(f"{path}: an item is ranked twice for one query")


# -- training history: "epoch\ttrain_loss\tval_loss" ----------------------


def write_history(path: str, history: Sequence[EpochStats]) -> None:
    with atomic_open(path) as fh:
        fh.write("epoch\ttrain_loss\tval_loss\n")
        for stats in history:
            fh.write(
                f"{stats.epoch}\t{float(stats.train_loss)!r}\t{float(stats.val_loss)!r}\n"
            )
