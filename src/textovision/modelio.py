"""Bit-exact binary model files.

A ``TrainedModel`` is a vectorizer and the network trained on its
rows. Layout, all little-endian: the 4-byte magic ``W2VV`` and a format
version byte; one byte naming the vectorizer kind (0=bow, 1=hashing,
2=word2vec) followed by the vectorizer's payload; then a 64-bit layer
count and, per layer, rows and cols as 64-bit unsigned integers, the
weight matrix row-major, and the bias vector, all as 64-bit floats.
A term index's payload is its 64-bit term count and terms; an embedding
table's is its 64-bit dim and word count, the words, and the embedding
matrix as 64-bit floats with rows in sorted word order, so identical
tables serialize identically. Strings are length-prefixed (64-bit)
UTF-8. Saving writes every string and row straight to the file, so it
copies no term list or table. A loaded model's arrays are read-only,
each read from the file straight into its own newly allocated array, so
loading holds the weights once and keeps them aligned: a payload's file
offset follows the term lengths before it, and on an unaligned view
numpy's matmul bypasses BLAS, which is slower and sums in another order.
Every field is checked against the file's size before it is read, so a
model must be a regular file, not a pipe.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .formats import atomic_open
from .neuralnet import NetworkParams
from .retrieval import Features
from .textvec import TERM_KINDS, TermIndex, WordEmbeddingTable

MAGIC = b"W2VV"
FORMAT_VERSION = 1

_KIND_TAGS = {"bow": 0, "hashing": 1, "word2vec": 2}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


@dataclass(frozen=True)
class TrainedModel:
    """A network together with the vectorizer it was trained on."""

    vectorizer: Union[TermIndex, WordEmbeddingTable]
    params: NetworkParams


def save_model(path: str, model: TrainedModel) -> None:
    """Write ``model`` to ``path`` atomically: a failed write leaves any
    earlier file intact."""
    kind = model.vectorizer.kind
    if kind not in _KIND_TAGS:
        raise ValueError(f"unknown vectorizer kind {kind!r}")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", FORMAT_VERSION, _KIND_TAGS[kind]))
        _write_vectorizer(fh, model.vectorizer)
        fh.write(struct.pack("<Q", len(model.params)))
        for weight, bias in model.params:
            rows, cols = weight.shape
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(np.ascontiguousarray(weight, dtype="<f8"))
            fh.write(np.ascontiguousarray(bias, dtype="<f8"))


def load_model(path: str) -> TrainedModel:
    with open(path, "rb") as fh:
        reader = _Reader(path, fh)
        if reader.take(4) != MAGIC:
            raise ValueError(f"{path}: bad magic; not a model file")
        version, tag = struct.unpack("<BB", reader.take(2))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version {version}")
        if tag not in _TAG_KINDS:
            raise ValueError(f"{path}: unknown vectorizer tag {tag}")
        vectorizer = _unpack_vectorizer(_TAG_KINDS[tag], reader)

        (layer_count,) = struct.unpack("<Q", reader.take(8))
        params: NetworkParams = []
        for number in range(1, layer_count + 1):
            rows, cols = struct.unpack("<QQ", reader.take(16))
            if not (rows and cols):
                raise ValueError(f"{path}: layer {number} has {rows} rows and {cols} cols")
            params.append((reader.take_floats(rows * cols).reshape(rows, cols),
                           reader.take_floats(rows)))
        if not params:
            raise ValueError(f"{path}: model has no layers")
        reader.expect_end()
    expected, source = vectorizer.dim, "the vectorizer dim"
    for number, (weight, _) in enumerate(params, start=1):
        if weight.shape[1] != expected:
            raise ValueError(
                f"{path}: layer {number} takes {weight.shape[1]} inputs, but {source} is {expected}"
            )
        expected, source = weight.shape[0], f"layer {number}'s output width"
    return TrainedModel(vectorizer, params)


class _Reader:
    """Reads a model file in order, never past its end: a field the file is
    too short for is a truncation, found before anything is allocated for it."""

    def __init__(self, path: str, fh):
        self.path = path
        self.fh = fh
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise ValueError(f"{path}: not a regular file; a model must be a regular file")
        self.left = status.st_size

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise ValueError(f"{self.path}: truncated model file")
        self.left -= n

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        self._claim(n)
        chunk = self.fh.read(n)
        if len(chunk) != n:
            raise ValueError(f"{self.path}: truncated model file")
        return chunk

    def take_floats(self, count: int) -> np.ndarray:
        """The next ``count`` little-endian float64 values, as a read-only array."""
        self._claim(count * 8)
        values = np.empty(count, dtype="<f8")
        if self.fh.readinto(values) != values.nbytes:
            raise ValueError(f"{self.path}: truncated model file")
        values.flags.writeable = False
        return values

    def expect_end(self) -> None:
        if self.left or self.fh.read(1):
            raise ValueError(f"{self.path}: trailing bytes after model payload")


def _pack_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw


def _unpack_string(reader: _Reader) -> str:
    (length,) = struct.unpack("<Q", reader.take(8))
    try:
        return reader.take(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{reader.path}: not UTF-8 text ({exc.reason})") from None


def _write_vectorizer(fh, vectorizer: Union[TermIndex, WordEmbeddingTable]) -> None:
    if isinstance(vectorizer, TermIndex):
        fh.write(struct.pack("<Q", len(vectorizer.terms)))
        fh.writelines(map(_pack_string, vectorizer.terms))
        return
    words = sorted(vectorizer.index)
    fh.write(struct.pack("<QQ", vectorizer.dim, len(words)))
    fh.writelines(map(_pack_string, words))
    matrix = np.ascontiguousarray(vectorizer.table.matrix, dtype="<f8")
    fh.writelines(matrix[vectorizer.index[word]] for word in words)


def _unpack_vectorizer(kind: str, reader: _Reader) -> Union[TermIndex, WordEmbeddingTable]:
    if kind in TERM_KINDS:
        (count,) = struct.unpack("<Q", reader.take(8))
        terms = [_unpack_string(reader) for _ in range(count)]
        try:
            return TermIndex(kind, terms)
        except ValueError as exc:
            raise ValueError(f"{reader.path}: {exc}") from None
    dim, count = struct.unpack("<QQ", reader.take(16))
    if not (count and dim):
        raise ValueError(f"{reader.path}: embedding table declares {count} words of dim {dim}")
    words = [_unpack_string(reader) for _ in range(count)]
    if any(a >= b for a, b in zip(words, words[1:])):
        raise ValueError(f"{reader.path}: embedding table words are not unique and sorted")
    return WordEmbeddingTable(Features(words, reader.take_floats(count * dim).reshape(count, dim)))
