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
UTF-8. A loaded model's arrays are read-only views, each of its own
``bytes`` copy of its payload. The copies keep them 8-byte aligned: a
payload's file offset follows the term lengths before it, and on an
unaligned view numpy's matmul bypasses BLAS, which is slower and sums
in another order.
"""

from __future__ import annotations

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
        fh.write(_pack_vectorizer(model.vectorizer))
        fh.write(struct.pack("<Q", len(model.params)))
        for weight, bias in model.params:
            rows, cols = weight.shape
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(np.ascontiguousarray(weight, dtype="<f8"))
            fh.write(np.ascontiguousarray(bias, dtype="<f8"))


def load_model(path: str) -> TrainedModel:
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(path, data)
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
        weight = np.frombuffer(reader.take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        bias = np.frombuffer(reader.take(rows * 8), dtype="<f8")
        params.append((weight, bias))
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
    def __init__(self, path: str, data: bytes):
        self.path = path
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes, as a new (so 8-byte aligned) ``bytes`` object."""
        end = self.offset + n
        if end > len(self.data):
            raise ValueError(f"{self.path}: truncated model file")
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise ValueError(f"{self.path}: trailing bytes after model payload")


def _pack_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw


def _unpack_string(reader: _Reader) -> str:
    (length,) = struct.unpack("<Q", reader.take(8))
    return reader.take(length).decode("utf-8")


def _pack_vectorizer(vectorizer: Union[TermIndex, WordEmbeddingTable]) -> bytes:
    if isinstance(vectorizer, TermIndex):
        terms = vectorizer.terms
        return struct.pack("<Q", len(terms)) + b"".join(_pack_string(t) for t in terms)
    words = sorted(vectorizer.entries)
    matrix = np.stack([vectorizer.entries[w] for w in words])
    return (
        struct.pack("<QQ", vectorizer.dim, len(words))
        + b"".join(_pack_string(w) for w in words)
        + np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    )


def _unpack_vectorizer(kind: str, reader: _Reader) -> Union[TermIndex, WordEmbeddingTable]:
    if kind in TERM_KINDS:
        (count,) = struct.unpack("<Q", reader.take(8))
        return TermIndex(kind, [_unpack_string(reader) for _ in range(count)])
    dim, count = struct.unpack("<QQ", reader.take(16))
    if not (count and dim):
        raise ValueError(f"{reader.path}: embedding table declares {count} words of dim {dim}")
    words = [_unpack_string(reader) for _ in range(count)]
    if any(a >= b for a, b in zip(words, words[1:])):
        raise ValueError(f"{reader.path}: embedding table words are not unique and sorted")
    matrix = np.frombuffer(reader.take(count * dim * 8), dtype="<f8").reshape(count, dim)
    return WordEmbeddingTable(Features(words, matrix))
