"""Bit-exact binary model files.

Layout, all little-endian: the 4-byte magic ``W2VV`` and a format
version byte; one byte naming the vectorizer kind (0=bow, 1=hashing,
2=word2vec) followed by its serialized backend; then a 64-bit layer
count and, per layer, rows and cols as 64-bit unsigned integers, the
weight matrix row-major, and the bias vector, all as 64-bit floats.
Strings are length-prefixed (64-bit) UTF-8; embedding rows are stored in
sorted word order so identical tables serialize identically.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .neuralnet import NetworkParams
from .textvec import (
    TrigramIndex,
    VectorizerBackend,
    Vocabulary,
    WordEmbeddingTable,
    backend_dim,
)

MAGIC = b"W2VV"
FORMAT_VERSION = 1

_KIND_TAGS = {"bow": 0, "hashing": 1, "word2vec": 2}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


@dataclass(frozen=True)
class TrainedModel:
    """A network together with the vectorizer backend it was trained on."""

    kind: str
    backend: VectorizerBackend
    params: NetworkParams

    @property
    def output_dim(self) -> int:
        return self.params[-1][0].shape[0]


def save_model(path: str, model: TrainedModel) -> None:
    """Write ``model`` to ``path`` atomically.

    The payload streams into a temporary file beside ``path``, which
    then replaces it, so a failed write leaves any earlier file intact.
    """
    if model.kind not in _KIND_TAGS:
        raise ValueError(f"unknown vectorizer kind {model.kind!r}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<BB", FORMAT_VERSION, _KIND_TAGS[model.kind]))
            fh.write(_pack_backend(model.kind, model.backend))
            fh.write(struct.pack("<Q", len(model.params)))
            for weight, bias in model.params:
                rows, cols = weight.shape
                fh.write(struct.pack("<QQ", rows, cols))
                fh.write(np.ascontiguousarray(weight, dtype="<f8"))
                fh.write(np.ascontiguousarray(bias, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
    kind = _TAG_KINDS[tag]
    backend = _unpack_backend(kind, reader)

    (layer_count,) = struct.unpack("<Q", reader.take(8))
    params: NetworkParams = []
    for _ in range(layer_count):
        rows, cols = struct.unpack("<QQ", reader.take(16))
        weight = np.frombuffer(reader.take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        bias = np.frombuffer(reader.take(rows * 8), dtype="<f8")
        params.append((weight.astype(np.float64), bias.astype(np.float64)))
    if not params:
        raise ValueError(f"{path}: model has no layers")
    reader.expect_end()
    expected, source = backend_dim(kind, backend), "the backend dim"
    for number, (weight, _) in enumerate(params, start=1):
        if weight.shape[1] != expected:
            raise ValueError(
                f"{path}: layer {number} takes {weight.shape[1]} inputs, but {source} is {expected}"
            )
        expected, source = weight.shape[0], f"layer {number}'s output width"
    return TrainedModel(kind=kind, backend=backend, params=params)


class _Reader:
    def __init__(self, path: str, data: bytes):
        self.path = path
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
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


def _pack_backend(kind: str, backend: VectorizerBackend) -> bytes:
    if kind == "bow":
        entries = backend.words
    elif kind == "hashing":
        entries = backend.trigrams
    else:
        words = sorted(backend.entries)
        matrix = np.stack([backend.entries[w] for w in words])
        return (
            struct.pack("<QQ", backend.dim, len(words))
            + b"".join(_pack_string(w) for w in words)
            + np.ascontiguousarray(matrix, dtype="<f8").tobytes()
        )
    return struct.pack("<Q", len(entries)) + b"".join(_pack_string(e) for e in entries)


def _unpack_backend(kind: str, reader: _Reader) -> VectorizerBackend:
    if kind == "word2vec":
        dim, count = struct.unpack("<QQ", reader.take(16))
        words = [_unpack_string(reader) for _ in range(count)]
        matrix = np.frombuffer(reader.take(count * dim * 8), dtype="<f8").reshape(count, dim)
        entries = {w: matrix[i].astype(np.float64) for i, w in enumerate(words)}
        return WordEmbeddingTable(dim, entries)
    (count,) = struct.unpack("<Q", reader.take(8))
    entries = [_unpack_string(reader) for _ in range(count)]
    return Vocabulary(entries) if kind == "bow" else TrigramIndex(entries)
