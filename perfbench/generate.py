"""Seeded synthetic inputs for one benchmark workload.

    python3 perfbench/generate.py WORKLOAD SEED OUTDIR

writes the workload's input files under OUTDIR and prints one JSON line:
the input properties and the numeric environment (numpy and OpenBLAS).

The scheme follows the test corpus generator: word clusters drive both
text and targets. Each cluster owns a disjoint set of words and a
non-negative direction on its own block of coordinates, in the visual
and the audio space. A video mixes a few
clusters; its frames scatter around the normalised centroid of those
directions and each of its sentences samples words from every mixed
cluster. The CLI only ever sees the files written here.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys

import numpy as np

from workloads import AUDIO_DIM, SHAPES, VISUAL_DIM, Shape

CLUSTERS_PER_VIDEO = 3
WORDS_PER_CLUSTER_IN_SENTENCE = 4

INPUT_FILES = ("frames.feat", "audio.feat", "train.tsv", "val.tsv", "queries.tsv",
               "truth.tsv")


def _words(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct lowercase pseudo-words of 4 to 9 letters."""
    words: dict[str, None] = {}
    while len(words) < count:
        letters = rng.integers(ord("a"), ord("z") + 1, size=(count, 9), dtype=np.uint8)
        lengths = rng.integers(4, 10, size=count)
        for row, length in zip(letters, lengths):
            words.setdefault(row[:length].tobytes().decode(), None)
    return list(words)[:count]


def _block_directions(rng: np.random.Generator, clusters: int, dim: int) -> np.ndarray:
    """Unit non-negative directions on disjoint coordinate blocks."""
    block = dim // clusters
    dirs = np.zeros((clusters, dim))
    for j in range(clusters):
        dirs[j, j * block : (j + 1) * block] = np.abs(rng.normal(size=block)) + 0.1
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


# "d.ddd" for 0..9999 and "ddd" for 0..999, as byte rows
_HIGH = np.frombuffer("".join(f"{i // 1000}.{i % 1000:03d}" for i in range(10000)).encode(),
                      dtype=np.uint8).reshape(-1, 5)
_LOW = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(), dtype=np.uint8).reshape(-1, 3)


def _write_rows(fh, ids: list[str], matrix: np.ndarray) -> None:
    """Rows of "<id> d.dddddd ..." for values in [0, 10), formatted by table
    lookup: Python-level float formatting would dominate set-up."""
    micro = np.rint(matrix * 1e6).astype(np.int32)
    if micro.min() < 0 or micro.max() >= 10**7:
        raise ValueError("generated values must lie in [0, 10)")
    chars = np.empty(matrix.shape + (9,), dtype=np.uint8)
    chars[..., 0] = ord(" ")
    chars[..., 1:6] = _HIGH[micro // 1000]
    chars[..., 6:] = _LOW[micro % 1000]
    for item_id, row in zip(ids, chars.reshape(len(ids), -1)):
        fh.write(f"{item_id}{row.tobytes().decode()}\n")


def _write_features(path: str, ids: list[str], matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(ids)} {matrix.shape[1]}\n")
        _write_rows(fh, ids, matrix)


def _write_sentences(path: str, sentences: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{sid}\t{text}\n" for sid, text in sentences)


def _trigrams(word: str) -> list[str]:
    padded = f"#{word}#"
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def generate(shape: Shape, seed: int, workdir: str) -> dict:
    """Write every input file of one workload; return its properties."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    path = {name: os.path.join(workdir, name) for name in INPUT_FILES}

    words = _words(rng, shape.corpus_words)
    cluster_words = [
        words[j * shape.words_per_cluster : (j + 1) * shape.words_per_cluster]
        for j in range(shape.clusters)
    ]
    video_ids = [f"v{i:05d}" for i in range(shape.videos)]
    mixes = np.stack([
        rng.choice(shape.clusters, size=CLUSTERS_PER_VIDEO, replace=False) for _ in video_ids
    ])

    # frames scatter around the video's centroid, which `pool` recovers
    centroids = _block_directions(rng, shape.clusters, VISUAL_DIM)[mixes].mean(axis=1)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    frames = np.repeat(centroids, shape.frames, axis=0)
    frames = frames * rng.uniform(0.8, 1.2, size=frames.shape) + rng.uniform(
        0.0, 0.01, size=frames.shape
    )
    _write_features(path["frames.feat"],
                    [f"{v}#{f}" for v in video_ids for f in range(shape.frames)], frames)
    audio = _block_directions(rng, shape.clusters, AUDIO_DIM)[mixes].mean(axis=1)
    audio += rng.uniform(0.0, 0.01, size=audio.shape)
    _write_features(path["audio.feat"], video_ids, audio)

    # each cluster deals its words from a reshuffled deck, so the training
    # sentences (drawn first) use every corpus word before any word repeats
    # and no held-out sentence can fall entirely outside the vocabulary
    decks: list[list[str]] = [[] for _ in range(shape.clusters)]

    def draw(cluster: int) -> list[str]:
        picked: list[str] = []
        while len(picked) < WORDS_PER_CLUSTER_IN_SENTENCE:
            if not decks[cluster]:
                deck = rng.permutation(shape.words_per_cluster)
                decks[cluster] = [cluster_words[cluster][i] for i in deck]
            word = decks[cluster].pop()
            if word not in picked:
                picked.append(word)
        return picked

    def sentence(video: int, sid: str) -> tuple[str, str]:
        tokens = [w for c in mixes[video] for w in draw(int(c))]
        return sid, " ".join(tokens[i] for i in rng.permutation(len(tokens)))

    train = [sentence(v, f"{video_ids[v]}#t{k}")
             for v in range(shape.videos) for k in range(shape.train_per_video)]
    val = [sentence(v, f"{video_ids[v]}#v0") for v in range(shape.val_videos)]
    queries = [sentence(v, f"{video_ids[v]}#q{k}")
               for v in range(shape.videos) for k in range(shape.query_per_video)]
    _write_sentences(path["train.tsv"], train)
    _write_sentences(path["val.tsv"], val)
    _write_sentences(path["queries.tsv"], queries)
    _write_sentences(path["truth.tsv"], [(sid, sid.rpartition("#")[0]) for sid, _ in queries])

    vocabulary = sorted({w for _, text in train for w in text.split()})
    trigrams = {t for w in vocabulary for t in _trigrams(w)}
    # share of nonzero inputs: distinct words (bow) or trigrams (hashing) per sentence
    if shape.vectorizer == "bow":
        nonzero, width = sum(len(set(text.split())) for _, text in train), len(vocabulary)
    else:
        nonzero = sum(len({t for w in text.split() for t in _trigrams(w)}) for _, text in train)
        width = len(trigrams)
    return {
        "train_sentences": len(train),
        "val_sentences": len(val),
        "query_sentences": len(queries),
        "vocabulary": len(vocabulary),
        "trigrams": len(trigrams),
        "input_nnz_ratio": nonzero / (len(train) * width),
        "videos": shape.videos,
        "frames_per_video": shape.frames,
        "rank_queries_x_candidates": f"{len(queries)}x{shape.videos}",
        "rank_top_queries_x_candidates": f"{shape.videos}x{len(queries)}",
        "input_bytes": sum(os.path.getsize(p) for p in path.values()),
    }


def blas_environment() -> dict:
    """numpy version, OpenBLAS build version and, where the bundled library
    exposes it, its run-time configuration (which names the CPU kernel in use)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                config = getter().decode()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": " ".join(config.split())}


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    properties = generate(SHAPES[workload], seed, outdir)
    print(json.dumps({"properties": properties, "environment": blas_environment()}))
