"""Synthetic retrieval corpus for end-to-end tests.

Word clusters drive both text and targets: each cluster owns a disjoint
20-word vocabulary and a non-negative unit direction in the 32-dim
visual space. An item mixes three clusters; its target is the
unit-normalized centroid of those cluster directions and each of its
five sentences samples three words from each mixed cluster. Retrieval
of a held-out item is therefore learnable from other items that reuse
the same clusters, while a 250-sentence distractor pool (drawn from
non-test cluster mixes) keeps chance performance near 2%.

``FullDiskFile`` stands in for ``open`` where a test needs every write to
fail as on a full disk.
"""

import errno
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from textovision.textvec import Sentence

N_CLUSTERS = 10
WORDS_PER_CLUSTER = 20
CLUSTERS_PER_ITEM = 3
VISUAL_DIM = 32
N_ITEMS = 50
SENTENCES_PER_ITEM = 5
WORDS_PER_CLUSTER_IN_SENTENCE = 3
N_DISTRACTORS = 250
N_TRAIN, N_VAL, N_TEST = 40, 5, 5


@dataclass
class SyntheticCorpus:
    cluster_words: list[list[str]]
    cluster_dirs: np.ndarray
    item_ids: list[str]
    item_clusters: dict[str, tuple[int, ...]]
    targets: dict[str, np.ndarray]
    train_sentences: list[Sentence]
    val_sentences: list[Sentence]
    test_sentences: list[Sentence]
    distractor_sentences: list[Sentence]

    @property
    def train_items(self):
        return self.item_ids[:N_TRAIN]

    @property
    def val_items(self):
        return self.item_ids[N_TRAIN : N_TRAIN + N_VAL]

    @property
    def test_items(self):
        return self.item_ids[N_TRAIN + N_VAL :]

    def word_cluster(self, word: str) -> int:
        return self._word_to_cluster[word]

    def __post_init__(self):
        self._word_to_cluster = {
            w: j for j, words in enumerate(self.cluster_words) for w in words
        }

    def oracle_vector(self, sentence: Sentence) -> np.ndarray:
        """Reconstruct a sentence's mixture direction from word-cluster
        lookups alone (independent of any trained model)."""
        clusters = sorted({self._word_to_cluster[w] for w in sentence.text.split()})
        centroid = self.cluster_dirs[clusters].mean(axis=0)
        return centroid / np.linalg.norm(centroid)


def write_sentences(path, sentences) -> None:
    """Write a sentence file: one ``<id>\t<text>`` line per sentence."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s.id}\t{s.text}\n" for s in sentences)


def _mix_sentence(rng, cluster_words, clusters, sid):
    words = []
    for cluster in clusters:
        picks = rng.choice(WORDS_PER_CLUSTER, size=WORDS_PER_CLUSTER_IN_SENTENCE, replace=False)
        words.extend(cluster_words[cluster][p] for p in picks)
    order = rng.permutation(len(words))
    return Sentence(sid, " ".join(words[i] for i in order))


def make_corpus(seed: int = 20251101) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)

    cluster_words = [
        [f"c{j:02d}k{k:02d}" for k in range(WORDS_PER_CLUSTER)] for j in range(N_CLUSTERS)
    ]
    # disjoint coordinate blocks keep cluster directions orthogonal; random
    # non-negative directions would all crowd the positive orthant and the
    # centroid gaps would shrink below learnable resolution
    block = VISUAL_DIM // N_CLUSTERS
    dirs = np.zeros((N_CLUSTERS, VISUAL_DIM))
    for j in range(N_CLUSTERS):
        dirs[j, j * block : (j + 1) * block] = np.abs(rng.normal(size=block)) + 0.1
    cluster_dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    triples = list(combinations(range(N_CLUSTERS), CLUSTERS_PER_ITEM))
    order = rng.permutation(len(triples))
    chosen = [triples[i] for i in order[:N_ITEMS]]
    train_clusters = {c for triple in chosen[:N_TRAIN] for c in triple}
    assert train_clusters == set(range(N_CLUSTERS)), "training items must cover every cluster"

    item_ids = [f"item{i:02d}" for i in range(N_ITEMS)]
    item_clusters = dict(zip(item_ids, chosen))
    targets = {}
    for item_id, triple in item_clusters.items():
        centroid = cluster_dirs[list(triple)].mean(axis=0)
        targets[item_id] = centroid / np.linalg.norm(centroid)

    def sentences_for(ids):
        return [
            _mix_sentence(rng, cluster_words, item_clusters[item_id], f"{item_id}#{k}")
            for item_id in ids
            for k in range(SENTENCES_PER_ITEM)
        ]

    train_ids = item_ids[:N_TRAIN]
    val_ids = item_ids[N_TRAIN : N_TRAIN + N_VAL]
    test_ids = item_ids[N_TRAIN + N_VAL :]
    test_triples = {item_clusters[i] for i in test_ids}

    distractors = []
    while len(distractors) < N_DISTRACTORS:
        triple = triples[int(rng.integers(len(triples)))]
        if triple in test_triples:
            continue
        distractors.append(
            _mix_sentence(rng, cluster_words, triple, f"noise{len(distractors):03d}#0")
        )

    return SyntheticCorpus(
        cluster_words=cluster_words,
        cluster_dirs=cluster_dirs,
        item_ids=item_ids,
        item_clusters=item_clusters,
        targets=targets,
        train_sentences=sentences_for(train_ids),
        val_sentences=sentences_for(val_ids),
        test_sentences=sentences_for(test_ids),
        distractor_sentences=distractors,
    )


class FullDiskFile:
    """Opens the real file, then fails every write as a full disk does."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
