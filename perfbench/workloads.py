"""Workload shapes. Every workload runs the paper's whole command chain
(pool, build-vocab, train, encode, rank, evaluate, rank --top), so every
end-to-end metric exists on every workload; the shapes decide which
layers dominate. Sizes are the seed-code shapes scaled down until one
chain takes about four seconds on two cores; the properties each workload
exists for (sparsity, frames per video) are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

VISUAL_DIM = 384
AUDIO_DIM = 128
TOP_K = 10  # `rank --top`


@dataclass(frozen=True)
class Shape:
    vectorizer: str  # bow or hashing
    videos: int
    frames: int  # frames per video fed to `pool`
    clusters: int
    words_per_cluster: int
    train_per_video: int  # training sentences per video
    val_videos: int  # videos that get one validation sentence
    query_per_video: int  # held-out sentences per video: encoded, then ranked
    hidden: str  # `train --layers`
    epochs: int  # fixed: `--patience` exceeds `--max-epochs`

    @property
    def corpus_words(self) -> int:
        return self.clusters * self.words_per_cluster

    @property
    def queries(self) -> int:
        return self.videos * self.query_per_video


SHAPES = {
    # sparse input (12 of 4000 words, 0.3 %) into a 4000-1000-512 net:
    # RMSprop over 4.5 M parameters dominates each epoch
    "train_bow": Shape(
        vectorizer="bow", videos=200, frames=2, clusters=40, words_per_cluster=100,
        train_per_video=3, val_videos=50, query_per_video=1, hidden="1000", epochs=1,
    ),
    # 8 frames per video and 500 queries x 250 videos: pooling, ranking,
    # ranking I/O and metrics dominate; one light epoch of training
    "retrieve_video": Shape(
        vectorizer="hashing", videos=250, frames=8, clusters=20, words_per_cluster=30,
        train_per_video=1, val_videos=25, query_per_video=2, hidden="256", epochs=1,
    ),
}
