"""Sentence vectorizers: bag-of-words, letter-trigram hashing, and
word-embedding mean pooling.

A vectorizer is a ``TermIndex`` (``bow`` or ``hashing``, built by
``build_vocab``) or a ``WordEmbeddingTable`` (``word2vec``, read by
``load_embeddings``). Each knows its ``kind`` and ``dim``, and its
``vectorize`` turns a ``Sentence`` into a float64 row, raising
``ValueError`` naming the sentence when none of its terms is known.
Vectorizers are immutable after construction and safe for concurrent
read-only use. Term lists are kept sorted by byte order so that
serialized vocabularies are identical across platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

import numpy as np

#: maximal runs of letters/digits; underscore and everything else separates
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Sentence:
    """A raw sentence with a stable identifier."""

    id: str
    text: str


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every character that is not a letter or digit.

    Empty tokens are discarded; order is preserved. An empty input yields
    an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def letter_trigrams(word: str) -> list[str]:
    """All consecutive 3-character windows of ``'#' + word + '#'``.

    Duplicates are kept and order follows the padded string, so a word of
    length n yields exactly n trigrams.
    """
    if not word:
        raise ValueError("cannot take letter trigrams of an empty word")
    padded = "#" + word + "#"
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def _trigram_terms(text: str) -> list[str]:
    return [trigram for token in tokenize(text) for trigram in letter_trigrams(token)]


#: per term-index kind: what the index is called, the terms of a text
#: (its words, or the letter trigrams of each word), and the length
#: every term must have (None: any length)
TERM_KINDS: dict[str, tuple[str, Callable[[str], list[str]], Optional[int]]] = {
    "bow": ("vocabulary", tokenize, None),
    "hashing": ("trigram index", _trigram_terms, 3),
}


def _term_kind(kind: str) -> tuple[str, Callable[[str], list[str]], Optional[int]]:
    if kind not in TERM_KINDS:
        raise ValueError(f"unknown term index kind {kind!r}")
    return TERM_KINDS[kind]


class TermIndex:
    """Sorted list of distinct terms plus its inverse index.

    ``kind`` decides what a term is: each word itself (``bow``) or each
    letter trigram of each word (``hashing``), see ``TERM_KINDS``.
    """

    def __init__(self, kind: str, terms: Iterable[str]):
        self.noun, self._terms, length = _term_kind(kind)
        terms = list(terms)
        if not terms:
            raise ValueError(f"{self.noun} is empty")
        if length is not None:
            for term in terms:
                if len(term) != length:
                    raise ValueError(f"term {term!r} is not {length} characters long")
        for a, b in zip(terms, terms[1:]):
            if a >= b:
                raise ValueError(f"{self.noun} entries must be strictly ascending: {a!r} before {b!r}")
        self.kind = kind
        self.terms: list[str] = terms
        self.index: dict[str, int] = {t: i for i, t in enumerate(terms)}

    @property
    def dim(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TermIndex) and (self.kind, self.terms) == (other.kind, other.terms)

    def vectorize(self, sentence: Sentence) -> np.ndarray:
        """Count occurrences of each indexed term; unknown terms contribute nothing."""
        values = np.zeros(self.dim, dtype=np.float64)
        hits = 0
        for term in self._terms(sentence.text):
            pos = self.index.get(term)
            if pos is not None:
                values[pos] += 1.0
                hits += 1
        if hits == 0:
            raise ValueError(f"sentence {sentence.id!r} has no term in the {self.noun}")
        return values


class WordEmbeddingTable:
    """Word to dense-vector map with a single fixed dimensionality."""

    kind = "word2vec"

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not entries:
            raise ValueError("embedding table is empty")
        for word, vec in entries.items():
            if vec.shape != (dim,):
                raise ValueError(f"embedding for {word!r} has length {vec.shape[0]}, expected {dim}")
        self.dim = dim
        self.entries = entries

    def vectorize(self, sentence: Sentence) -> np.ndarray:
        """Mean-pool the embeddings of in-table tokens.

        Out-of-table tokens are excluded from both the sum and the
        denominator, so a sentence with a single known word maps exactly
        to that word's embedding.
        """
        total = np.zeros(self.dim, dtype=np.float64)
        count = 0
        for token in tokenize(sentence.text):
            vec = self.entries.get(token)
            if vec is not None:
                total += vec
                count += 1
        if count == 0:
            raise ValueError(f"sentence {sentence.id!r} has no token in the embedding table")
        return total / count


def build_vocab(kind: str, sentences: Sequence[Sentence]) -> TermIndex:
    """Index every term of the corpus, with no frequency cutoff."""
    noun, terms, _ = _term_kind(kind)
    if not sentences:
        raise ValueError(f"cannot build a {noun} from an empty corpus")
    seen: set[str] = set()
    for s in sentences:
        seen.update(terms(s.text))
    if not seen:
        raise ValueError(f"no token survived tokenization; {noun} would be empty")
    return TermIndex(kind, sorted(seen))


def load_embeddings(source: Union[str, TextIO]) -> WordEmbeddingTable:
    """Parse a word2vec-style text file.

    Line 1 is ``"<count> <dim>"``; each following line is a word followed
    by ``dim`` decimal floats, all space separated.
    """
    if hasattr(source, "read"):
        return _parse_embeddings(source)
    with open(source, "r", encoding="utf-8") as fh:
        return _parse_embeddings(fh)


def _parse_embeddings(fh: TextIO) -> WordEmbeddingTable:
    header = fh.readline()
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"malformed embedding header: {header.strip()!r}")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"malformed embedding header: {header.strip()!r}") from None
    if count < 1 or dim < 1:
        raise ValueError(f"embedding header must declare positive count and dim, got {count} {dim}")

    entries: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        parts = line.split()
        word = parts[0]
        if len(parts) - 1 != dim:
            raise ValueError(
                f"line {lineno}: embedding for {word!r} has {len(parts) - 1} values, expected {dim}"
            )
        if word in entries:
            raise ValueError(f"line {lineno}: duplicate word {word!r}")
        vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"line {lineno}: embedding for {word!r} has a non-finite value")
        entries[word] = vec
    if len(entries) != count:
        raise ValueError(f"header declares {count} entries but file has {len(entries)}")
    return WordEmbeddingTable(dim, entries)
