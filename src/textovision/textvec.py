"""Sentence vectorizers: bag-of-words, letter-trigram hashing, and
word-embedding mean pooling.

A vectorizer is a ``TermIndex`` (``bow`` or ``hashing``, built by
``build_vocab``) or a ``WordEmbeddingTable`` (``word2vec``: the
``Features`` table ``formats.read_features`` reads from an embedding
file, as one matrix, and each word's row). Each knows its ``kind``,
``dim`` and ``term_noun`` (a known term, as messages name it). Its
``rows``, the one finder of a ``Sentence``'s terms, gives sentences'
float64 rows in the form ``neuralnet.train`` and ``encode`` take, all
zeros for a sentence with no known term, and which sentences have one.
Vectorizers are immutable after construction and safe for concurrent
read-only use. Term lists are kept sorted by byte order so that
serialized vocabularies are identical across platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .neuralnet import SparseRows
    from .retrieval import Features

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
        self.term_noun = f"term in the {self.noun}"
        self.terms: list[str] = terms
        self.index: dict[str, int] = {t: i for i, t in enumerate(terms)}

    @property
    def dim(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TermIndex) and (self.kind, self.terms) == (other.kind, other.terms)

    def rows(self, sentences: Sequence[Sentence]) -> tuple[SparseRows, np.ndarray]:
        """All sentences' term counts, compressed: each one's known term ids
        in text order, one per occurrence; and whether each has one."""
        import numpy as np

        from .neuralnet import SparseRows

        lengths = np.empty(len(sentences), np.intp)

        def term_indices():
            # streamed, so no sentence's terms outlive their copy into the array
            for row, sentence in enumerate(sentences):
                found = [self.index[t] for t in self._terms(sentence.text) if t in self.index]
                lengths[row] = len(found)
                yield from found

        indices = np.fromiter(term_indices(), np.int32)  # fills lengths first
        return SparseRows(self.dim, np.concatenate(([0], np.cumsum(lengths))), indices), lengths > 0


class WordEmbeddingTable:
    """Word to dense-vector map: the given ``table``, uncopied, and ``index``, each word's row."""

    kind = "word2vec"
    term_noun = "token in the embedding table"

    def __init__(self, table: Features):
        self.table = table
        self.dim = table.dim
        self.index: dict[str, int] = {word: row for row, word in enumerate(table.ids)}

    def rows(self, sentences: Sequence[Sentence]) -> tuple[np.ndarray, np.ndarray]:
        """Each sentence's mean of its in-table tokens' rows, as one dense
        matrix (means have few zeros; one that overflows is a ``ValueError``
        naming its sentence), and a bool per sentence, whether it has one."""
        import numpy as np

        matrix = np.zeros((len(sentences), self.dim))
        known = np.zeros(len(sentences), bool)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mean is reported below
            for i, (row, sentence) in enumerate(zip(matrix, sentences)):
                found = [self.index[t] for t in tokenize(sentence.text) if t in self.index]
                for word in found:  # summed in text order, which fixes the bits
                    row += self.table.matrix[word]
                row /= max(len(found), 1)  # a row with no known word stays zero
                known[i] = bool(found)
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValueError(f"sentence {sentences[int(finite.argmin())].id!r}: its mean word "
                             "vector overflows (values too large)")
        return matrix, known


def build_vocab(kind: str, sentences: Sequence[Sentence]) -> TermIndex:
    """Index every term of the corpus, with no frequency cutoff."""
    noun, terms, _ = _term_kind(kind)
    seen: set[str] = set()
    for s in sentences:
        seen.update(terms(s.text))
    if not seen:
        raise ValueError(f"no token survived tokenization; {noun} would be empty")
    return TermIndex(kind, sorted(seen))
