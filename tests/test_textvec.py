import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import vectorize

from textovision import cli, formats, neuralnet
from textovision.retrieval import Features
from textovision.textvec import (
    Sentence,
    TermIndex,
    WordEmbeddingTable,
    build_vocab,
    letter_trigrams,
    tokenize,
)

words = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=10)
texts = st.text(max_size=80)


def sent(text, sid="s#0"):
    return Sentence(sid, text)


def dense_rows(vectorizer, sentences):
    """The rows ``vectorizer.rows`` gives ``sentences``, as one dense matrix,
    and its report of which sentences have a known term."""
    rows, known = vectorizer.rows(sentences)
    assert known.dtype == bool and known.shape == (len(sentences),)
    return rows[np.arange(len(sentences))], known


def unknown_row_of(vectorizer, text):
    """The row of ``sent(text)``, reported to have no known term."""
    (row,), (known,) = dense_rows(vectorizer, [sent(text)])
    assert not known
    return row


def row_of(vectorizer, text):
    """The dense row ``vectorizer.rows`` gives the sentence ``sent(text)``,
    reported to have a known term."""
    (row,), (known,) = dense_rows(vectorizer, [sent(text)])
    assert known
    return row


class TestTokenize:
    def test_splits_and_lowercases(self):
        assert tokenize("A dog leaps over a log.") == ["a", "dog", "leaps", "over", "a", "log"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("Sea-wave!") == ["sea", "wave"]

    def test_underscore_and_digits(self):
        assert tokenize("x_1 b2c") == ["x", "1", "b2c"]

    @given(texts)
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert all(c.isalnum() for c in token)

    @given(texts)
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestLetterTrigrams:
    def test_cat(self):
        assert letter_trigrams("cat") == ["#ca", "cat", "at#"]

    def test_dog(self):
        assert letter_trigrams("dog") == ["#do", "dog", "og#"]

    def test_single_character(self):
        assert letter_trigrams("a") == ["#a#"]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            letter_trigrams("")

    @given(words)
    def test_count_equals_word_length(self, word):
        grams = letter_trigrams(word)
        assert len(grams) == len(word)
        assert all(len(g) == 3 for g in grams)


class TestBuildVocab:
    def test_union_and_sort(self):
        vocab = build_vocab("bow", [sent("a dog"), sent("a cat", "s#1")])
        assert vocab.terms == ["a", "cat", "dog"]
        assert vocab.dim == 3
        assert vocab.kind == "bow"

    def test_dedup(self):
        assert build_vocab("bow", [sent("dog dog dog")]).terms == ["dog"]

    def test_punctuation_only_corpus(self):
        with pytest.raises(ValueError):
            build_vocab("bow", [sent("... !!!"), sent("???", "s#1")])

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab("bow", [])

    def test_index_inverts_words(self):
        vocab = build_vocab("bow", [sent("b a c b"), sent("d", "s#1")])
        for i, word in enumerate(vocab.terms):
            assert vocab.index[word] == i

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            TermIndex("bow", ["b", "a"])
        with pytest.raises(ValueError):
            TermIndex("bow", ["a", "a"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'tfidf'"):
            build_vocab("tfidf", [sent("a dog")])
        with pytest.raises(ValueError, match="'word2vec'"):
            TermIndex("word2vec", ["a"])


class TestVectorizeBow:
    def test_direct_counts(self):
        vocab = TermIndex("bow", ["a", "dog", "leaps", "log", "over"])
        row = row_of(vocab, "a dog leaps over a log")
        assert row.tolist() == [2, 1, 1, 1, 1]
        assert row.dtype == np.float64
        assert row.shape == (vocab.dim,) == (5,)

    def test_oov_dropped(self):
        row = row_of(TermIndex("bow", ["a", "dog"]), "a zebra")
        assert row.tolist() == [1, 0]

    def test_no_in_vocab_token(self):
        vocab = TermIndex("bow", ["a", "dog"])
        assert unknown_row_of(vocab, "zebra lion").tolist() == [0, 0]
        assert vocab.term_noun == "term in the vocabulary"

    def test_empty_text_rejected(self):
        assert unknown_row_of(TermIndex("bow", ["a"]), "").tolist() == [0]

    @given(st.lists(words, min_size=1, max_size=20), st.lists(words, min_size=1, max_size=20))
    def test_l1_norm_counts_in_vocab_tokens(self, vocab_words, sentence_words):
        vocab = TermIndex("bow", sorted(set(vocab_words)))
        text = " ".join(sentence_words)
        in_vocab = sum(1 for t in tokenize(text) if t in vocab.index)
        row = row_of(vocab, text) if in_vocab else unknown_row_of(vocab, text)
        assert row.sum() == in_vocab
        assert np.all(row >= 0)
        assert np.all(row == np.floor(row))


class TestTrigramIndex:
    def test_single_word(self):
        index = build_vocab("hashing", [sent("cat")])
        assert index.terms == ["#ca", "at#", "cat"]
        assert index.kind == "hashing"

    def test_dedup_across_sentences(self):
        once = build_vocab("hashing", [sent("cat")])
        twice = build_vocab("hashing", [sent("cat"), sent("cat", "s#1")])
        assert once == twice
        assert once != TermIndex("bow", once.terms)

    def test_two_word_corpus_size(self):
        # windows: {#a#} from "a", {#do, dog, og#}, {#ca, cat, at#}
        index = build_vocab("hashing", [sent("a dog"), sent("a cat", "s#1")])
        assert index.dim == 7
        assert set(index.terms) == {"#a#", "#ca", "#do", "at#", "cat", "dog", "og#"}

    def test_empty_token_stream(self):
        with pytest.raises(ValueError):
            build_vocab("hashing", [sent("!!")])

    def test_bad_entry_length_rejected(self):
        with pytest.raises(ValueError):
            TermIndex("hashing", ["ab"])

    @given(st.lists(words, min_size=1, max_size=30))
    def test_size_bounded_by_vocab_times_word_length(self, corpus_words):
        corpus = [sent(" ".join(corpus_words))]
        vocab = build_vocab("bow", corpus)
        index = build_vocab("hashing", corpus)
        assert index.dim <= vocab.dim * max(len(w) for w in vocab.terms)

    def test_smaller_than_vocab_on_long_word_corpus(self):
        # many distinct long words over a tiny alphabet share trigrams
        rng = np.random.default_rng(11)
        pool = set()
        while len(pool) < 1200:
            length = int(rng.integers(6, 11))
            pool.add("".join("abcde"[i] for i in rng.integers(0, 5, size=length)))
        corpus = [Sentence(f"w#{i}", w) for i, w in enumerate(sorted(pool))]
        vocab = build_vocab("bow", corpus)
        index = build_vocab("hashing", corpus)
        assert vocab.dim >= 1000
        assert index.dim < vocab.dim


class TestVectorizeHashing:
    def test_each_window_once(self):
        index = build_vocab("hashing", [sent("cat")])
        assert row_of(index, "cat").tolist() == [1, 1, 1]

    def test_doubled_counts(self):
        index = build_vocab("hashing", [sent("cat")])
        assert row_of(index, "cat cat").tolist() == [2, 2, 2]

    def test_fully_unseen(self):
        index = build_vocab("hashing", [sent("cat")])
        assert unknown_row_of(index, "dog").tolist() == [0, 0, 0]
        assert index.term_noun == "term in the trigram index"

    @given(st.lists(words, min_size=1, max_size=10), st.lists(words, min_size=1, max_size=10))
    def test_l1_norm_counts_indexed_trigram_occurrences(self, index_words, sentence_words):
        index = build_vocab("hashing", [sent(" ".join(index_words))])
        text = " ".join(sentence_words)
        occurrences = sum(
            1 for t in tokenize(text) for g in letter_trigrams(t) if g in index.index
        )
        row = row_of(index, text) if occurrences else unknown_row_of(index, text)
        assert row.sum() == occurrences
        assert np.all(row == np.floor(row))


EMBEDDINGS_2D = "2 2\ndog 1 0\ncat 0 1\n"


def load_embeddings(tmp_path, text):
    """The table ``train --embeddings`` builds from a file holding ``text``."""
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    return WordEmbeddingTable(formats.read_features(str(path)))


class TestLoadEmbeddings:
    """An embedding file is a feature file whose ids are words, read by
    ``read_features``: its errors name ``<path>:<line>`` and the word."""

    def raises(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            load_embeddings(tmp_path, text)

    def test_parse(self, tmp_path):
        table = load_embeddings(tmp_path, EMBEDDINGS_2D)
        assert table.dim == 2
        assert table.kind == "word2vec"
        assert len(table.index) == 2
        assert table.table.matrix[table.index["dog"]].tolist() == [1.0, 0.0]

    def test_length_mismatch(self, tmp_path):
        self.raises(tmp_path, "1 3\ndog 1 0\n", ":2: row 'dog' has 2 values, expected 3")

    def test_duplicate_word(self, tmp_path):
        self.raises(tmp_path, "2 2\ndog 1 0\ndog 0 1\n", ":3: duplicate item id 'dog'")

    def test_malformed_header(self, tmp_path):
        self.raises(tmp_path, "dog 1 0\n", ": malformed feature header")

    def test_count_mismatch(self, tmp_path):
        self.raises(tmp_path, "3 2\ndog 1 0\ncat 0 1\n",
                    ":3: header declares 3 rows but file has 2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line_and_word(self, tmp_path, value):
        self.raises(tmp_path, f"2 2\ndog 1 0\ncat 0 {value}\n",
                    ":3: non-finite value in row 'cat'")

    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_underscore_and_non_ascii_digits_rejected(self, tmp_path, value):
        self.raises(tmp_path, f"2 2\ndog 1 0\ncat 0 {value}\n",
                    ":3: non-numeric value in row 'cat'")

    def test_from_path(self, tmp_path):
        # blank lines are skipped and any whitespace separates values
        table = load_embeddings(tmp_path, "2 2\n\ndog  1 0\ncat\t0 1\n\n")
        assert {w: table.table.matrix[i].tolist() for w, i in table.index.items()} == {
            "dog": [1.0, 0.0], "cat": [0.0, 1.0]}

    def test_entries_are_rows_of_the_table(self):
        # the table keeps the given matrix itself, neither copied nor reordered
        table = Features(["dog", "cat"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        embeddings = WordEmbeddingTable(table)
        assert embeddings.table is table
        assert np.shares_memory(embeddings.table.matrix, table.matrix)
        assert embeddings.index == {"dog": 0, "cat": 1}


class TestVectorizeW2v:
    def table(self):
        return WordEmbeddingTable(Features(["dog", "cat"], np.array([[1.0, 0.0], [0.0, 1.0]])))

    def test_arithmetic_mean(self):
        assert row_of(self.table(), "dog cat").tolist() == [0.5, 0.5]

    def test_repeated_word(self):
        assert row_of(self.table(), "dog dog").tolist() == [1.0, 0.0]

    def test_oov_excluded_from_denominator(self):
        assert row_of(self.table(), "dog zebra").tolist() == [1.0, 0.0]

    def test_all_oov(self):
        # zero, not the 0/0 of an empty mean
        table = self.table()
        assert unknown_row_of(table, "zebra lion").tobytes() == np.zeros(2).tobytes()
        assert table.term_noun == "token in the embedding table"

    def test_single_word_is_exact_embedding(self):
        table = self.table()
        cat = table.table.matrix[table.index["cat"]]
        assert np.array_equal(row_of(table, "cat"), cat)

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from(["dog", "cat", "fish"]), min_size=1, max_size=12))
    def test_output_in_convex_hull(self, sentence_words):
        rng = np.random.default_rng(3)
        table = WordEmbeddingTable(Features(["dog", "cat", "fish"], rng.normal(size=(3, 4))))
        row = row_of(table, " ".join(sentence_words))
        used = table.table.matrix[[table.index[w] for w in sentence_words]]
        assert np.all(row >= used.min(axis=0) - 1e-12)
        assert np.all(row <= used.max(axis=0) + 1e-12)


#: a few short words over a small alphabet, so sentences repeat words and
#: trigrams and hold words the index or table does not know
short_words = st.text(alphabet="abcd", min_size=1, max_size=4)
sentence_words = st.lists(st.lists(short_words, max_size=6), min_size=1, max_size=6)


def sentences_with_one_known_word(known, word_lists):
    """One sentence per word list, each with one of the ``known`` words added."""
    return [sent(" ".join([*extra, known[i % len(known)]]), f"s#{i}")
            for i, extra in enumerate(word_lists)]


def stacked(vectorizer, sentences):
    """The reference rows of ``sentences``, one sentence at a time."""
    return np.stack([vectorize(vectorizer, s) for s in sentences])


class TestRows:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["bow", "hashing"]),
           known=st.lists(short_words, min_size=1, max_size=8), word_lists=sentence_words)
    @example(kind="bow", known=["ab"], word_lists=[["ab", "ab", "cd", "ab"]])  # one sentence
    @example(kind="hashing", known=["aaaa"], word_lists=[["aaa"]])
    def test_term_rows_are_the_vectorize_rows(self, kind, known, word_lists):
        index = build_vocab(kind, [sent(" ".join(known))])
        sentences = sentences_with_one_known_word(known, word_lists)
        rows, known = index.rows(sentences)
        assert known.all()
        assert isinstance(rows, neuralnet.SparseRows)
        assert (rows.indices.dtype, rows.values.dtype) == (np.int32, np.float64)
        assert rows.shape == (len(sentences), index.dim)
        expected = stacked(index, sentences)
        assert rows.values.size == np.count_nonzero(expected)
        assert rows[np.arange(len(sentences))].tobytes() == expected.tobytes()

    # normal values round, so a sum in another order shows; a share of
    # them, or all, are +0.0, -0.0 or the tiny 1e-300
    @settings(max_examples=60, deadline=None)
    @given(known=st.lists(short_words, min_size=1, max_size=6, unique=True),
           seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.25, 1.0]),
           word_lists=sentence_words)
    @example(known=["ab"], seed=0, share=1.0, word_lists=[["ab", "cd"]])  # one sentence
    def test_embedding_rows_are_the_vectorize_rows(self, known, seed, share, word_lists):
        known = sorted(known)
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(len(known), 3))
        special = rng.random(matrix.shape) < share
        matrix[special] = rng.choice([0.0, -0.0, 1e-300], size=special.sum())
        table = WordEmbeddingTable(Features(known, matrix))
        sentences = sentences_with_one_known_word(known, word_lists)
        rows, known = table.rows(sentences)
        assert known.all()
        assert isinstance(rows, np.ndarray)
        assert rows.tobytes() == stacked(table, sentences).tobytes()

    def test_term_rows_peak_memory_stays_near_their_size(self):
        # 20 000 sentences of 12 words over 2000 words give 3.0 MB of rows;
        # streaming the term indices peaks at 12.0 MB, while keeping a list
        # of them per sentence until the sort peaked at 15.9 MB
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]
        sentences = [sent(" ".join(words[j] for j in row), f"s#{i}")
                     for i, row in enumerate(rng.integers(2000, size=(20000, 12)))]
        index = build_vocab("bow", sentences)
        tracemalloc.start()
        try:
            rows, _ = index.rows(sentences)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = rows.indptr.nbytes + rows.indices.nbytes + rows.values.nbytes
        assert peak <= 4.5 * size, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of rows"

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_sentence_without_a_known_term_fails_as_in_vectorize(self, kind):
        # rows reports it; train's row builder fails on the first such
        # sentence with the reference's message
        if kind == "word2vec":
            vectorizer = WordEmbeddingTable(Features(["dog"], np.ones((1, 2))))
        else:
            vectorizer = build_vocab(kind, [sent("dog")])
        sentences = [sent("a dog", "s#0"), sent("zebra", "s#1"), sent("lion", "s#2")]
        with pytest.raises(ValueError) as from_vectorize:
            vectorize(vectorizer, sentences[1])
        rows, known = dense_rows(vectorizer, sentences)
        assert known.tolist() == [True, False, False]
        assert rows[0].tobytes() == vectorize(vectorizer, sentences[0]).tobytes()
        assert not rows[1:].any()
        features = Features(["s"], np.ones((1, 2)))
        with pytest.raises(ValueError, match="'s#1'") as from_rows:
            cli._training_rows(vectorizer, sentences, features, None)
        assert str(from_rows.value) == str(from_vectorize.value)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["bow", "hashing", "word2vec"]),
           known=st.lists(short_words, min_size=1, max_size=6, unique=True),
           word_lists=sentence_words)
    @example(kind="word2vec", known=["ab"], word_lists=[["cd"], [], ["ab"]])
    def test_known_is_where_the_reference_finds_a_term(self, kind, known, word_lists):
        # a sentence the reference rejects is reported and left all zeros
        if kind == "word2vec":
            known = sorted(known)
            vectorizer = WordEmbeddingTable(
                Features(known, np.random.default_rng(5).normal(size=(len(known), 3))))
        else:
            vectorizer = build_vocab(kind, [sent(" ".join(known))])
        sentences = [sent(" ".join(words), f"s#{i}") for i, words in enumerate(word_lists)]
        rows, found = dense_rows(vectorizer, sentences)
        for row, has_term, sentence in zip(rows, found, sentences):
            try:
                expected = vectorize(vectorizer, sentence)
            except ValueError:
                expected = np.zeros(vectorizer.dim)
                assert not has_term
            else:
                assert has_term
            assert row.tobytes() == expected.tobytes()


class TestDeterminism:
    def test_bit_identical_outputs(self):
        corpus = [sent("a dog leaps"), sent("a cat sits", "s#1")]
        for kind in ("bow", "hashing"):
            index = build_vocab(kind, corpus)
            assert row_of(index, "a dog sits").tobytes() == row_of(index, "a dog sits").tobytes()
