import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textovision import textvec
from textovision.textvec import (
    Sentence,
    TermIndex,
    build_vocab,
    letter_trigrams,
    load_embeddings,
    tokenize,
)

words = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=10)
texts = st.text(max_size=80)


def sent(text, sid="s#0"):
    return Sentence(sid, text)


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
        row = vocab.vectorize(sent("a dog leaps over a log"))
        assert row.tolist() == [2, 1, 1, 1, 1]
        assert row.dtype == np.float64
        assert row.shape == (vocab.dim,) == (5,)

    def test_oov_dropped(self):
        row = TermIndex("bow", ["a", "dog"]).vectorize(sent("a zebra"))
        assert row.tolist() == [1, 0]

    def test_no_in_vocab_token(self):
        with pytest.raises(ValueError, match="sentence 's#0' has no term in the vocabulary"):
            TermIndex("bow", ["a", "dog"]).vectorize(sent("zebra lion"))

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            TermIndex("bow", ["a"]).vectorize(sent(""))

    @given(st.lists(words, min_size=1, max_size=20), st.lists(words, min_size=1, max_size=20))
    def test_l1_norm_counts_in_vocab_tokens(self, vocab_words, sentence_words):
        vocab = TermIndex("bow", sorted(set(vocab_words)))
        text = " ".join(sentence_words)
        in_vocab = sum(1 for t in tokenize(text) if t in vocab.index)
        if in_vocab == 0:
            with pytest.raises(ValueError):
                vocab.vectorize(sent(text))
        else:
            row = vocab.vectorize(sent(text))
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
        assert index.vectorize(sent("cat")).tolist() == [1, 1, 1]

    def test_doubled_counts(self):
        index = build_vocab("hashing", [sent("cat")])
        assert index.vectorize(sent("cat cat")).tolist() == [2, 2, 2]

    def test_fully_unseen(self):
        index = build_vocab("hashing", [sent("cat")])
        with pytest.raises(ValueError, match="sentence 's#0' has no term in the trigram index"):
            index.vectorize(sent("dog"))

    @given(st.lists(words, min_size=1, max_size=10), st.lists(words, min_size=1, max_size=10))
    def test_l1_norm_counts_indexed_trigram_occurrences(self, index_words, sentence_words):
        index = build_vocab("hashing", [sent(" ".join(index_words))])
        text = " ".join(sentence_words)
        occurrences = sum(
            1 for t in tokenize(text) for g in letter_trigrams(t) if g in index.index
        )
        if occurrences == 0:
            with pytest.raises(ValueError):
                index.vectorize(sent(text))
        else:
            row = index.vectorize(sent(text))
            assert row.sum() == occurrences
            assert np.all(row == np.floor(row))


EMBEDDINGS_2D = "2 2\ndog 1 0\ncat 0 1\n"


class TestLoadEmbeddings:
    def test_parse(self):
        table = load_embeddings(io.StringIO(EMBEDDINGS_2D))
        assert table.dim == 2
        assert table.kind == "word2vec"
        assert len(table.entries) == 2
        assert table.entries["dog"].tolist() == [1.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            load_embeddings(io.StringIO("1 3\ndog 1 0\n"))

    def test_duplicate_word(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(io.StringIO("2 2\ndog 1 0\ndog 0 1\n"))

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            load_embeddings(io.StringIO("dog 1 0\n"))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 3"):
            load_embeddings(io.StringIO("3 2\ndog 1 0\ncat 0 1\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line_and_word(self, value):
        with pytest.raises(ValueError, match="line 3: embedding for 'cat' has a non-finite"):
            load_embeddings(io.StringIO(f"2 2\ndog 1 0\ncat 0 {value}\n"))

    def test_from_path(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(EMBEDDINGS_2D, encoding="utf-8")
        assert load_embeddings(str(path)).dim == 2


class TestVectorizeW2v:
    def table(self):
        return load_embeddings(io.StringIO(EMBEDDINGS_2D))

    def test_arithmetic_mean(self):
        assert self.table().vectorize(sent("dog cat")).tolist() == [0.5, 0.5]

    def test_repeated_word(self):
        assert self.table().vectorize(sent("dog dog")).tolist() == [1.0, 0.0]

    def test_oov_excluded_from_denominator(self):
        assert self.table().vectorize(sent("dog zebra")).tolist() == [1.0, 0.0]

    def test_all_oov(self):
        with pytest.raises(ValueError, match="no token in the embedding table"):
            self.table().vectorize(sent("zebra lion"))

    def test_single_word_is_exact_embedding(self):
        table = self.table()
        assert np.array_equal(table.vectorize(sent("cat")), table.entries["cat"])

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from(["dog", "cat", "fish"]), min_size=1, max_size=12))
    def test_output_in_convex_hull(self, sentence_words):
        rng = np.random.default_rng(3)
        table = textvec.WordEmbeddingTable(
            4, {w: rng.normal(size=4) for w in ("dog", "cat", "fish")}
        )
        row = table.vectorize(sent(" ".join(sentence_words)))
        used = np.stack([table.entries[w] for w in sentence_words])
        assert np.all(row >= used.min(axis=0) - 1e-12)
        assert np.all(row <= used.max(axis=0) + 1e-12)


class TestDeterminism:
    def test_bit_identical_outputs(self):
        corpus = [sent("a dog leaps"), sent("a cat sits", "s#1")]
        s = sent("a dog sits")
        for kind in ("bow", "hashing"):
            index = build_vocab(kind, corpus)
            assert index.vectorize(s).tobytes() == index.vectorize(s).tobytes()
