import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthdata import write_sentences

from textovision import formats
from textovision.cli import main
from textovision.retrieval import Features
from textovision.textvec import Sentence

# three items with disjoint word pools and separated non-negative targets
ITEM_WORDS = {
    "apple": ["alpha", "beta", "gamma", "delta"],
    "brick": ["epsilon", "zeta", "eta", "theta"],
    "cloud": ["iota", "kappa", "lam", "mu"],
}
ITEM_TARGETS = {
    "apple": [1.0, 0.1, 0.0, 0.1],
    "brick": [0.0, 1.0, 0.1, 0.0],
    "cloud": [0.1, 0.0, 1.0, 0.2],
}


def table(rows):
    """A Features table from ``{id: values}``."""
    return Features(list(rows), np.array(list(rows.values()), dtype=np.float64))


def rows_of(features):
    return {item_id: row.tolist() for item_id, row in zip(features.ids, features.matrix)}


def write_corpus(dirpath):
    rng = np.random.default_rng(1234)
    train, val = [], []
    for item, words in ITEM_WORDS.items():
        for k in range(4):
            picks = rng.choice(len(words), size=3, replace=False)
            sentence = Sentence(f"{item}#{k}", " ".join(words[p] for p in picks))
            (train if k < 3 else val).append(sentence)
    paths = {
        "train_sentences": str(dirpath / "train.tsv"),
        "val_sentences": str(dirpath / "val.tsv"),
        "features": str(dirpath / "items.feat"),
    }
    write_sentences(paths["train_sentences"], train)
    write_sentences(paths["val_sentences"], val)
    formats.write_features(paths["features"], table(ITEM_TARGETS))
    return paths


def train_args(paths, out, extra=()):
    return [
        "train",
        "--sentences", paths["train_sentences"],
        "--features", paths["features"],
        "--val-sentences", paths["val_sentences"],
        "--val-features", paths["features"],
        "--layers", "6",
        "--max-epochs", "10",
        "--seed", "5",
        "--out", out,
        *extra,
    ]


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


def open_full_disk(file, mode="r", **kwargs):
    """The real ``open`` for reading; for writing, a full disk."""
    return (FullDiskFile if "w" in mode else open)(file, mode, **kwargs)


class TestBuildVocab:
    def test_bow_sorted_and_counted(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\ta dog\na#1\ta cat\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--sentences", str(path), "--vectorizer", "bow",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert out.read_text(encoding="utf-8") == "a\ncat\ndog\n"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\tthe quick brown fox\n", encoding="utf-8")
        first = tmp_path / "v1.txt"
        second = tmp_path / "v2.txt"
        for out in (first, second):
            assert main(["build-vocab", "--sentences", str(path), "--vectorizer", "bow",
                         "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_trigram_listing(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\tcat\n", encoding="utf-8")
        out = tmp_path / "tri.txt"
        assert main(["build-vocab", "--sentences", str(path), "--vectorizer", "hashing",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert out.read_text(encoding="utf-8").splitlines() == ["#ca", "at#", "cat"]

    def test_failed_write_leaves_earlier_listing_untouched(self, tmp_path, capsys,
                                                           monkeypatch):
        path = tmp_path / "s.tsv"
        out = tmp_path / "vocab.txt"
        args = ["build-vocab", "--sentences", str(path), "--vectorizer", "bow", "--out", str(out)]
        path.write_text("a#0\ta dog\n", encoding="utf-8")
        assert main(args) == 0
        earlier = out.read_bytes()
        path.write_text("a#0\ta cat\n", encoding="utf-8")
        files = sorted(tmp_path.iterdir())
        monkeypatch.setattr(formats, "open", open_full_disk, raising=False)
        assert main(args) == 2
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == files

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\t...\n", encoding="utf-8")
        assert main(["build-vocab", "--sentences", str(path), "--vectorizer", "bow",
                     "--out", str(tmp_path / "v.txt")]) == 2


class TestTrain:
    def test_writes_model_and_history(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        model = tmp_path / "model.bin"
        assert main(train_args(paths, str(model))) == 0
        assert model.read_bytes()[:4] == b"W2VV"
        history = (tmp_path / "model.bin.history.tsv").read_text(encoding="utf-8")
        assert history.startswith("epoch\ttrain_loss\tval_loss\n")
        assert len(history.splitlines()) >= 2

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        assert main(train_args(paths, str(a))) == 0
        assert main(train_args(paths, str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_layer_widths_follow_backend_and_features(self, tmp_path, capsys):
        from textovision import modelio

        paths = write_corpus(tmp_path)
        model_path = tmp_path / "m.bin"
        assert main(train_args(paths, str(model_path))) == 0
        model = modelio.load_model(str(model_path))
        vocab_size = model.vectorizer.dim
        assert [w.shape for w, _ in model.params] == [(6, vocab_size), (4, 6)]

    def test_explicit_pairs_equivalent_to_prefix_rule(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        pairs_path = tmp_path / "pairs.tsv"
        lines = []
        for key in ("train_sentences", "val_sentences"):
            for s in formats.read_sentences(paths[key]):
                lines.append(f"{s.id}\t{s.id.rpartition('#')[0]}\n")
        pairs_path.write_text("".join(lines), encoding="utf-8")
        by_prefix = tmp_path / "prefix.bin"
        by_pairs = tmp_path / "pairs.bin"
        assert main(train_args(paths, str(by_prefix))) == 0
        assert main(train_args(paths, str(by_pairs), ["--pairs", str(pairs_path)])) == 0
        assert by_prefix.read_bytes() == by_pairs.read_bytes()

    def test_missing_validation_flag_is_usage_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        args = train_args(paths, str(tmp_path / "m.bin"))
        i = args.index("--val-sentences")
        del args[i : i + 2]
        assert main(args) == 1

    def test_word2vec_requires_embeddings(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        assert main(train_args(paths, str(tmp_path / "m.bin"),
                               ["--vectorizer", "word2vec"])) == 1

    def test_missing_feature_row_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        extra = tmp_path / "extra.tsv"
        extra.write_text("zebra#0\talpha beta\n", encoding="utf-8")
        args = train_args(paths, str(tmp_path / "m.bin"))
        args[args.index("--sentences") + 1] = str(extra)
        assert main(args) == 2
        assert "zebra" in capsys.readouterr().err

    def test_diverging_loss_is_data_error_naming_the_epoch(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        huge = table(ITEM_TARGETS)
        formats.write_features(paths["features"], Features(huge.ids, huge.matrix * 1e150))
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--lr", "1e150"])) == 2
        # the error line alone: no numpy overflow warnings before it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("textovision: error: epoch 1: non-finite loss (train ")
        assert not model.exists()

    def test_failed_model_write_leaves_earlier_model_untouched(self, tmp_path, capsys,
                                                               monkeypatch):
        paths = write_corpus(tmp_path)
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model))) == 0
        earlier = model.read_bytes()
        files = sorted(tmp_path.iterdir())
        # models are written through the atomic writer of formats
        monkeypatch.setattr(formats, "open", open_full_disk, raising=False)
        assert main(train_args(paths, str(model), ["--seed", "6"])) == 2
        assert "No space left" in capsys.readouterr().err
        assert model.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == files

    def test_failed_history_write_leaves_earlier_history_untouched(self, tmp_path, capsys,
                                                                   monkeypatch):
        paths = write_corpus(tmp_path)
        model = tmp_path / "m.bin"
        history = tmp_path / "m.bin.history.tsv"
        assert main(train_args(paths, str(model))) == 0
        earlier = history.read_bytes()
        files = sorted(tmp_path.iterdir())

        def open_full_disk_for_history(file, mode="r", **kwargs):
            full = "history" in os.path.basename(file)
            return (open_full_disk if full else open)(file, mode, **kwargs)

        monkeypatch.setattr(formats, "open", open_full_disk_for_history, raising=False)
        assert main(train_args(paths, str(model), ["--max-epochs", "3"])) == 2
        assert "No space left" in capsys.readouterr().err
        assert history.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == files

    def test_sentence_repeated_in_pairs_file_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        pairs_path = tmp_path / "pairs.tsv"
        lines = [f"{s.id}\t{s.id.rpartition('#')[0]}\n"
                 for key in ("train_sentences", "val_sentences")
                 for s in formats.read_sentences(paths[key])]
        lines.insert(3, "apple#1\tcloud\n")  # line 4 pairs apple#1 a second time
        pairs_path.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--pairs", str(pairs_path)])) == 2
        assert f"{pairs_path}:4: duplicate id 'apple#1'" in capsys.readouterr().err
        assert not model.exists()

    def test_nonexistent_file_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        args = train_args(paths, str(tmp_path / "m.bin"))
        args[args.index("--sentences") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 2


@pytest.fixture
def trained(tmp_path):
    paths = write_corpus(tmp_path)
    model = tmp_path / "model.bin"
    assert main(train_args(paths, str(model), ["--max-epochs", "40"])) == 0
    return paths, str(model)


class TestEncode:
    def test_encode_writes_feature_rows(self, tmp_path, capsys, trained):
        paths, model = trained
        out = tmp_path / "enc.feat"
        assert main(["encode", "--model", model, "--sentences", paths["val_sentences"],
                     "--out", str(out)]) == 0
        rows = formats.read_features(str(out))
        assert len(rows) == 3
        assert rows.dim == 4  # model output dim

    def test_reencode_identical(self, tmp_path, capsys, trained):
        paths, model = trained
        a = tmp_path / "a.feat"
        b = tmp_path / "b.feat"
        for out in (a, b):
            assert main(["encode", "--model", model, "--sentences", paths["val_sentences"],
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_oov_sentence_reported_and_skipped(self, tmp_path, capsys, trained):
        paths, model = trained
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text("ok#0\talpha beta\nbad#0\tzzz qqq\n", encoding="utf-8")
        out = tmp_path / "enc.feat"
        assert main(["encode", "--model", model, "--sentences", str(mixed),
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "bad#0" in err
        assert "skipped 1" in err
        assert len(formats.read_features(str(out))) == 1

    def test_sentence_id_with_whitespace_is_data_error(self, tmp_path, capsys, trained):
        # a feature file splits on whitespace: 'apple 1#0' would come back
        # from the encoded file as a row 'apple' with one value too many
        _, model = trained
        sentences = tmp_path / "spaced.tsv"
        sentences.write_text("apple#0\talpha beta\napple 1#0\talpha gamma\n", encoding="utf-8")
        out = tmp_path / "enc.feat"
        assert main(["encode", "--model", model, "--sentences", str(sentences),
                     "--out", str(out)]) == 2
        assert (f"{sentences}:2: sentence id 'apple 1#0' contains whitespace"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_corrupt_model_is_data_error(self, tmp_path, capsys, trained):
        paths, _ = trained
        broken = tmp_path / "broken.bin"
        broken.write_bytes(b"XXXX" + bytes(16))
        assert main(["encode", "--model", str(broken), "--sentences", paths["val_sentences"],
                     "--out", str(tmp_path / "o.feat")]) == 2

    @pytest.mark.parametrize(
        "shapes, code, message",
        [
            ([(5, 3), (2, 5)], 0, "encoded 1 sentences"),
            ([(5, 4), (2, 5)], 2, "layer 1 takes 4 inputs, but the vectorizer dim is 3"),
            ([(5, 3), (2, 6)], 2, "layer 2 takes 6 inputs, but layer 1's output width is 5"),
        ],
    )
    def test_layer_shapes_must_chain_from_backend_dim(self, tmp_path, capsys, shapes, code,
                                                      message):
        words = ["a", "cat", "dog"]
        raw = [b"W2VV", struct.pack("<BBQ", 1, 0, len(words))]
        raw += [struct.pack("<Q", len(w)) + w.encode() for w in words]
        raw.append(struct.pack("<Q", len(shapes)))
        raw += [struct.pack("<QQ", r, c) + bytes(8 * (r * c + r)) for r, c in shapes]
        model = tmp_path / "hand.bin"
        model.write_bytes(b"".join(raw))
        sentences = tmp_path / "s.tsv"
        sentences.write_text("s#0\ta cat\n", encoding="utf-8")
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(tmp_path / "o.feat")]) == code
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("dim, words", [(2, []), (0, ["dog"])])
    def test_empty_embedding_table_is_data_error(self, tmp_path, capsys, dim, words):
        # a hand-built word2vec model whose table has no word, or no dimension
        raw = [b"W2VV", struct.pack("<BBQQ", 1, 2, dim, len(words))]
        raw += [struct.pack("<Q", len(w)) + w.encode() for w in words]
        raw.append(struct.pack("<QQQ", 1, 2, dim) + bytes(8 * (2 * dim + 2)))
        model = tmp_path / "empty.bin"
        model.write_bytes(b"".join(raw))
        sentences = tmp_path / "s.tsv"
        sentences.write_text("s#0\tdog\n", encoding="utf-8")
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(tmp_path / "o.feat")]) == 2
        assert capsys.readouterr().err == (
            f"textovision: error: {model}: embedding table declares {len(words)} words "
            f"of dim {dim}\n"
        )
        assert not (tmp_path / "o.feat").exists()

    @pytest.mark.parametrize("words", [["dog", "dog"], ["dog", "cat"]])
    def test_repeated_or_unsorted_embedding_word_is_data_error(self, tmp_path, capsys, words):
        # a hand-built word2vec model with rows (1, 0) and (0, 1) and an identity layer
        raw = [b"W2VV", struct.pack("<BBQQ", 1, 2, 2, len(words))]
        raw += [struct.pack("<Q", len(w)) + w.encode() for w in words]
        raw.append(np.eye(2).tobytes() + struct.pack("<QQQ", 1, 2, 2) + np.eye(2).tobytes())
        raw.append(bytes(16))
        model = tmp_path / "w2v.bin"
        model.write_bytes(b"".join(raw))
        sentences = tmp_path / "s.tsv"
        sentences.write_text("s#0\tdog\n", encoding="utf-8")
        out = tmp_path / "o.feat"
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"textovision: error: {model}: embedding table words are not unique and sorted\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("shapes, number, rows, cols",
                             [([(0, 3)], 1, 0, 3), ([(5, 3), (2, 0)], 2, 2, 0)])
    def test_layer_without_rows_or_cols_is_data_error(self, tmp_path, capsys, shapes, number,
                                                      rows, cols):
        words = ["a", "cat", "dog"]
        raw = [b"W2VV", struct.pack("<BBQ", 1, 0, len(words))]
        raw += [struct.pack("<Q", len(w)) + w.encode() for w in words]
        raw.append(struct.pack("<Q", len(shapes)))
        raw += [struct.pack("<QQ", r, c) + bytes(8 * (r * c + r)) for r, c in shapes]
        model = tmp_path / "hand.bin"
        model.write_bytes(b"".join(raw))
        sentences = tmp_path / "s.tsv"
        sentences.write_text("x#0\ta cat\n", encoding="utf-8")
        out = tmp_path / "o.feat"
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"textovision: error: {model}: layer {number} has {rows} rows and {cols} cols\n"
        )
        assert not out.exists()

    def test_all_zero_predictions_counted(self, tmp_path, capsys):
        # a hand-built bow model whose every weight and bias is zero
        words = ["a", "cat", "dog"]
        raw = [b"W2VV", struct.pack("<BBQ", 1, 0, len(words))]
        raw += [struct.pack("<Q", len(w)) + w.encode() for w in words]
        raw.append(struct.pack("<Q", 2))
        raw += [struct.pack("<QQ", r, c) + bytes(8 * (r * c + r)) for r, c in [(5, 3), (2, 5)]]
        model = tmp_path / "zero.bin"
        model.write_bytes(b"".join(raw))
        sentences = tmp_path / "s.tsv"
        sentences.write_text("s#0\ta cat\ns#1\tzebra\ns#2\tdog\n", encoding="utf-8")
        out = tmp_path / "o.feat"
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "encoded 2 sentences, skipped 1, 2 all-zero predictions"
        )
        assert out.read_text(encoding="utf-8") == "2 2\ns#0 0.0 0.0\ns#2 0.0 0.0\n"


class HandModel:
    """Model file bytes built field by field, noting where each header or
    length field lies."""

    def __init__(self):
        self.data, self.fields = b"", []

    def field(self, fmt, *values):
        self.fields.append((len(self.data), struct.calcsize(fmt)))
        self.data += struct.pack(fmt, *values)

    def payload(self, raw):
        self.data += raw

    def words(self, words):
        for word in words:
            self.field("<Q", len(word.encode()))
            self.payload(word.encode())

    def layers(self, rng, shapes):
        self.field("<Q", len(shapes))
        for rows, cols in shapes:
            self.field("<QQ", rows, cols)
            self.payload(rng.normal(size=rows * cols + rows).tobytes())


def fuzz_models():
    """A bow model and a word2vec model, both valid."""
    rng = np.random.default_rng(3)
    bow = HandModel()
    bow.field("<4sBB", b"W2VV", 1, 0)
    bow.field("<Q", 3)
    bow.words(["a", "cat", "dog"])
    bow.layers(rng, [(4, 3), (2, 4)])
    w2v = HandModel()
    w2v.field("<4sBB", b"W2VV", 1, 2)
    w2v.field("<QQ", 2, 3)
    w2v.words(["cat", "dog", "émeu"])
    w2v.payload(rng.normal(size=6).tobytes())
    w2v.layers(rng, [(3, 2)])
    return {"bow": bow, "word2vec": w2v}


FUZZ_MODELS = fuzz_models()


def encode_model_bytes(dirpath, data):
    """Exit code and stderr of ``encode`` with a model file holding ``data``;
    the directory must hold only its inputs afterwards, or the output."""
    import contextlib
    import io

    model, sentences, out = dirpath / "m.bin", dirpath / "s.tsv", dirpath / "o.feat"
    model.write_bytes(data)
    sentences.write_text("x#0\tthe cat\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(out)])
    left = sorted(p.name for p in dirpath.iterdir())
    assert left == (["m.bin", "o.feat", "s.tsv"] if code == 0 else ["m.bin", "s.tsv"]), left
    out.unlink(missing_ok=True)
    return code, err.getvalue()


class TestModelFileFuzz:
    def test_fuzz_models_encode(self, tmp_path):
        for model in FUZZ_MODELS.values():
            assert encode_model_bytes(tmp_path, model.data)[0] == 0

    @pytest.mark.parametrize("kind", sorted(FUZZ_MODELS))
    def test_every_truncation_is_data_error(self, tmp_path, kind):
        data = FUZZ_MODELS[kind].data
        for cut in range(len(data)):
            code, err = encode_model_bytes(tmp_path, data[:cut])
            assert code == 2, cut
            assert err.startswith("textovision: error: ") and err.count("\n") == 1, (cut, err)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_MODELS)), st.data())
    def test_flipped_header_or_length_bit_is_data_error(self, tmp_path_factory, kind, data):
        model = FUZZ_MODELS[kind]
        offset, size = data.draw(st.sampled_from(model.fields))
        bit = data.draw(st.integers(0, 8 * size - 1))
        flipped = bytearray(model.data)
        flipped[offset + bit // 8] ^= 1 << (bit % 8)
        code, err = encode_model_bytes(tmp_path_factory.mktemp("flip"), bytes(flipped))
        assert code == 2
        assert "Traceback" not in err and err.splitlines()[-1].startswith("textovision: error: ")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_MODELS)), st.data())
    def test_flipped_bit_anywhere_exits_cleanly(self, tmp_path_factory, kind, data):
        # a flip inside a float payload may leave a valid model
        model = FUZZ_MODELS[kind]
        bit = data.draw(st.integers(0, 8 * len(model.data) - 1))
        flipped = bytearray(model.data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        code, err = encode_model_bytes(tmp_path_factory.mktemp("flip"), bytes(flipped))
        assert code in (0, 2)
        assert "Traceback" not in err, err


    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_non_finite_prediction_is_data_error(self, tmp_path, value):
        # one 2 x 3 layer of ``value``: nan, 0 * inf, or 1e308 + 1e308 overflowing
        model = HandModel()
        model.field("<4sBB", b"W2VV", 1, 0)
        model.field("<Q", 3)
        model.words(["a", "cat", "dog"])
        model.field("<Q", 1)
        model.field("<QQ", 2, 3)
        model.payload(np.full(8, value).tobytes())
        code, err = encode_model_bytes(tmp_path, model.data)
        assert code == 2
        assert err == (f"textovision: error: {tmp_path / 'm.bin'}: "
                       "the model predicts non-finite features\n")


class TestModelLoad:
    @pytest.mark.parametrize("kind", ["bow", "word2vec"])
    def test_loaded_arrays_are_aligned_on_a_misaligned_payload(self, tmp_path, kind):
        # term bytes 1 + 3 + 5 put every float payload at an odd file offset;
        # numpy's matmul bypasses BLAS on unaligned arrays
        from textovision import modelio, neuralnet, textvec

        words = ["a", "cat", "émeu"]
        if kind == "bow":
            vectorizer = textvec.TermIndex("bow", words)
        else:
            vectorizer = textvec.WordEmbeddingTable(table({w: [0.5, -1.0] for w in words}))
        params = neuralnet.init_network(neuralnet.NetworkConfig([vectorizer.dim, 4, 2]), 0)
        path = tmp_path / "m.bin"
        modelio.save_model(str(path), modelio.TrainedModel(vectorizer, params))
        assert path.read_bytes().find(params[0][0].tobytes()) % 8 != 0

        loaded = modelio.load_model(str(path))
        arrays = [a for layer in loaded.params for a in layer]
        if kind == "word2vec":
            arrays += list(loaded.vectorizer.entries.values())
        assert all(a.flags.aligned for a in arrays)


class TestRank:
    def write_pool(self, tmp_path):
        rng = np.random.default_rng(77)
        items = table({f"i{j}": rng.normal(size=3) + 2.0 for j in range(5)})
        queries = table({f"q{j}": rng.normal(size=3) + 2.0 for j in range(3)})
        items_path = tmp_path / "items.feat"
        queries_path = tmp_path / "queries.feat"
        formats.write_features(str(items_path), items)
        formats.write_features(str(queries_path), queries)
        return str(queries_path), str(items_path)

    def test_output_shape(self, tmp_path, capsys):
        queries, items = self.write_pool(tmp_path)
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", queries, "--items", items, "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 15

    def test_self_ranking_puts_self_first(self, tmp_path, capsys):
        _, items = self.write_pool(tmp_path)
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", items, "--items", items, "--out", str(out)]) == 0
        for ranking in formats.read_ranking(str(out)):
            assert ranking.item_ids[0] == ranking.query_id

    def test_ties_ordered_by_id(self, tmp_path, capsys):
        items_path = tmp_path / "items.feat"
        queries_path = tmp_path / "q.feat"
        formats.write_features(
            str(items_path),
            table({"zz": [1.0, 1.0], "aa": [2.0, 2.0]}),
        )
        formats.write_features(str(queries_path), table({"q": [1.0, 1.0]}))
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", str(queries_path), "--items", str(items_path),
                     "--out", str(out)]) == 0
        assert formats.read_ranking(str(out))[0].item_ids == ["aa", "zz"]

    def test_top_limits_lines(self, tmp_path, capsys):
        queries, items = self.write_pool(tmp_path)
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", queries, "--items", items, "--top", "2",
                     "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 6

    def test_top_gives_the_first_lines_of_each_query(self, tmp_path, capsys):
        # repeated rows tie; the cut must fall inside a run of ties
        rows = {"i4": [1.0, 0.0], "i2": [1.0, 0.0], "i0": [0.0, 1.0], "i3": [1.0, 0.0],
                "i1": [-1.0, 0.5], "i5": [0.0, 1.0]}
        queries, items = tmp_path / "q.feat", tmp_path / "i.feat"
        formats.write_features(str(items), table(rows))
        formats.write_features(str(queries), table({"q": [1.0, 0.0], "p": [0.0, -2.0]}))
        full = tmp_path / "full.tsv"
        assert main(["rank", "--queries", str(queries), "--items", str(items),
                     "--out", str(full)]) == 0
        lines = full.read_text(encoding="utf-8").splitlines()
        for top in (1, 2, 5, 6, 9):
            out = tmp_path / f"top{top}.tsv"
            assert main(["rank", "--queries", str(queries), "--items", str(items),
                         "--top", str(top), "--out", str(out)]) == 0
            kept = min(top, 6)
            assert out.read_text(encoding="utf-8").splitlines() == lines[:kept] + lines[6:6 + kept]

    def test_bad_top_is_usage_error_before_any_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.feat")
        for top in ("0", "-3"):
            assert main(["rank", "--queries", missing, "--items", missing, "--top", top,
                         "--out", str(tmp_path / "r.tsv")]) == 1
            assert "--top must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_overflowing_scores_are_data_error_without_warnings(self, tmp_path, capsys):
        huge = tmp_path / "huge.feat"
        formats.write_features(str(huge), table({"h": [1e200, 1e200], "k": [1e200, -1e200]}))
        out = tmp_path / "r.tsv"
        assert main(["rank", "--queries", str(huge), "--items", str(huge),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "textovision: error: query 'h': cosine scores overflow (values too large)\n"
        )
        assert not out.exists()

    def test_dim_mismatch_is_data_error(self, tmp_path, capsys):
        queries, _ = self.write_pool(tmp_path)
        other = tmp_path / "other.feat"
        formats.write_features(str(other), table({"x": [1.0, 2.0]}))
        assert main(["rank", "--queries", queries, "--items", str(other),
                     "--out", str(tmp_path / "r.tsv")]) == 2

    def test_zero_vector_is_data_error(self, tmp_path, capsys):
        queries, _ = self.write_pool(tmp_path)
        bad = tmp_path / "bad.feat"
        formats.write_features(str(bad), table({"z": [0.0, 0.0, 0.0]}))
        assert main(["rank", "--queries", queries, "--items", str(bad),
                     "--out", str(tmp_path / "r.tsv")]) == 2
        assert "'z'" in capsys.readouterr().err


class TestPool:
    def write_frames(self, tmp_path):
        frames = table(
            {"v1#0": [1.0, 3.0], "v1#1": [3.0, 5.0], "v2#0": [2.0, 2.0], "v2#1": [4.0, 0.0]}
        )
        path = tmp_path / "frames.feat"
        formats.write_features(str(path), frames)
        return str(path)

    def test_mean_pooling(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        out = tmp_path / "pooled.feat"
        assert main(["pool", "--features", frames, "--out", str(out)]) == 0
        rows = rows_of(formats.read_features(str(out)))
        assert rows == {"v1": [2.0, 4.0], "v2": [3.0, 1.0]}

    def test_audio_concatenation_adds_dims(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        audio = tmp_path / "audio.feat"
        formats.write_features(
            str(audio),
            table({"v1": [9.0], "v2": [8.0]}),
        )
        out = tmp_path / "pooled.feat"
        assert main(["pool", "--features", frames, "--audio", str(audio),
                     "--out", str(out)]) == 0
        rows = rows_of(formats.read_features(str(out)))
        assert rows["v1"] == [2.0, 4.0, 9.0]

    def test_missing_audio_names_video(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        audio = tmp_path / "audio.feat"
        formats.write_features(str(audio), table({"v1": [9.0]}))
        assert main(["pool", "--features", frames, "--audio", str(audio),
                     "--out", str(tmp_path / "p.feat")]) == 2
        assert "v2" in capsys.readouterr().err


class TestEvaluate:
    def write_fixture(self, tmp_path):
        # four queries whose first relevant items rank 1, 3, 7, 12
        lines = []
        for q, hit in zip("abcd", (1, 3, 7, 12)):
            for rank in range(1, 13):
                item = f"q{q}-rel" if rank == hit else f"junk{q}{rank:02d}"
                lines.append(f"q{q}\t{item}\t{rank}\t{1.0 - rank / 100:.6f}\n")
        rank_path = tmp_path / "rank.tsv"
        rank_path.write_text("".join(lines), encoding="utf-8")
        gt_path = tmp_path / "gt.tsv"
        gt_path.write_text("".join(f"q{q}\tq{q}-rel\n" for q in "abcd"), encoding="utf-8")
        return str(rank_path), str(gt_path)

    def test_rank_metrics_fixture(self, tmp_path, capsys):
        rank_path, gt_path = self.write_fixture(tmp_path)
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                     "--metrics", "r@5,medr,meanr"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "r@5\t50.0\tmedr\t5.0\tmeanr\t5.75"

    def test_mir_fixture(self, tmp_path, capsys):
        lines = []
        for q, hit, pool in (("a", 1, 4), ("b", 2, 4), ("c", 4, 4)):
            for rank in range(1, pool + 1):
                item = "rel" + q if rank == hit else f"junk{q}{rank}"
                lines.append(f"q{q}\t{item}\t{rank}\t{1.0 - rank / 10:.6f}\n")
        rank_path = tmp_path / "rank.tsv"
        rank_path.write_text("".join(lines), encoding="utf-8")
        gt_path = tmp_path / "gt.tsv"
        gt_path.write_text("qa\trela\nqb\trelb\nqc\trelc\n", encoding="utf-8")
        assert main(["evaluate", "--rankings", str(rank_path), "--ground-truth", str(gt_path),
                     "--metrics", "mir"]) == 0
        out = capsys.readouterr().out
        assert "0.583333" in out

    def test_map_fixture(self, tmp_path, capsys):
        rank_path = tmp_path / "rank.tsv"
        rank_path.write_text(
            "q\trel1\t1\t0.9\nq\tjunk1\t2\t0.8\nq\trel2\t3\t0.7\nq\tjunk2\t4\t0.6\n",
            encoding="utf-8",
        )
        gt_path = tmp_path / "gt.tsv"
        gt_path.write_text("q\trel1\nq\trel2\n", encoding="utf-8")
        assert main(["evaluate", "--rankings", str(rank_path), "--ground-truth", str(gt_path),
                     "--metrics", "map"]) == 0
        assert "0.833333" in capsys.readouterr().out

    def test_report_file_written(self, tmp_path, capsys):
        rank_path, gt_path = self.write_fixture(tmp_path)
        report = tmp_path / "report.tsv"
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                     "--metrics", "r@1,map", "--out", str(report)]) == 0
        assert report.read_text(encoding="utf-8").startswith("r@1\t25.0\tmap\t")

    def test_failed_report_write_leaves_earlier_report_untouched(self, tmp_path, capsys,
                                                                 monkeypatch):
        rank_path, gt_path = self.write_fixture(tmp_path)
        report = tmp_path / "report.tsv"
        args = ["evaluate", "--rankings", rank_path, "--ground-truth", gt_path, "--out",
                str(report)]
        assert main([*args, "--metrics", "r@1"]) == 0
        earlier = report.read_bytes()
        files = sorted(tmp_path.iterdir())
        monkeypatch.setattr(formats, "open", open_full_disk, raising=False)
        assert main([*args, "--metrics", "map"]) == 2
        assert "No space left" in capsys.readouterr().err
        assert report.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == files

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        rank_path, gt_path = self.write_fixture(tmp_path)
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                     "--metrics", "ndcg"]) == 1

    def test_missing_query_is_data_error(self, tmp_path, capsys):
        rank_path, _ = self.write_fixture(tmp_path)
        gt_path = tmp_path / "gt2.tsv"
        gt_path.write_text("qa\tqa-rel\n", encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path)]) == 2

    @pytest.mark.parametrize("field, line", [
        ("rank 'x' for query 'qa'", "qa\tjunka02\tx\t0.980000"),
        ("score 'zz' for query 'qa'", "qa\tjunka02\t2\tzz"),
    ])
    def test_non_numeric_ranking_field_is_data_error_naming_the_line(self, tmp_path, capsys,
                                                                      field, line):
        rank_path, gt_path = self.write_fixture(tmp_path)
        lines = (tmp_path / "rank.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = line + "\n"
        (tmp_path / "rank.tsv").write_text("".join(lines), encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path]) == 2
        assert f"{rank_path}:2: non-numeric {field}\n" in capsys.readouterr().err

    def test_item_ranked_twice_for_a_query_is_data_error_naming_the_line(self, tmp_path,
                                                                          capsys):
        # counted twice, the relevant 'a' of 'x, a, a' would give map 0.583, not 0.5;
        # one item under two queries, interleaved lines and a blank line stay allowed
        rank_path = tmp_path / "rank.tsv"
        rank_path.write_text("p\ta\t1\t0.9\nq\tx\t1\t0.9\n\nq\ta\t2\t0.8\np\tx\t2\t0.7\n"
                             "q\ta\t3\t0.7\n", encoding="utf-8")
        gt_path = tmp_path / "gt.tsv"
        gt_path.write_text("p\ta\nq\ta\n", encoding="utf-8")
        args = ["evaluate", "--rankings", str(rank_path), "--ground-truth", str(gt_path),
                "--metrics", "map"]
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: {rank_path}:6: item 'a' ranked twice for query 'q'\n"
        )
        rank_path.write_text(rank_path.read_text(encoding="utf-8").rsplit("q\t", 1)[0],
                             encoding="utf-8")
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[0] == "map\t0.75"

    def test_repeated_ground_truth_pair_is_data_error(self, tmp_path, capsys):
        rank_path, _ = self.write_fixture(tmp_path)
        gt_path = tmp_path / "gt2.tsv"
        gt_path.write_text("qa\tqa-rel\nqb\tqb-rel\nqc\tqc-rel\nqd\tqd-rel\n"
                           "qb\tjunkb01\nqb\tqb-rel\n", encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path)]) == 2
        assert f"{gt_path}:6: duplicate pair ('qb', 'qb-rel')" in capsys.readouterr().err
        # several distinct relevant items per query stay allowed
        gt_path.write_text(gt_path.read_text(encoding="utf-8").rsplit("qb\t", 1)[0],
                           encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path),
                     "--metrics", "r@1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "r@1\t50.0"

    def test_top_truncated_ranking(self, tmp_path, capsys):
        # each item ranks itself first, so under --top 1 'c' never sees 'a'
        items = tmp_path / "items.feat"
        formats.write_features(str(items), table({"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0],
                                                  "c": [0.0, 0.0, 1.0]}))
        rank_path = str(tmp_path / "rank.tsv")
        assert main(["rank", "--queries", str(items), "--items", str(items), "--top", "1",
                     "--out", rank_path]) == 0
        gt_path = tmp_path / "gt.tsv"
        gt_path.write_text("a\ta\nb\tb\nc\ta\n", encoding="utf-8")
        args = ["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path)]
        assert main([*args, "--metrics", "r@1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"r@1\t{100.0 * 2 / 3!r}"
        for name in ("r@2", "medr", "meanr", "mir", "map"):
            assert main([*args, "--metrics", f"r@1,{name}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{name} is undefined for query 'c'" in captured.err
            assert "may be truncated" in captured.err


class TestVectorizerBackends:
    def embeddings_file(self, tmp_path):
        words = [w for pool in ITEM_WORDS.values() for w in pool]
        rng = np.random.default_rng(9)
        lines = [f"{len(words)} 4"]
        for word in words:
            values = " ".join(repr(float(v)) for v in rng.normal(size=4))
            lines.append(f"{word} {values}")
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_word2vec_pipeline_and_layer_widths(self, tmp_path, capsys):
        from textovision import modelio

        paths = write_corpus(tmp_path)
        model_path = tmp_path / "m.bin"
        args = train_args(paths, str(model_path),
                          ["--vectorizer", "word2vec",
                           "--embeddings", self.embeddings_file(tmp_path),
                           "--layers", "5"])
        assert main(args) == 0
        model = modelio.load_model(str(model_path))
        assert model.vectorizer.kind == "word2vec"
        # embedding dim 4 in, hidden 5, feature dim 4 out
        assert [w.shape for w, _ in model.params] == [(5, 4), (4, 5)]
        out = tmp_path / "enc.feat"
        assert main(["encode", "--model", str(model_path),
                     "--sentences", paths["val_sentences"], "--out", str(out)]) == 0
        assert len(formats.read_features(str(out))) == 3

    def test_hashing_pipeline(self, tmp_path, capsys):
        from textovision import modelio

        paths = write_corpus(tmp_path)
        model_path = tmp_path / "m.bin"
        assert main(train_args(paths, str(model_path), ["--vectorizer", "hashing"])) == 0
        model = modelio.load_model(str(model_path))
        assert model.vectorizer.kind == "hashing"
        out = tmp_path / "enc.feat"
        assert main(["encode", "--model", str(model_path),
                     "--sentences", paths["val_sentences"], "--out", str(out)]) == 0
        rows = formats.read_features(str(out))
        assert len(rows) == 3 and rows.dim == 4


class TestThreadCap:
    def test_env_var_propagates_to_blas_knobs(self, monkeypatch):
        from textovision.cli import _apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_explicit_settings_win(self, monkeypatch):
        from textovision.cli import _apply_thread_cap

        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "textovision", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter with this checkout's package on
    the path; its last line of standard output."""
    import os
    import subprocess
    import sys

    import textovision

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(textovision.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestTrainMemory:
    # a child's peak RSS from its own wait4: a process that posix_spawn or
    # vfork starts reports at least its parent's peak, so the measured
    # command is forked from this small interpreter, not from the tests
    PEAK_RSS_KB = (
        "import os, sys\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    try:\n"
        "        os.execv(sys.executable, [sys.executable, '-m', 'textovision', *sys.argv[1:]])\n"
        "    finally:\n"
        "        os._exit(127)\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )

    def test_train_never_holds_the_dense_input(self, tmp_path):
        # 3200 sentences over a 10 000-word vocabulary: 256 MB as a dense matrix
        words = [f"w{i}" for i in range(10_000)]
        sentences = [Sentence(f"i{k % 10}#{k}", " ".join(words[(4 * k + j) % len(words)]
                                                         for j in range(4)))
                     for k in range(3200)]
        write_sentences(str(tmp_path / "train.tsv"), sentences)
        write_sentences(str(tmp_path / "val.tsv"), sentences[:2])
        formats.write_features(str(tmp_path / "items.feat"),
                               table({f"i{k}": [1.0 + k, 0.5] for k in range(10)}))
        paths = {"train_sentences": str(tmp_path / "train.tsv"),
                 "val_sentences": str(tmp_path / "val.tsv"),
                 "features": str(tmp_path / "items.feat")}
        args = train_args(paths, str(tmp_path / "m.bin"), ["--layers", "2", "--max-epochs", "1"])
        code, peak_kb = run_fresh(self.PEAK_RSS_KB, *args).split()
        assert code == "0"
        assert int(peak_kb) < 200 * 1024


class TestImportGraph:
    """``evaluate`` and ``build-vocab`` do no array math and never load numpy."""

    MAIN_THEN_REPORT_NUMPY = (
        "import sys\n"
        "from textovision.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )

    def test_evaluate_runs_without_numpy(self, tmp_path):
        rank_path, gt_path = TestEvaluate().write_fixture(tmp_path)
        assert run_fresh(self.MAIN_THEN_REPORT_NUMPY, "evaluate", "--rankings", rank_path,
                         "--ground-truth", gt_path, "--out", str(tmp_path / "r.tsv")) == "False"

    def test_build_vocab_runs_without_numpy(self, tmp_path):
        sentences = tmp_path / "s.tsv"
        sentences.write_text("a#0\ta red car\nb#0\tthe blue sky\n", encoding="utf-8")
        for kind in ("bow", "hashing"):
            assert run_fresh(self.MAIN_THEN_REPORT_NUMPY, "build-vocab", "--sentences",
                             str(sentences), "--vectorizer", kind,
                             "--out", str(tmp_path / "vocab.txt")) == "False"

    def test_ranking_still_loads_numpy(self):
        code = (
            "import numpy as np\n"
            "from textovision.retrieval import Features, Ranking, rank_all\n"
            "items = Features(['a', 'b'], np.eye(2))\n"
            "[ranking] = rank_all(Features(['q'], np.array([[0.0, 2.0]])), items)\n"
            "assert type(ranking) is Ranking, ranking\n"
            "print(list(ranking.item_ids))\n"
        )
        assert run_fresh(code) == "['b', 'a']"


class TestUsageSurface:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build-vocab" in capsys.readouterr().out

    def test_bad_vectorizer_choice(self, tmp_path, capsys):
        assert main(["build-vocab", "--sentences", "x", "--vectorizer", "tfidf",
                     "--out", "y"]) == 1
