import os
import re
import struct
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synthdata import FullDiskFile, make_corpus, write_sentences

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


def prefix_pairs(paths):
    """A pairs file's lines pairing each sentence of the corpus with the
    item its id names."""
    return [f"{s.id}\t{s.id.rpartition('#')[0]}\n"
            for key in ("train_sentences", "val_sentences")
            for s in formats.read_sentences(paths[key])]


def write_embeddings(dirpath):
    """A word2vec file with a random 4-d vector for every word of ``ITEM_WORDS``."""
    words = [w for pool in ITEM_WORDS.values() for w in pool]
    rng = np.random.default_rng(9)
    lines = [f"{len(words)} 4"]
    for word in words:
        values = " ".join(repr(float(v)) for v in rng.normal(size=4))
        lines.append(f"{word} {values}")
    path = dirpath / "emb.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


#: what each kind of vectorizer calls a known term in its messages
TERM_NOUNS = {"bow": "term in the vocabulary", "hashing": "term in the trigram index",
              "word2vec": "token in the embedding table"}
#: 64 two-letter words; each one's first hashing term '#xy' is known
TWO_LETTER_WORDS = [a + b for a in "abcdefgh" for b in "abcdefgh"]


def small_vectorizer(kind, rng):
    """A hand-built ``kind`` vectorizer that knows ``TWO_LETTER_WORDS``."""
    from textovision import textvec

    if kind == "word2vec":
        return textvec.WordEmbeddingTable(Features(TWO_LETTER_WORDS, rng.normal(size=(64, 16))))
    if kind == "hashing":
        return textvec.TermIndex("hashing", ["#" + w for w in TWO_LETTER_WORDS])
    return textvec.TermIndex("bow", TWO_LETTER_WORDS)


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
        pairs_path.write_text("".join(prefix_pairs(paths)), encoding="utf-8")
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

    BAD_FLAGS = [
        ("--dropout", "1.0", "dropout rate must lie in [0, 1)"),
        ("--lr", "0", "learning rate must be finite and > 0"),
        ("--lr", "nan", "learning rate must be finite and > 0"),
        ("--gamma", "1", "gamma must lie in (0, 1)"),
        ("--epsilon", "0", "epsilon must be finite and > 0"),
        ("--epsilon", "nan", "epsilon must be finite and > 0"),
        ("--epsilon", "inf", "epsilon must be finite and > 0"),
        ("--batch-size", "0", "batch size, max epochs and patience must be >= 1"),
        ("--max-epochs", "0", "batch size, max epochs and patience must be >= 1"),
        ("--patience", "0", "batch size, max epochs and patience must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--layers", "0", "hidden layer sizes must be >= 1"),
        ("--layers", "6,x", "--layers expects comma-separated integers, got 'x'"),
    ]

    @pytest.mark.parametrize("flag, value, rule", BAD_FLAGS,
                             ids=[f"{flag}={value}" for flag, value, _ in BAD_FLAGS])
    def test_bad_training_flag_is_usage_error_naming_the_rule(self, tmp_path, capsys, flag,
                                                              value, rule):
        paths = write_corpus(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(train_args(paths, str(tmp_path / "m.bin"), [flag, value])) == 1
        assert capsys.readouterr().err == f"textovision: error: {rule}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag, value, rule", BAD_FLAGS,
                             ids=[f"{flag}={value}" for flag, value, _ in BAD_FLAGS])
    def test_bad_flag_is_reported_before_any_input_is_read(self, tmp_path, capsys, flag,
                                                           value, rule):
        # no input file exists: reading any of them would be a data error (exit 2)
        missing = str(tmp_path / "missing")
        paths = dict.fromkeys(["train_sentences", "val_sentences", "features"], missing)
        assert main(train_args(paths, str(tmp_path / "m.bin"), [flag, value])) == 1
        assert capsys.readouterr().err == f"textovision: error: {rule}\n"
        assert not any(tmp_path.iterdir())

    def test_flag_defaults_are_the_train_config_defaults(self):
        from textovision import cli, neuralnet

        args = cli.build_parser().parse_args(
            ["train", "--sentences", "s", "--features", "f", "--val-sentences", "v",
             "--val-features", "g", "--out", "m"])
        assert cli._train_config(args) == neuralnet.TrainConfig()

    def test_given_flags_reach_the_train_config(self):
        # an empty --layers is given: it means no hidden layer, not the default
        from textovision import cli, neuralnet

        args = cli.build_parser().parse_args(
            ["train", "--sentences", "s", "--features", "f", "--val-sentences", "v",
             "--val-features", "g", "--out", "m", "--layers", "", "--lr", "0.01",
             "--batch-size", "8", "--seed", "3"])
        assert cli._train_config(args) == neuralnet.TrainConfig(
            hidden_sizes=(), learning_rate=0.01, batch_size=8, seed=3)

    def test_validation_feature_dim_mismatch_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        narrow = tmp_path / "narrow.feat"
        formats.write_features(str(narrow), table({item: row[:3]
                                                   for item, row in ITEM_TARGETS.items()}))
        args = train_args(paths, str(tmp_path / "m.bin"))
        args[args.index("--val-features") + 1] = str(narrow)
        assert main(args) == 2
        assert "validation feature dim 3 does not match training dim 4" in capsys.readouterr().err

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

    def test_sentence_id_without_an_item_names_its_file(self, tmp_path, capsys):
        # without --pairs the item comes from the '<item_id>#<n>' id
        paths = write_corpus(tmp_path)
        train = Path(paths["train_sentences"])
        train.write_text("cloud\tsoft white\n" + train.read_text(encoding="utf-8"),
                         encoding="utf-8")
        files = sorted(tmp_path.iterdir())
        assert main(train_args(paths, str(tmp_path / "m.bin"))) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: {train}: id 'cloud' does not follow '<item_id>#<n>'\n")
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("key", ["train_sentences", "val_sentences"])
    def test_empty_sentence_file_names_itself(self, tmp_path, capsys, key):
        paths = write_corpus(tmp_path)
        Path(paths[key]).write_text("\n", encoding="utf-8")  # a blank line holds no sentence
        files = sorted(tmp_path.iterdir())
        assert main(train_args(paths, str(tmp_path / "m.bin"))) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: {paths[key]}: no sentences found\n")
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_validation_sentence_without_a_known_term_is_data_error(self, tmp_path, capsys,
                                                                    kind):
        paths = write_corpus(tmp_path)
        with open(paths["val_sentences"], "a", encoding="utf-8") as fh:
            fh.write("brick#7\tzzz qqq\n")
        extra = ["--vectorizer", kind]
        if kind == "word2vec":
            extra += ["--embeddings", write_embeddings(tmp_path)]
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), extra)) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: sentence 'brick#7' has no {TERM_NOUNS[kind]}\n")
        assert not model.exists()

    def test_missing_pairs_entry_is_reported_before_a_sentence_without_a_known_term(
            self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        val = Path(paths["val_sentences"])
        val.write_text("brick#7\tzzz qqq\n" + val.read_text(encoding="utf-8"), encoding="utf-8")
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("".join(line for line in prefix_pairs(paths)
                                      if not line.startswith("cloud#3\t")), encoding="utf-8")
        assert main(train_args(paths, str(tmp_path / "m.bin"), ["--pairs", str(pairs_path)])) == 2
        assert capsys.readouterr().err == (
            "textovision: error: sentence 'cloud#3' is missing from the pairs file\n")

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

    def test_diverging_loss_on_two_optimizer_threads_is_the_same_one_line(
            self, tmp_path, capsys, monkeypatch):
        # 6000 hidden units: the first layer's 72 000 weights are 3 RMSprop
        # slices, so a worker thread updates some of them
        from textovision import neuralnet

        assert 6000 * len(ITEM_WORDS["apple"]) * 3 > 2 * neuralnet.RMSPROP_SLICE
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        paths = write_corpus(tmp_path)
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--layers", "6000", "--lr", "1e300",
                                                   "--batch-size", "1"])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("textovision: error: epoch 1: non-finite loss (train ")
        assert not model.exists()

    def test_overflowing_word2vec_mean_is_one_data_error_naming_the_sentence(
            self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        train = Path(paths["train_sentences"])
        train.write_text("apple#9\tred\napple#8\tred car\n" + train.read_text(encoding="utf-8"),
                         encoding="utf-8")
        words = {w: [0.5] * 4 for pool in ITEM_WORDS.values() for w in pool}
        embeddings = tmp_path / "emb.txt"
        formats.write_features(str(embeddings), table({**words, "car": [1e308] * 4,
                                                       "red": [1e308] * 4}))
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--vectorizer", "word2vec",
                                                   "--embeddings", str(embeddings)])) == 2
        # the error line alone: no numpy overflow warning, no divergence line
        assert capsys.readouterr() == ("", "textovision: error: sentence 'apple#8': its mean "
                                           "word vector overflows (values too large)\n")
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
        lines = prefix_pairs(paths)
        lines.insert(3, "apple#1\tcloud\n")  # line 4 pairs apple#1 a second time
        pairs_path.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--pairs", str(pairs_path)])) == 2
        assert f"{pairs_path}:4: duplicate id 'apple#1'" in capsys.readouterr().err
        assert not model.exists()

    def test_pairs_file_id_with_whitespace_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        pairs_path = tmp_path / "pairs.tsv"
        lines = prefix_pairs(paths)
        lines[2] = lines[2].replace("\n", " \n")  # line 3's item id ends in a space
        pairs_path.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--pairs", str(pairs_path)])) == 2
        bad = lines[2].split("\t")[1].rstrip("\n")
        assert f"{pairs_path}:3: id {bad!r} contains whitespace" in capsys.readouterr().err
        assert not model.exists()

    def test_one_feature_file_for_both_sets_is_parsed_once(self, tmp_path, capsys,
                                                           monkeypatch):
        paths = write_corpus(tmp_path)
        copy = tmp_path / "copy.feat"
        copy.write_bytes((tmp_path / "items.feat").read_bytes())
        reads = []
        real = formats.read_features
        monkeypatch.setattr(formats, "read_features", lambda path: reads.append(path) or real(path))
        assert main(train_args(paths, str(tmp_path / "once.bin"))) == 0
        assert reads == [paths["features"]]
        args = train_args(paths, str(tmp_path / "twice.bin"))
        args[args.index("--val-features") + 1] = str(copy)
        assert main(args) == 0
        assert reads[1:] == [paths["features"], str(copy)]
        for name in ("{}.bin", "{}.bin.history.tsv"):
            assert ((tmp_path / name.format("once")).read_bytes()
                    == (tmp_path / name.format("twice")).read_bytes())

    def test_missing_validation_features_keep_their_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        args = train_args(paths, str(tmp_path / "m.bin"))
        missing = str(tmp_path / "missing.feat")
        args[args.index("--val-features") + 1] = missing
        assert main(args) == 2
        assert missing in capsys.readouterr().err

    def test_nonexistent_file_is_data_error(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        args = train_args(paths, str(tmp_path / "m.bin"))
        args[args.index("--sentences") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 2

    @pytest.mark.parametrize("module, name", [("neuralnet", "init_network"),
                                              ("modelio", "_write_vectorizer")])
    def test_out_of_memory_is_one_line_and_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  module, name):
        # injected where `--layers 1000000000000` fails, or halfway through the model
        # write; nothing is allocated for real
        import importlib

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(importlib.import_module(f"textovision.{module}"), name,
                            out_of_memory)
        paths = write_corpus(tmp_path)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert main(train_args(paths, str(tmp_path / "m.bin"))) == 2
        assert capsys.readouterr().err == (
            "textovision: error: out of memory: Unable to allocate 7.28 TiB for an array\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


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

    # the per-row oracle, in a child whose BLAS runs at one thread
    PER_ROW_ORACLE = (
        "import sys\n"
        "from oracles import encode_per_row, vectorize\n"
        "from textovision import formats, modelio\n"
        "model = modelio.load_model(sys.argv[1])\n"
        "rows = [vectorize(model.vectorizer, s) for s in formats.read_sentences(sys.argv[2])]\n"
        "sys.stdout.buffer.write(encode_per_row(model.params, rows).tobytes())\n"
    )

    @settings(max_examples=6, deadline=None)
    @given(widths=st.lists(st.integers(1, 1200), min_size=2, max_size=3),
           seed=st.integers(0, 2**16))
    # two BLAS threads split 513 outputs unevenly; a 1-row block (numpy's dot
    # path) changes a dense row's bits, seldom a sparse one's
    @example(widths=[1000, 513], seed=0)
    @example(widths=[40, 1000, 513], seed=0)
    def test_bytes_do_not_depend_on_the_thread_cap(self, tmp_path_factory, widths, seed):
        # and at any width they are those of one forward pass per row at one
        # BLAS thread
        import subprocess
        import sys

        dirpath = tmp_path_factory.mktemp("cap")
        model, sentences = save_bow_model(dirpath, widths, seed)
        env = {k: v for k, v in checkout_env().items() if k not in BLAS_THREAD_VARS}
        oracle_env = dict(env, OPENBLAS_NUM_THREADS="1",
                          PYTHONPATH=os.pathsep.join([env["PYTHONPATH"],
                                                      os.path.dirname(__file__)]))
        encoded = [subprocess.run([sys.executable, "-c", self.PER_ROW_ORACLE, model, sentences],
                                  check=True, capture_output=True, env=oracle_env).stdout]
        for threads in ("1", "2"):
            out = dirpath / f"e{threads}.feat"
            subprocess.run([sys.executable, "-m", "textovision", "encode", "--model", model,
                            "--sentences", sentences, "--out", str(out)], check=True,
                           capture_output=True, env=dict(env, TEXTOVISION_THREADS=threads))
            encoded.append(formats.read_features(str(out)).matrix.tobytes())
        assert encoded[1] == encoded[0]
        assert encoded[2] == encoded[0]

    def test_reencode_identical(self, tmp_path, capsys, trained):
        paths, model = trained
        a = tmp_path / "a.feat"
        b = tmp_path / "b.feat"
        for out in (a, b):
            assert main(["encode", "--model", model, "--sentences", paths["val_sentences"],
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_word2vec_mean_is_one_data_error_naming_the_sentence(
            self, tmp_path, capsys):
        from textovision import modelio, textvec

        # the model itself is sound: its one weight times a finite mean stays finite
        vectorizer = textvec.WordEmbeddingTable(table({"car": [1e308], "red": [1e308]}))
        model = tmp_path / "m.bin"
        modelio.save_model(str(model), modelio.TrainedModel(
            vectorizer, [(np.full((1, 1), 0.5), np.zeros(1))]))
        sentences, out = tmp_path / "s.tsv", tmp_path / "o.feat"
        sentences.write_text("s#0\tred\ns#1\tred car\n", encoding="utf-8")
        assert main(["encode", "--model", str(model), "--sentences", str(sentences),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "textovision: error: sentence 's#1': its mean "
                                           "word vector overflows (values too large)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "s.tsv"]

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

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_a_skipped_sentence_mid_chunk_leaves_the_per_row_bytes(self, tmp_path, capsys,
                                                                    kind):
        # 257 sentences, the middle one all out of vocabulary: the other 256
        # fill one chunk. Every width is a multiple of 8, so at any BLAS
        # thread count the bytes are those of one forward pass per row.
        from oracles import encode_per_row, random_net, vectorize

        from textovision import modelio

        rng = np.random.default_rng(17)
        vectorizer = small_vectorizer(kind, rng)
        params = random_net([vectorizer.dim, 24, 8], rng)
        model = tmp_path / "m.bin"
        modelio.save_model(str(model), modelio.TrainedModel(vectorizer, params))
        sentences = [Sentence(f"s#{k}", " ".join(rng.choice(TWO_LETTER_WORDS,
                                                             size=rng.integers(1, 9))))
                     for k in range(257)]
        sentences[128] = Sentence("s#128", "zzz qqq")
        write_sentences(str(tmp_path / "s.tsv"), sentences)
        out = tmp_path / "e.feat"
        assert main(["encode", "--model", str(model), "--sentences", str(tmp_path / "s.tsv"),
                     "--out", str(out)]) == 0
        kept = sentences[:128] + sentences[129:]
        expected = encode_per_row(params, [vectorize(vectorizer, s) for s in kept])
        encoded = formats.read_features(str(out))
        assert list(encoded.ids) == [s.id for s in kept]
        assert encoded.matrix.tobytes() == expected.tobytes()
        zero = 256 - np.count_nonzero(expected.any(axis=1))
        assert capsys.readouterr().err == (
            f"textovision: skipping 's#128': sentence 's#128' has no {TERM_NOUNS[kind]}\n"
            f"encoded 256 sentences, skipped 1, {zero} all-zero predictions\n")

    def test_the_output_is_held_once(self, tmp_path, capsys):
        # 4000 predictions of 512-d and one sentence out of vocabulary: the
        # chunks joined, or all rows encoded and then the kept ones copied
        # out, would hold the output twice
        import tracemalloc

        from oracles import random_net

        from textovision import modelio, textvec

        rng = np.random.default_rng(11)
        words = [f"w{i:02}" for i in range(50)]
        model = tmp_path / "m.bin"
        modelio.save_model(str(model), modelio.TrainedModel(textvec.TermIndex("bow", words),
                                                            random_net([50, 16, 512], rng)))
        sentences = [Sentence(f"s#{k}", " ".join(rng.choice(words, size=12)))
                     for k in range(4000)]
        sentences.insert(2000, Sentence("oov#0", "zzz qqq"))
        write_sentences(str(tmp_path / "s.tsv"), sentences)
        tracemalloc.start()
        try:
            code = main(["encode", "--model", str(model), "--sentences", str(tmp_path / "s.tsv"),
                         "--out", str(tmp_path / "e.feat")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(formats.read_features(str(tmp_path / "e.feat"))) == 4000
        output = 4000 * 512 * 8
        assert peak < 1.5 * output, f"peak {peak / output:.2f} times the output"

    def save_small_model(self, dirpath, kind):
        from oracles import random_net

        from textovision import modelio

        rng = np.random.default_rng(3)
        vectorizer = small_vectorizer(kind, rng)
        model = dirpath / "m.bin"
        modelio.save_model(str(model), modelio.TrainedModel(
            vectorizer, random_net([vectorizer.dim, 8, 4], rng)))
        return str(model)

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_each_sentence_is_tokenized_once(self, tmp_path, capsys, monkeypatch, kind):
        from textovision import textvec

        texts = []

        def counted(terms):
            def recorded(text):
                texts.append(text)
                return terms(text)
            return recorded

        # a term index takes its term finder from TERM_KINDS when the model loads
        if kind == "word2vec":
            monkeypatch.setattr(textvec, "tokenize", counted(textvec.tokenize))
        else:
            noun, terms, length = textvec.TERM_KINDS[kind]
            monkeypatch.setitem(textvec.TERM_KINDS, kind, (noun, counted(terms), length))
        model = self.save_small_model(tmp_path, kind)
        sentences = [Sentence("s#0", "ab cd ab"), Sentence("s#1", "zzz qqq"),
                     Sentence("s#2", "hh")]
        write_sentences(str(tmp_path / "s.tsv"), sentences)
        assert main(["encode", "--model", model, "--sentences", str(tmp_path / "s.tsv"),
                     "--out", str(tmp_path / "e.feat")]) == 0
        assert "skipped 1," in capsys.readouterr().err
        assert sorted(texts) == sorted(s.text for s in sentences)

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_no_sentence_with_a_known_term_is_data_error(self, tmp_path, capsys, kind):
        model = self.save_small_model(tmp_path, kind)
        (tmp_path / "s.tsv").write_text("a#0\tzzz qqq\nb#0\t\nc#0\t!!\n", encoding="utf-8")
        out = tmp_path / "e.feat"
        assert main(["encode", "--model", model, "--sentences", str(tmp_path / "s.tsv"),
                     "--out", str(out)]) == 2
        skips = "".join(
            f"textovision: skipping '{sid}': sentence '{sid}' has no {TERM_NOUNS[kind]}\n"
            for sid in ("a#0", "b#0", "c#0"))
        assert capsys.readouterr() == (
            "", skips + "textovision: error: no sentence could be encoded\n")
        assert not out.exists()

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
    the directory must hold only its inputs afterwards, or the output and its twin."""
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
    written = ["m.bin", "o.feat", "o.feat.twin", "s.tsv"]
    assert left == (written if code == 0 else ["m.bin", "s.tsv"]), left
    out.unlink(missing_ok=True)
    Path(f"{out}.twin").unlink(missing_ok=True)
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

    def test_overflow_in_worker_blocks_is_the_same_data_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # a 3-word first layer of 1e308 weights and biases, cut into 2 blocks
        # that run on 2 threads: the bias add overflows in both
        from textovision import neuralnet

        rows = 2 * (neuralnet.ENCODE_BLOCK_BYTES // (3 * 8) // 8 * 8)
        assert len(neuralnet._blocks(np.empty((rows, 3)))) == 2
        model = HandModel()
        model.field("<4sBB", b"W2VV", 1, 0)
        model.field("<Q", 3)
        model.words(["a", "cat", "dog"])
        model.field("<Q", 1)
        model.field("<QQ", rows, 3)
        model.payload(np.full(4 * rows, 1e308).tobytes())
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        code, err = encode_model_bytes(tmp_path, model.data)
        assert code == 2
        assert err == (f"textovision: error: {tmp_path / 'm.bin'}: "
                       "the model predicts non-finite features\n")
        assert "RuntimeWarning" not in capsys.readouterr().err


def mutate_sentences(data, kind, rng):
    """``data``, the bytes of a sentence file, with one seeded ``kind`` of
    damage at a random line or byte."""
    at = int(rng.integers(len(data)))
    lines = data.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    sid, _, text = lines[k].partition(b"\t")
    if kind in ("tab", "nul", "non-utf-8"):
        return data[:at] + {"tab": b"\t", "nul": b"\0", "non-utf-8": b"\xff\xfe"}[kind] + data[at:]
    if kind == "truncation":
        return data[:at]
    lines[k] = {"empty text": sid + b"\t\n", "all-oov text": sid + b"\tzzz qqq\n",
                "duplicate id": lines[k] + sid + b"\t" + text,
                "whitespace in id": sid[:1] + b" " + sid[1:] + b"\t" + text}[kind]
    return b"".join(lines)


SENTENCE_MUTATIONS = ("tab", "nul", "non-utf-8", "empty text", "all-oov text", "duplicate id",
                      "whitespace in id", "truncation")


class TestSentenceFileFuzz:
    def test_mutated_sentence_files_exit_cleanly(self, tmp_path, capsys, trained):
        # each damaged file goes to train as its training sentences and to
        # encode: every run returns an exit code, prints no traceback and
        # leaves no temporary file
        paths, model = trained
        clean = Path(paths["train_sentences"]).read_bytes()
        damaged = tmp_path / "damaged.tsv"
        rng = np.random.default_rng(2024)
        for case in range(6 * len(SENTENCE_MUTATIONS)):
            kind = SENTENCE_MUTATIONS[case % len(SENTENCE_MUTATIONS)]
            damaged.write_bytes(mutate_sentences(clean, kind, rng))
            runs = [train_args(dict(paths, train_sentences=str(damaged)),
                               str(tmp_path / "m.bin"), ["--max-epochs", "2"]),
                    ["encode", "--model", model, "--sentences", str(damaged),
                     "--out", str(tmp_path / "e.feat")]]
            for argv in runs:
                code = main(argv)
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (kind, argv[0], err)
                assert "Traceback" not in out + err, (kind, argv[0], err)
                assert not list(tmp_path.glob("*.tmp")), (kind, argv[0])


def mutate_text(data, kind, rng):
    """``data``, the bytes of a line-oriented text file, with one seeded
    ``kind`` of damage at a random line, field or byte."""
    at = int(rng.integers(len(data)))
    lines = data.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    if kind in ("tab", "space", "newline", "nul", "non-utf-8"):
        insert = {"tab": b"\t", "space": b" ", "newline": b"\n", "nul": b"\0",
                  "non-utf-8": b"\xff\xfe"}[kind]
        return data[:at] + insert + data[at:]
    if kind == "truncation":
        return data[:at]
    if kind == "field":
        # one field, keeping the separators around it, becomes a bad or odd value
        parts = re.split(rb"(\s+)", lines[k])
        fields = [i for i in range(0, len(parts), 2) if parts[i]]
        value = [b"nan", b"-inf", b"1e999", b"x", b"", b"-0", b"#"][int(rng.integers(7))]
        parts[fields[int(rng.integers(len(fields)))]] = value
        lines[k] = b"".join(parts)
    elif kind == "swapped lines":
        j = int(rng.integers(len(lines)))
        lines[k], lines[j] = lines[j], lines[k]
    else:
        lines[k] = {"dropped line": b"", "duplicate line": lines[k] * 2,
                    "extra field": lines[k].rstrip(b"\n") + b"\t1 2\n"}[kind]
    return b"".join(lines)


TEXT_MUTATIONS = ("tab", "space", "newline", "nul", "non-utf-8", "truncation", "field",
                  "swapped lines", "dropped line", "duplicate line", "extra field")


class TestTextFileFuzz:
    """Each damaged file goes to the commands that read it: every run
    returns an exit code, prints no traceback and leaves no temporary file."""

    def fuzz(self, tmp_path, capsys, clean, runs, rounds=5, twin=None):
        """With ``twin``, the bytes of the clean file's twin, each damaged
        file is sent again with them beside it as a stale twin: the outcomes
        must be the same."""
        damaged, data = tmp_path / "damaged", clean.read_bytes()
        rng = np.random.default_rng(2025)

        def outcomes(kind):
            results = []
            for argv in runs(str(damaged)):
                code = main(argv)
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (clean.name, kind, argv[0], err)
                assert "Traceback" not in out + err, (clean.name, kind, argv[0], err)
                assert not list(tmp_path.glob("*.tmp")), (clean.name, kind, argv[0])
                results.append((code, out, err))
            return results

        for case in range(rounds * len(TEXT_MUTATIONS)):
            kind = TEXT_MUTATIONS[case % len(TEXT_MUTATIONS)]
            damaged.write_bytes(mutate_text(data, kind, rng))
            without = outcomes(kind)
            if twin is not None:
                Path(f"{damaged}.twin").write_bytes(twin)
                assert outcomes(kind) == without, (clean.name, kind)
                Path(f"{damaged}.twin").unlink()

    def test_mutated_feature_ranking_and_truth_files_exit_cleanly(self, tmp_path, capsys):
        # frame features go to pool and, as queries, to rank --top; a
        # ranking and its ground truth to evaluate
        frames, ranking, truth = (tmp_path / name
                                  for name in ("frames.feat", "ranking.tsv", "truth.tsv"))
        ids = [f"v{v}#{n}" for v in range(3) for n in range(2)]
        features = Features(ids, np.random.default_rng(8).normal(size=(len(ids), 3)))
        formats.write_features(str(frames), features)
        assert main(["rank", "--queries", str(frames), "--items", str(frames),
                     "--out", str(ranking)]) == 0
        truth.write_text("".join(f"{i}\t{i}\n" for i in ids), encoding="utf-8")

        def evaluate(rankings, ground_truth):
            return [["evaluate", "--rankings", rankings, "--ground-truth", ground_truth,
                     "--out", str(tmp_path / "report.tsv")]]

        self.fuzz(tmp_path, capsys, frames, lambda damaged: [
            ["pool", "--features", damaged, "--out", str(tmp_path / "pooled.feat")],
            ["rank", "--queries", damaged, "--items", str(frames), "--top", "2",
             "--out", str(tmp_path / "top.tsv")]], twin=Path(f"{frames}.twin").read_bytes())
        self.fuzz(tmp_path, capsys, ranking, lambda damaged: evaluate(damaged, str(truth)))
        self.fuzz(tmp_path, capsys, truth, lambda damaged: evaluate(str(ranking), damaged))

    def test_mutated_pairs_files_exit_cleanly(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(prefix_pairs(paths)), encoding="utf-8")
        self.fuzz(tmp_path, capsys, pairs, lambda damaged: [train_args(
            paths, str(tmp_path / "m.bin"), ["--pairs", damaged, "--max-epochs", "2"])], rounds=2)


class TestTextNotUtf8:
    @pytest.mark.parametrize("kind", ["features", "embeddings", "sentences", "pairs",
                                      "rankings", "ground truth"])
    def test_byte_that_is_not_utf8_names_the_file(self, tmp_path, capsys, kind):
        paths = write_corpus(tmp_path)
        model, vocab = str(tmp_path / "m.bin"), str(tmp_path / "vocab.txt")
        pairs, ranking, truth = (tmp_path / name for name in ("pairs.tsv", "rank.tsv", "gt.tsv"))
        pairs.write_text("".join(prefix_pairs(paths)), encoding="utf-8")
        assert main(["rank", "--queries", paths["features"], "--items", paths["features"],
                     "--out", str(ranking)]) == 0
        truth.write_text("".join(f"{item}\t{item}\n" for item in ITEM_WORDS), encoding="utf-8")
        embeddings = write_embeddings(tmp_path)
        evaluate = ["evaluate", "--rankings", str(ranking), "--ground-truth", str(truth)]
        bad, argv = {
            "features": (paths["features"], train_args(paths, model)),
            "embeddings": (embeddings, train_args(
                paths, model, ["--vectorizer", "word2vec", "--embeddings", embeddings])),
            "sentences": (paths["train_sentences"],
                          ["build-vocab", "--sentences", paths["train_sentences"],
                           "--vectorizer", "bow", "--out", vocab]),
            "pairs": (str(pairs), train_args(paths, model, ["--pairs", str(pairs)])),
            "rankings": (str(ranking), evaluate),
            "ground truth": (str(truth), evaluate),
        }[kind]
        lines = Path(bad).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        Path(bad).write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: {bad}: not UTF-8 text (invalid start byte)\n")


class TestModelLoad:
    @pytest.mark.parametrize("kind, words, message", [
        (0, ["a", "zat", "dog"], "vocabulary entries must be strictly ascending: 'zat' before 'dog'"),
        (0, ["a", "cat", "cat"], "vocabulary entries must be strictly ascending: 'cat' before 'cat'"),
        (0, [], "vocabulary is empty"),
        (1, ["#ca", "at"], "term 'at' is not 3 characters long"),
    ])
    def test_bad_term_list_names_the_model_path(self, tmp_path, kind, words, message):
        model = HandModel()
        model.field("<4sBB", b"W2VV", 1, kind)
        model.field("<Q", len(words))
        model.words(words)
        model.layers(np.random.default_rng(0), [(2, max(len(words), 1))])
        code, err = encode_model_bytes(tmp_path, model.data)
        assert code == 2
        assert err == f"textovision: error: {tmp_path / 'm.bin'}: {message}\n"

    @pytest.mark.parametrize("kind", [0, 2])
    def test_string_that_is_not_utf8_names_the_model_path(self, tmp_path, kind):
        # b"\xc3" opens a two-byte sequence that the string's end cuts off
        model = HandModel()
        model.field("<4sBB", b"W2VV", 1, kind)
        if kind == 2:
            model.field("<QQ", 2, 1)  # dim 2, one word
        else:
            model.field("<Q", 1)  # one term
        model.field("<Q", 1)
        model.payload(b"\xc3")
        code, err = encode_model_bytes(tmp_path, model.data)
        assert code == 2
        assert err == (f"textovision: error: {tmp_path / 'm.bin'}: not UTF-8 text "
                       "(unexpected end of data)\n")

    def test_model_from_a_pipe_is_data_error(self, tmp_path, capsys):
        import threading

        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)

        def feed():
            # the reader may close the pipe before the whole model is in it
            try:
                with open(fifo, "wb", buffering=0) as fh:
                    fh.write(FUZZ_MODELS["bow"].data)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        sentences = tmp_path / "s.tsv"
        sentences.write_text("x#0\tthe cat\n", encoding="utf-8")
        code = main(["encode", "--model", str(fifo), "--sentences", str(sentences),
                     "--out", str(tmp_path / "o.feat")])
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == 2
        assert capsys.readouterr().err == (f"textovision: error: {fifo}: not a regular file; "
                                           "a model must be a regular file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.fifo", "s.tsv"]

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
        params = neuralnet.init_network([vectorizer.dim, 4, 2], 0)
        path = tmp_path / "m.bin"
        modelio.save_model(str(path), modelio.TrainedModel(vectorizer, params))
        assert path.read_bytes().find(params[0][0].tobytes()) % 8 != 0

        loaded = modelio.load_model(str(path))
        arrays = [a for layer in loaded.params for a in layer]
        if kind == "word2vec":
            arrays.append(loaded.vectorizer.table.matrix)
        assert all(a.flags.aligned for a in arrays)

    def test_loading_holds_the_weights_once(self, tmp_path):
        import tracemalloc

        from textovision import modelio, neuralnet, textvec

        vectorizer = textvec.TermIndex("bow", [f"w{i:03}" for i in range(500)])
        params = neuralnet.init_network([500, 1000, 64], 0)
        path = str(tmp_path / "m.bin")
        modelio.save_model(path, modelio.TrainedModel(vectorizer, params))
        weights = sum(w.nbytes + b.nbytes for w, b in params)
        tracemalloc.start()
        try:
            loaded = modelio.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of the file alongside its arrays would double the peak
        assert peak <= 1.1 * weights, f"peak {peak / 1e6:.2f} MB for {weights / 1e6:.2f} MB"
        for (w, b), (lw, lb) in zip(params, loaded.params):
            assert w.tobytes() == lw.tobytes() and b.tobytes() == lb.tobytes()
            assert not (lw.flags.writeable or lb.flags.writeable)


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

    def test_output_that_cannot_be_created_is_named(self, tmp_path, capsys):
        # not the temporary file the output is first written to
        frames = self.write_frames(tmp_path)
        out = tmp_path / "nodir" / "o.feat"
        assert main(["pool", "--features", frames, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"textovision: error: [Errno 2] No such file or directory: '{out}'\n")

    def test_overflowing_mean_is_one_data_error_naming_the_file_and_video(
            self, tmp_path, capsys):
        frames = tmp_path / "frames.feat"
        formats.write_features(str(frames), table(
            {"v0#0": [1.0, 2.0], "v1#0": [1e308, 1.5], "v1#1": [1e308, 1.5]}))
        out = tmp_path / "o.feat"
        assert main(["pool", "--features", str(frames), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"textovision: error: {frames}: video 'v1' pools "
                                           "to non-finite features (values too large)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.feat", "frames.feat.twin"]

    def test_frame_id_without_a_video_names_the_file(self, tmp_path, capsys):
        frames = tmp_path / "frames.feat"
        formats.write_features(str(frames), table({"v0#0": [1.0, 2.0], "v1": [3.0, 4.0]}))
        out = tmp_path / "o.feat"
        assert main(["pool", "--features", str(frames), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"textovision: error: {frames}: id 'v1' does not follow '<item_id>#<n>'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.feat", "frames.feat.twin"]

    def test_missing_audio_names_video(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        audio = tmp_path / "audio.feat"
        formats.write_features(str(audio), table({"v1": [9.0]}))
        assert main(["pool", "--features", frames, "--audio", str(audio),
                     "--out", str(tmp_path / "p.feat")]) == 2
        assert "v2" in capsys.readouterr().err


def assert_reference_twin(path):
    """The twin beside the feature file ``path`` is the reference twin of
    the table its text parses to."""
    twin = Path(f"{path}.twin")
    written = twin.read_bytes()
    twin.unlink()
    parsed = formats.read_features(str(path))
    oracles.write_twin(path, parsed.ids, parsed.matrix)
    assert twin.read_bytes() == written


class TestFeatureTwins:
    def test_pool_and_encode_write_a_twin(self, tmp_path, capsys, trained):
        paths, model = trained
        frames = TestPool().write_frames(tmp_path)
        pooled, encoded = tmp_path / "pooled.feat", tmp_path / "enc.feat"
        assert main(["pool", "--features", frames, "--out", str(pooled)]) == 0
        assert main(["encode", "--model", model, "--sentences", paths["val_sentences"],
                     "--out", str(encoded)]) == 0
        for path in (pooled, encoded):
            assert_reference_twin(path)

    def test_outputs_are_the_same_with_twins_deleted(self, tmp_path, capsys):
        paths = write_corpus(tmp_path)
        encoded = tmp_path / "enc.feat"

        def run(tag):
            model, ranking, top = (str(tmp_path / f"{tag}.{name}")
                                   for name in ("model.bin", "rank.tsv", "top.tsv"))
            assert main(train_args(paths, model)) == 0
            if tag == "twins":
                assert main(["encode", "--model", model, "--sentences",
                             paths["val_sentences"], "--out", str(encoded)]) == 0
            assert main(["rank", "--queries", str(encoded), "--items", paths["features"],
                         "--out", ranking]) == 0
            assert main(["rank", "--queries", paths["features"], "--items", str(encoded),
                         "--top", "2", "--out", top]) == 0
            return [Path(p).read_bytes() for p in (model, f"{model}.history.tsv", ranking, top)]

        with_twins = run("twins")
        for path in (encoded, Path(paths["features"])):
            assert_reference_twin(path)
            Path(f"{path}.twin").unlink()
        assert run("texts") == with_twins

    def test_features_from_a_pipe_stream_without_a_twin_lookup(self, tmp_path, capsys,
                                                               monkeypatch):
        import threading

        queries, items = TestRank().write_pool(tmp_path)
        expected = tmp_path / "expected.tsv"
        assert main(["rank", "--queries", queries, "--items", items,
                     "--out", str(expected)]) == 0
        fifo = tmp_path / "q.fifo"
        os.mkfifo(fifo)
        Path(f"{fifo}.twin").write_bytes(Path(f"{queries}.twin").read_bytes())
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(Path(queries).read_bytes())

        monkeypatch.setattr(formats, "open", recording_open, raising=False)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "rank.tsv"
        code = main(["rank", "--queries", str(fifo), "--items", items, "--out", str(out)])
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == 0
        assert f"{fifo}.twin" not in opened and f"{items}.twin" in opened
        assert out.read_bytes() == expected.read_bytes()

    def test_failed_twin_write_is_a_data_error_after_the_whole_text(self, tmp_path, capsys,
                                                                    monkeypatch):
        frames = TestPool().write_frames(tmp_path)
        pooled = tmp_path / "pooled.feat"
        assert main(["pool", "--features", frames, "--out", str(pooled)]) == 0
        text = pooled.read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())
        pooled.unlink()
        Path(f"{pooled}.twin").unlink()

        def full_twin_disk(file, mode="r", **kwargs):
            return (FullDiskFile if ".twin." in str(file) else open)(file, mode, **kwargs)

        monkeypatch.setattr(formats, "open", full_twin_disk, raising=False)
        assert main(["pool", "--features", frames, "--out", str(pooled)]) == 2
        assert capsys.readouterr().err == (
            "textovision: error: [Errno 28] No space left on device\n")
        assert pooled.read_bytes() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            name for name in listing if name != "pooled.feat.twin"]


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

    def test_failed_report_write_prints_nothing(self, tmp_path, capsys):
        rank_path, gt_path = self.write_fixture(tmp_path)
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                     "--out", str(tmp_path / "missing" / "report.tsv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing" in captured.err

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

    def test_ground_truth_id_with_whitespace_is_data_error(self, tmp_path, capsys):
        # a trailing space would make 'qb-rel ' a relevant item no ranking holds
        rank_path, _ = self.write_fixture(tmp_path)
        gt_path = tmp_path / "gt2.tsv"
        gt_path.write_text("qa\tqa-rel\nqb\tqb-rel \n", encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path),
                     "--metrics", "r@5"]) == 2
        assert f"{gt_path}:2: id 'qb-rel ' contains whitespace" in capsys.readouterr().err

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
    def test_word2vec_pipeline_and_layer_widths(self, tmp_path, capsys):
        from textovision import modelio

        paths = write_corpus(tmp_path)
        model_path = tmp_path / "m.bin"
        args = train_args(paths, str(model_path),
                          ["--vectorizer", "word2vec",
                           "--embeddings", write_embeddings(tmp_path),
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

    def test_word2vec_bytes_do_not_depend_on_embedding_row_order(self, tmp_path, capsys):
        # the benchmark's digests cover no word2vec run; this pins its outputs to the
        # words' vectors, whatever order the embedding file lists them in
        corpus = make_corpus()
        words = sorted(w for pool in corpus.cluster_words for w in pool)
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(len(words), 8))
        write_sentences(str(tmp_path / "train.tsv"), corpus.train_sentences)
        write_sentences(str(tmp_path / "val.tsv"), corpus.val_sentences)
        write_sentences(str(tmp_path / "test.tsv"), corpus.test_sentences)
        formats.write_features(str(tmp_path / "items.feat"),
                               table({i: corpus.targets[i] for i in corpus.item_ids}))
        paths = {"train_sentences": str(tmp_path / "train.tsv"),
                 "val_sentences": str(tmp_path / "val.tsv"),
                 "features": str(tmp_path / "items.feat")}
        outputs = []
        for name, order in [("sorted", np.arange(len(words))),
                            ("shuffled", rng.permutation(len(words)))]:
            embeddings = tmp_path / f"{name}.emb"
            formats.write_features(str(embeddings),
                                   Features([words[i] for i in order], vectors[order]))
            model = tmp_path / f"{name}.bin"
            assert main(train_args(paths, str(model),
                                   ["--vectorizer", "word2vec", "--embeddings", str(embeddings),
                                    "--layers", "16"])) == 0
            encoded = tmp_path / f"{name}.feat"
            assert main(["encode", "--model", str(model), "--sentences",
                         str(tmp_path / "test.tsv"), "--out", str(encoded)]) == 0
            outputs.append([p.read_bytes() for p in
                            (model, tmp_path / f"{name}.bin.history.tsv", encoded)])
        assert outputs[0] == outputs[1]
        assert len(formats.read_features(str(tmp_path / "sorted.feat"))) == len(
            corpus.test_sentences)

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


def env_after_thread_cap(command):
    """``os.environ`` after ``_apply_thread_cap(command)`` in a new
    interpreter, where numpy has not loaded, started with this environment."""
    import json

    return json.loads(run_fresh(
        "import json, os, sys\n"
        "from textovision.cli import _apply_thread_cap\n"
        "assert 'numpy' not in sys.modules\n"
        "_apply_thread_cap(sys.argv[1])\n"
        "print(json.dumps(dict(os.environ)))\n", command))


class TestThreadCap:
    def test_env_var_propagates_to_blas_knobs(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        env = env_after_thread_cap("train")
        assert env["OMP_NUM_THREADS"] == "2"
        assert env["OPENBLAS_NUM_THREADS"] == "2"

    def test_caller_blas_settings_yield_to_the_cap(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        assert env_after_thread_cap("train")["OMP_NUM_THREADS"] == "2"

    def test_unset_cap_gives_blas_the_usable_cpus(self, monkeypatch):
        for var in ("TEXTOVISION_THREADS", *BLAS_THREAD_VARS):
            monkeypatch.delenv(var, raising=False)
        env = env_after_thread_cap("rank")
        assert {var: env.get(var) for var in BLAS_THREAD_VARS} == dict.fromkeys(
            BLAS_THREAD_VARS, str(len(os.sched_getaffinity(0))))

    def test_encode_runs_blas_at_one_thread_over_caller_settings(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "8")
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        env = env_after_thread_cap("encode")
        assert {var: env[var] for var in BLAS_THREAD_VARS} == dict.fromkeys(BLAS_THREAD_VARS, "1")

    def test_idle_blas_workers_sleep_at_once(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        monkeypatch.delenv("TEXTOVISION_THREADS", raising=False)
        assert env_after_thread_cap("train")["OPENBLAS_THREAD_TIMEOUT"] == "4"

    def test_caller_blas_timeout_yields_to_the_short_one(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "28")
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        assert env_after_thread_cap("train")["OPENBLAS_THREAD_TIMEOUT"] == "4"

    def test_train_bytes_do_not_depend_on_caller_blas_settings(self, tmp_path):
        # at 1000-256-64, OpenBLAS at one thread sums some products in
        # another order than at two, so a caller's setting would change them
        import subprocess
        import sys

        rng = np.random.default_rng(0)
        words = [f"w{i:04}" for i in range(1000)]
        sentences = [Sentence(f"i{k % 16}#{k}", " ".join(
            [words[(8 * k + j) % 1000] for j in range(8)] + list(rng.choice(words, size=4))))
            for k in range(128)]
        write_sentences(str(tmp_path / "train.tsv"), sentences)
        write_sentences(str(tmp_path / "val.tsv"), sentences[:16])
        formats.write_features(str(tmp_path / "items.feat"), table(
            {f"i{k}": row for k, row in enumerate(rng.random((16, 64)))}))
        paths = {"train_sentences": str(tmp_path / "train.tsv"),
                 "val_sentences": str(tmp_path / "val.tsv"),
                 "features": str(tmp_path / "items.feat")}
        env = {k: v for k, v in checkout_env().items() if k not in BLAS_THREAD_VARS}
        outputs = []
        for name, caller in (("plain", {}), ("blas1", {"OPENBLAS_NUM_THREADS": "1"})):
            model = tmp_path / f"{name}.bin"
            subprocess.run([sys.executable, "-m", "textovision", *train_args(
                                paths, str(model), ["--layers", "256", "--max-epochs", "1"])],
                           check=True, capture_output=True,
                           env=dict(env, TEXTOVISION_THREADS="2", **caller))
            outputs.append([model.read_bytes(), (tmp_path / f"{name}.bin.history.tsv").read_bytes()])
        assert outputs[1] == outputs[0]

    def test_an_in_process_call_leaves_the_environment_unchanged(self, tmp_path, capsys,
                                                                  monkeypatch):
        # numpy has loaded in this process, so setting the BLAS variables
        # could only leak them to the caller's later child processes
        for var in (*BLAS_THREAD_VARS, "OPENBLAS_THREAD_TIMEOUT"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TEXTOVISION_THREADS", "2")
        model, sentences = save_bow_model(tmp_path, [16, 8], 0)
        before = dict(os.environ)
        assert main(["build-vocab", "--sentences", sentences, "--vectorizer", "bow",
                     "--out", str(tmp_path / "vocab.txt")]) == 0
        assert main(["encode", "--model", model, "--sentences", sentences,
                     "--out", str(tmp_path / "e.feat")]) == 0
        assert dict(os.environ) == before

    def test_malformed_cap_is_a_usage_error_before_train_reads_any_input(self, tmp_path, capsys,
                                                                         monkeypatch):
        monkeypatch.setenv("TEXTOVISION_THREADS", "two")
        missing = str(tmp_path / "missing")
        paths = dict.fromkeys(["train_sentences", "val_sentences", "features"], missing)
        assert main(train_args(paths, str(tmp_path / "m.bin"))) == 1
        assert capsys.readouterr().err == (
            "textovision: error: TEXTOVISION_THREADS must be a positive integer, got 'two'\n")

    @pytest.mark.parametrize("command", ["build-vocab", "train", "encode", "rank", "pool",
                                         "evaluate"])
    def test_malformed_cap_is_a_usage_error_for_every_command(self, tmp_path, capsys,
                                                              monkeypatch, command):
        # every input is missing: reading one would be a data error
        missing = str(tmp_path / "missing")
        out = str(tmp_path / "out")
        argv = {
            "build-vocab": ["build-vocab", "--sentences", missing, "--vectorizer", "bow",
                            "--out", out],
            "train": train_args(dict.fromkeys(["train_sentences", "val_sentences", "features"],
                                              missing), out),
            "encode": ["encode", "--model", missing, "--sentences", missing, "--out", out],
            "rank": ["rank", "--queries", missing, "--items", missing, "--out", out],
            "pool": ["pool", "--features", missing, "--out", out],
            "evaluate": ["evaluate", "--rankings", missing, "--ground-truth", missing],
        }[command]
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for value in ("abc", "0", "-1", "1.5", "\u00b2"):
            monkeypatch.setenv("TEXTOVISION_THREADS", value)
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "textovision: error: TEXTOVISION_THREADS must be "
                                               f"a positive integer, got {value!r}\n")
            assert not any(var in os.environ for var in BLAS_THREAD_VARS)
        assert sorted(p.name for p in tmp_path.iterdir()) == []


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def save_bow_model(dirpath, widths, seed):
    """A bow model of ``widths[0]`` words and random layers of the widths
    after it, and a file of 40 sentences of its words: their paths."""
    from oracles import random_net

    from textovision import modelio, textvec

    rng = np.random.default_rng(seed)
    words = [f"w{i:05}" for i in range(widths[0])]
    params = random_net(widths, rng)
    model, sentences = dirpath / "m.bin", dirpath / "s.tsv"
    modelio.save_model(str(model), modelio.TrainedModel(textvec.TermIndex("bow", words), params))
    write_sentences(str(sentences), [
        Sentence(f"s#{k}", " ".join(rng.choice(words, size=rng.integers(1, 30))))
        for k in range(40)])
    return str(model), str(sentences)


def checkout_env():
    """This environment with this checkout's package on ``PYTHONPATH``, for a
    child interpreter: a path set only in pytest's settings does not reach it."""
    import textovision

    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(textovision.__file__)))


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "textovision", "--help"],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout


def run_fresh(code, *args, flags=()):
    """Run ``code`` in a new interpreter, started with ``flags``, with this
    checkout's package on the path; its last line of standard output."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=checkout_env())
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
        # nor statistics or dataclasses; -S, so that no site hook loads them first
        rank_path, gt_path = TestEvaluate().write_fixture(tmp_path)
        code = ("import sys\n"
                "from textovision.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print([m for m in ('numpy', 'statistics', 'dataclasses') if m in sys.modules])\n")
        assert run_fresh(code, "evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                         "--out", str(tmp_path / "r.tsv"), flags=["-S"]) == "[]"

    def test_build_vocab_runs_without_numpy(self, tmp_path):
        sentences = tmp_path / "s.tsv"
        sentences.write_text("a#0\ta red car\nb#0\tthe blue sky\n", encoding="utf-8")
        for kind in ("bow", "hashing"):
            assert run_fresh(self.MAIN_THEN_REPORT_NUMPY, "build-vocab", "--sentences",
                             str(sentences), "--vectorizer", kind,
                             "--out", str(tmp_path / "vocab.txt")) == "False"

    def test_encode_does_not_load_the_thread_pool(self, tmp_path, monkeypatch):
        # a first layer of 2 blocks: at one thread encode starts no pool, at
        # two it runs the second block on a pool thread
        model, sentences = save_bow_model(tmp_path, [1000, 256], 0)
        code = ("import sys\n"
                "from textovision.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print('concurrent.futures' in sys.modules)\n")
        for threads, loaded in (("1", "False"), ("2", "True")):
            monkeypatch.setenv("TEXTOVISION_THREADS", threads)
            assert run_fresh(code, "encode", "--model", model, "--sentences", sentences,
                             "--out", str(tmp_path / "e.feat")) == loaded

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
