import errno
import struct

import numpy as np
import pytest

from textovision import formats
from textovision.cli import main
from textovision.retrieval import VisualFeature
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
    formats.write_sentences(paths["train_sentences"], train)
    formats.write_sentences(paths["val_sentences"], val)
    features = [
        VisualFeature(item, np.array(values)) for item, values in ITEM_TARGETS.items()
    ]
    formats.write_features(paths["features"], features)
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
        huge = [VisualFeature(item, np.array(values) * 1e150)
                for item, values in ITEM_TARGETS.items()]
        formats.write_features(paths["features"], huge)
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model), ["--lr", "1e150"])) == 2
        # the error line alone: no numpy overflow warnings before it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("textovision: error: epoch 1: non-finite loss (train ")
        assert not model.exists()

    def test_failed_model_write_leaves_earlier_model_untouched(self, tmp_path, capsys,
                                                               monkeypatch):
        from textovision import modelio

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

        paths = write_corpus(tmp_path)
        model = tmp_path / "m.bin"
        assert main(train_args(paths, str(model))) == 0
        earlier = model.read_bytes()
        files = sorted(tmp_path.iterdir())
        monkeypatch.setattr(modelio, "open", FullDiskFile, raising=False)
        assert main(train_args(paths, str(model), ["--seed", "6"])) == 2
        assert "No space left" in capsys.readouterr().err
        assert model.read_bytes() == earlier
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
        assert rows[0].values.shape == (4,)  # model output dim

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


class TestRank:
    def write_pool(self, tmp_path):
        rng = np.random.default_rng(77)
        items = [VisualFeature(f"i{j}", rng.normal(size=3) + 2.0) for j in range(5)]
        queries = [VisualFeature(f"q{j}", rng.normal(size=3) + 2.0) for j in range(3)]
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
            assert ranking.entries[0][0] == ranking.query_id

    def test_ties_ordered_by_id(self, tmp_path, capsys):
        items_path = tmp_path / "items.feat"
        queries_path = tmp_path / "q.feat"
        formats.write_features(
            str(items_path),
            [VisualFeature("zz", np.array([1.0, 1.0])), VisualFeature("aa", np.array([2.0, 2.0]))],
        )
        formats.write_features(str(queries_path), [VisualFeature("q", np.array([1.0, 1.0]))])
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", str(queries_path), "--items", str(items_path),
                     "--out", str(out)]) == 0
        assert formats.read_ranking(str(out))[0].item_ids() == ["aa", "zz"]

    def test_top_limits_lines(self, tmp_path, capsys):
        queries, items = self.write_pool(tmp_path)
        out = tmp_path / "rank.tsv"
        assert main(["rank", "--queries", queries, "--items", items, "--top", "2",
                     "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 6

    def test_dim_mismatch_is_data_error(self, tmp_path, capsys):
        queries, _ = self.write_pool(tmp_path)
        other = tmp_path / "other.feat"
        formats.write_features(str(other), [VisualFeature("x", np.array([1.0, 2.0]))])
        assert main(["rank", "--queries", queries, "--items", str(other),
                     "--out", str(tmp_path / "r.tsv")]) == 2

    def test_zero_vector_is_data_error(self, tmp_path, capsys):
        queries, _ = self.write_pool(tmp_path)
        bad = tmp_path / "bad.feat"
        formats.write_features(str(bad), [VisualFeature("z", np.array([0.0, 0.0, 0.0]))])
        assert main(["rank", "--queries", queries, "--items", str(bad),
                     "--out", str(tmp_path / "r.tsv")]) == 2
        assert "'z'" in capsys.readouterr().err


class TestPool:
    def write_frames(self, tmp_path):
        frames = [
            VisualFeature("v1#0", np.array([1.0, 3.0])),
            VisualFeature("v1#1", np.array([3.0, 5.0])),
            VisualFeature("v2#0", np.array([2.0, 2.0])),
            VisualFeature("v2#1", np.array([4.0, 0.0])),
        ]
        path = tmp_path / "frames.feat"
        formats.write_features(str(path), frames)
        return str(path)

    def test_mean_pooling(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        out = tmp_path / "pooled.feat"
        assert main(["pool", "--features", frames, "--out", str(out)]) == 0
        rows = {f.item_id: f.values.tolist() for f in formats.read_features(str(out))}
        assert rows == {"v1": [2.0, 4.0], "v2": [3.0, 1.0]}

    def test_audio_concatenation_adds_dims(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        audio = tmp_path / "audio.feat"
        formats.write_features(
            str(audio),
            [VisualFeature("v1", np.array([9.0])), VisualFeature("v2", np.array([8.0]))],
        )
        out = tmp_path / "pooled.feat"
        assert main(["pool", "--features", frames, "--audio", str(audio),
                     "--out", str(out)]) == 0
        rows = {f.item_id: f.values.tolist() for f in formats.read_features(str(out))}
        assert rows["v1"] == [2.0, 4.0, 9.0]

    def test_missing_audio_names_video(self, tmp_path, capsys):
        frames = self.write_frames(tmp_path)
        audio = tmp_path / "audio.feat"
        formats.write_features(str(audio), [VisualFeature("v1", np.array([9.0]))])
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

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        rank_path, gt_path = self.write_fixture(tmp_path)
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", gt_path,
                     "--metrics", "ndcg"]) == 1

    def test_missing_query_is_data_error(self, tmp_path, capsys):
        rank_path, _ = self.write_fixture(tmp_path)
        gt_path = tmp_path / "gt2.tsv"
        gt_path.write_text("qa\tqa-rel\n", encoding="utf-8")
        assert main(["evaluate", "--rankings", rank_path, "--ground-truth", str(gt_path)]) == 2


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
        assert len(rows) == 3 and rows[0].values.shape == (4,)


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
