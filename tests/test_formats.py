import numpy as np
import pytest

from textovision import formats, modelio
from textovision.neuralnet import EpochStats, NetworkConfig, init_network
from textovision.retrieval import Ranking, VisualFeature
from textovision.textvec import Sentence, TermIndex, WordEmbeddingTable


class TestSentenceFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.tsv")
        sentences = [Sentence("img1#0", "A dog leaps."), Sentence("img1#1", "")]
        formats.write_sentences(path, sentences)
        assert formats.read_sentences(path) == sentences

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\tx\na#0\ty\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            formats.read_sentences(str(path))

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("justtext\n", encoding="utf-8")
        with pytest.raises(ValueError):
            formats.read_sentences(str(path))

    def test_tab_in_text_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_sentences(str(tmp_path / "s.tsv"), [Sentence("a#0", "x\ty")])
        with pytest.raises(ValueError):
            formats.write_sentences(str(tmp_path / "s.tsv"), [Sentence("", "x")])


class TestFeatureFile:
    def test_values_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "f.txt")
        rng = np.random.default_rng(12)
        rows = [
            VisualFeature(f"item{i}", rng.normal(size=5) * 10.0 ** float(rng.integers(-8, 8)))
            for i in range(20)
        ]
        formats.write_features(path, rows)
        back = formats.read_features(path)
        assert [r.item_id for r in back] == [r.item_id for r in rows]
        for a, b in zip(rows, back):
            assert np.array_equal(a.values, b.values)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        rows = [VisualFeature("x", np.array([1.0 / 3.0, 2e-17, -4.625]))]
        formats.write_features(str(first), rows)
        formats.write_features(str(second), formats.read_features(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_zero_row_file_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="count 0"):
            formats.read_features(str(path))

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2 2\na 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 2"):
            formats.read_features(str(path))

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 3\na 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3"):
            formats.read_features(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2\na 1.0 nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            formats.read_features(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2 1\na 1.0\na 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            formats.read_features(str(path))


class TestWordListFile:
    def test_round_trip_in_index_order(self, tmp_path):
        path = str(tmp_path / "vocab.txt")
        entries = ["a", "cat", "dog"]
        formats.write_word_list(path, entries)
        assert formats.read_word_list(path) == entries

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            formats.read_word_list(str(path))


class TestPairsFile:
    def test_read(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("q1\ta\nq1\tb\nq2\tc\n", encoding="utf-8")
        assert formats.read_pairs(str(path)) == [("q1", "a"), ("q1", "b"), ("q2", "c")]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("justone\n", encoding="utf-8")
        with pytest.raises(ValueError):
            formats.read_pairs(str(path))

    def test_item_of_sentence_id(self):
        assert formats.item_id_of("img12#4") == "img12"
        assert formats.item_id_of("a#b#2") == "a#b"
        with pytest.raises(ValueError, match="'nomarker'"):
            formats.item_id_of("nomarker")

    def test_repeated_left_id_rejected_when_unique(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("s#0\ta\n\ns#1\tb\ns#0\tc\n", encoding="utf-8")
        assert len(formats.read_pairs(str(path))) == 3
        with pytest.raises(ValueError, match=f"{path}:4: duplicate id 's#0'"):
            formats.read_pairs(str(path), unique_left=True)


class TestRankingFile:
    def rankings(self):
        return [
            Ranking("q1", (("a", 0.9), ("b", 0.5), ("c", -0.25))),
            Ranking("q2", (("b", 1.0), ("a", 0.0), ("c", -1.0))),
        ]

    def test_format_and_round_trip(self, tmp_path):
        path = tmp_path / "rank.tsv"
        formats.write_ranking(str(path), self.rankings())
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "q1\ta\t1\t0.900000"
        assert len(lines) == 6
        back = formats.read_ranking(str(path))
        assert [r.query_id for r in back] == ["q1", "q2"]
        assert back[0].item_ids() == ["a", "b", "c"]
        assert back[0].entries[2][1] == pytest.approx(-0.25)

    def test_top_truncation(self, tmp_path):
        path = tmp_path / "rank.tsv"
        formats.write_ranking(str(path), self.rankings(), top=2)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4

    def test_rank_order_enforced(self, tmp_path):
        path = tmp_path / "rank.tsv"
        path.write_text("q1\ta\t2\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="out of order"):
            formats.read_ranking(str(path))


class TestHistoryFile:
    def test_header_and_values(self, tmp_path):
        path = tmp_path / "h.tsv"
        formats.write_history(str(path), [EpochStats(1, 0.5, 0.25), EpochStats(2, 1 / 3, 0.2)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_loss"
        assert lines[1] == "1\t0.5\t0.25"
        assert float(lines[2].split("\t")[1]) == 1 / 3


class TestModelFile:
    def model(self, kind="bow"):
        if kind == "bow":
            vectorizer = TermIndex(kind, ["a", "cat", "dog"])
        elif kind == "hashing":
            vectorizer = TermIndex(kind, ["#ca", "at#", "cat"])
        else:
            rng = np.random.default_rng(2)
            vectorizer = WordEmbeddingTable(
                4, {"dog": rng.normal(size=4), "cat": rng.normal(size=4)}
            )
        params = init_network(NetworkConfig([vectorizer.dim, 5, 2], 0.0), 77)
        return modelio.TrainedModel(vectorizer, params)

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_round_trip_bit_exact(self, tmp_path, kind):
        path = str(tmp_path / "m.bin")
        model = self.model(kind)
        modelio.save_model(path, model)
        back = modelio.load_model(path)
        assert back.vectorizer.kind == kind
        for (wa, ba), (wb, bb) in zip(model.params, back.params):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
        if kind == "word2vec":
            assert back.vectorizer.dim == model.vectorizer.dim
            for word, vec in model.vectorizer.entries.items():
                assert np.array_equal(back.vectorizer.entries[word], vec)
        else:
            assert back.vectorizer == model.vectorizer

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        modelio.save_model(str(first), self.model())
        modelio.save_model(str(second), modelio.load_model(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_magic_starts_the_file(self, tmp_path):
        path = tmp_path / "m.bin"
        modelio.save_model(str(path), self.model())
        raw = path.read_bytes()
        assert raw[:4] == b"W2VV"
        assert raw[4] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            modelio.load_model(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        modelio.save_model(str(path), self.model())
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            modelio.load_model(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        modelio.save_model(str(path), self.model())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated"):
            modelio.load_model(str(path))
