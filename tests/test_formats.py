import hashlib
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import oracles
import pytest
import synthdata
from hypothesis import given, settings
from hypothesis import strategies as st
from synthdata import FullDiskFile

from textovision import formats, modelio
from textovision.neuralnet import EpochStats, init_network
from textovision.retrieval import Features, Ranking, rank_all
from textovision.textvec import Sentence, TermIndex, WordEmbeddingTable


class TestSentenceFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.tsv")
        sentences = [Sentence("img1#0", "A dog leaps."), Sentence("img1#1", "")]
        synthdata.write_sentences(path, sentences)
        assert formats.read_sentences(path) == sentences

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a#0\tx\na#0\ty\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            formats.read_sentences(str(path))

    @pytest.mark.parametrize("sid", ["img 1#0", "img\x0b1#0", "img\u00a01#0"])
    def test_whitespace_in_id_rejected_naming_line(self, tmp_path, sid):
        # a feature file splits rows on any whitespace, so such an id
        # could not be read back from the features encode writes
        path = tmp_path / "s.tsv"
        path.write_text(f"a#0\tx\n{sid}\ty\n", encoding="utf-8")
        message = re.escape(f"{path}:2: sentence id {sid!r} contains whitespace")
        with pytest.raises(ValueError, match=message):
            formats.read_sentences(str(path))

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("justtext\n", encoding="utf-8")
        with pytest.raises(ValueError):
            formats.read_sentences(str(path))

    def test_tab_in_text_or_bad_id_rejected_on_read(self, tmp_path):
        # what a sentence line holds is checked where a file is read
        path = tmp_path / "s.tsv"
        for sid, text, message in [
            ("a#0", "x\ty", "text field contains a tab"),
            ("", "x", "empty sentence id"),
            ("a #0", "x", "sentence id 'a #0' contains whitespace"),
            ("a\t#0", "x", "text field contains a tab"),
            ("a\n#0", "x", "expected '<sentence_id>\\t<text>'"),
        ]:
            synthdata.write_sentences(path, [Sentence("b#0", "y"), Sentence(sid, text)])
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
                formats.read_sentences(str(path))


class TestAtomicOpen:
    def test_failed_rename_names_both_ends(self, tmp_path):
        # unlike a temporary file that cannot be made, named as the output,
        # a rename that fails keeps the error naming both of its ends
        directory = tmp_path / "d"
        directory.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            with formats.atomic_open(str(directory)) as fh:
                fh.write("x")
        tmp = f"{directory}.{os.getpid()}.tmp"
        assert str(exc.value) == f"[Errno 21] Is a directory: '{tmp}' -> '{directory}'"
        assert [p.name for p in tmp_path.iterdir()] == ["d"]


def finite_floats():
    """Any finite float64 bit pattern, with subnormals and the edge values
    drawn often."""
    from_bits = st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array([bits], dtype=np.uint64).view(np.float64)[0])
    ).filter(math.isfinite)
    edges = st.sampled_from(
        [0.0, -0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789012345680.0]
    )
    subnormals = st.integers(-(2**52) + 1, 2**52 - 1).map(lambda m: m * 5e-324)
    return st.one_of(edges, subnormals, from_bits)


class TestFeatureFile:
    def test_values_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "f.txt")
        rng = np.random.default_rng(12)
        scales = 10.0 ** rng.integers(-8, 8, size=(20, 1)).astype(np.float64)
        rows = Features([f"item{i}" for i in range(20)], rng.normal(size=(20, 5)) * scales)
        formats.write_features(path, rows)
        back = formats.read_features(path)
        assert back.ids == rows.ids
        assert back.matrix.tobytes() == rows.matrix.tobytes()

    def test_write_read_write_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        rows = Features(["x"], [[1.0 / 3.0, 2e-17, -4.625]])
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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a 1 2\nb 1 2 3\nc 1 2\n", ":3: row 'b' has 3 values, expected 2"),
            ("a 1 2\nb 1\nc 1 2\n", ":3: row 'b' has 1 values, expected 2"),
            ("a 1 2 3\nb 1 2 3\nc 1 2 3\n", ":2: row 'a' has 3 values, expected 2"),
            ("a 1 2\nb\nc 1 2\n", ":3: row 'b' has 0 values, expected 2"),
            ("a 1 2\n\nb 1 x\nc 1 2\n", ":4: non-numeric value in row 'b'"),
            ("a 1 2\nb 1 #2\nc 1 2\n", ":3: non-numeric value in row 'b'"),
            ("a 1 2\nb 1_0 2\nc 1 2\n", ":3: non-numeric value in row 'b'"),
            ("a 1 2\nb \u0661 2\nc 1 2\n", ":3: non-numeric value in row 'b'"),
            ("a 1 2\nb 1 inf\nc 1 2\n", ":3: non-finite value in row 'b'"),
            ("a 1 2\nb -Infinity 2\nc 1 2\n", ":3: non-finite value in row 'b'"),
            ("a 1 2\nb nan 2\nc 1 2\n", ":3: non-finite value in row 'b'"),
            ("a 1 2\nb 1e400 2\nc 1 2\n", ":3: non-finite value in row 'b'"),
            ("a 1 2\nb 1 2\na 1 2\n", ":4: duplicate item id 'a'"),
            ("a 1 2\nb 1 2\n\n", ":4: header declares 3 rows but file has 2"),
            ("a 1 2\nb 1 2\nc 1 2\nd 1 2\n", ":5: header declares 3 rows but file has 4"),
            ("", ":1: header declares 3 rows but file has 0"),
            ("\n  \n", ":3: header declares 3 rows but file has 0"),
        ],
    )
    def test_malformed_rows_name_path_and_line(self, tmp_path, body, message):
        path = tmp_path / "f.txt"
        path.write_text("3 2\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            formats.read_features(str(path))
        assert str(exc.value) == f"{path}{message}"

    @pytest.mark.parametrize("header", ["", "3\n", "3 2 1\n", "3 x\n", "1.0 2\n"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "f.txt"
        path.write_text(header + "a 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed feature header"):
            formats.read_features(str(path))

    def test_blank_lines_and_any_whitespace_separate_values(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2 2\n\n  a\t1.5 \x0b-2\r\n\nb 1e3\u30002.5e-3  \n", encoding="utf-8")
        back = formats.read_features(str(path))
        assert back.ids == ("a", "b")
        assert back.matrix.tolist() == [[1.5, -2.0], [1000.0, 0.0025]]
        expected = oracles.read_features(str(path))
        assert back.matrix.tobytes() == np.stack([r.values for r in expected]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda dim: st.lists(st.lists(finite_floats(), min_size=dim, max_size=dim),
                             min_size=1, max_size=6)
    ))
    def test_bytes_and_values_match_per_row_oracle(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("feat")
        ids = [f"r{i}" for i in range(len(rows))]
        matrix = np.array(rows, dtype=np.float64)
        ours, theirs = tmp / "ours.txt", tmp / "theirs.txt"
        formats.write_features(str(ours), Features(ids, matrix))
        oracles.write_features(
            str(theirs), [oracles.VisualFeature(i, row) for i, row in zip(ids, matrix)]
        )
        assert ours.read_bytes() == theirs.read_bytes()
        back = formats.read_features(str(ours))
        expected = oracles.read_features(str(ours))
        assert back.ids == tuple(r.item_id for r in expected) == tuple(ids)
        assert back.matrix.flags.c_contiguous and back.matrix.dtype == np.float64
        assert back.matrix.tobytes() == np.stack([r.values for r in expected]).tobytes()
        assert back.matrix.tobytes() == matrix.tobytes()

    def test_failed_write_leaves_earlier_file_untouched(self, tmp_path, monkeypatch):
        path, twin = tmp_path / "f.txt", tmp_path / "f.txt.twin"
        formats.write_features(str(path), Features(["a"], [[1.0, 2.0]]))
        earlier, earlier_twin = path.read_bytes(), twin.read_bytes()
        monkeypatch.setattr(formats, "open", FullDiskFile, raising=False)
        with pytest.raises(OSError, match="No space left"):
            formats.write_features(str(path), Features(["b"], [[3.0, 4.0]]))
        assert path.read_bytes() == earlier
        assert twin.read_bytes() == earlier_twin
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "f.txt.twin"]
        monkeypatch.undo()
        back = formats.read_features(str(path))
        assert back.ids == ("a",) and back.matrix.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("shape", [(0, 2), (1, 0)])
    def test_empty_or_dimensionless_table_is_not_written(self, tmp_path, shape):
        path = tmp_path / "f.txt"
        with pytest.raises(ValueError, match=re.escape(f"empty feature file, shape {shape}")):
            formats.write_features(str(path), Features(["x#0"][: shape[0]], np.zeros(shape)))
        assert not path.exists()


def twin_table(path):
    """``(ids, matrix)`` that ``read_features`` takes from the twin of the
    feature file ``path``, or None when it would parse the text."""
    with open(path, "rb") as fh:
        count, dim = map(int, fh.readline().split())
        return formats._twin_table(str(path), fh.fileno(), count, dim)


def write_npy_record_twin(path, ids, matrix) -> None:
    """A frozen copy of the writer of the twin layout before this one: four
    .npy records, the text's size (8 bytes, little-endian) and sha256, the
    ids in UTF-8 joined by newlines, the matrix as <f8, and the sha256 of
    those ids' and matrix's bytes."""
    from numpy.lib.format import write_array

    with open(path, "rb") as fh:
        text = fh.read()
    id_bytes = "\n".join(ids).encode("utf-8")
    matrix = np.asarray(matrix, dtype="<f8")
    text_record = len(text).to_bytes(8, "little") + hashlib.sha256(text).digest()
    table_record = hashlib.sha256(id_bytes + matrix.tobytes()).digest()
    with open(f"{path}.twin", "wb") as fh:
        for record in (np.frombuffer(text_record, np.uint8), np.frombuffer(id_bytes, np.uint8),
                       matrix, np.frombuffer(table_record, np.uint8)):
            write_array(fh, record, allow_pickle=False)


def twin_ids():
    """Up to six distinct feature ids, non-ASCII ones too: no whitespace, not empty."""
    one = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
    return st.lists(one.filter(lambda t: t.split() == [t]), min_size=6, max_size=6, unique=True)


class TestFeatureTwin:
    """A twin, ``<path>.twin``, beside each feature file ``write_features``
    writes; ``read_features`` takes the table from it only when it vouches
    for the text, and otherwise gives exactly the text's table or error."""

    def test_twin_follows_the_record_layout(self, tmp_path):
        path, twin = tmp_path / "f.feat", tmp_path / "f.feat.twin"
        table = Features(["a", "é#1", "日本"], [[1.5, -0.0], [5e-324, 2.0], [3.0, -1e300]])
        formats.write_features(str(path), table)
        written = twin.read_bytes()
        oracles.write_twin(path, table.ids, table.matrix)
        assert twin.read_bytes() == written

    def test_a_vouching_twin_is_read_in_place_of_the_text(self, tmp_path):
        # its digest right, other values: the table comes from the twin
        path = tmp_path / "f.feat"
        path.write_text("1 2\na 1.0 2.0\n", encoding="utf-8")
        oracles.write_twin(path, ["b"], [[7.0, 8.0]])
        back = formats.read_features(str(path))
        assert back.ids == ("b",) and back.matrix.tolist() == [[7.0, 8.0]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda dim: st.lists(st.lists(finite_floats(), min_size=dim, max_size=dim),
                             min_size=1, max_size=6)
    ), twin_ids())
    def test_round_trip_is_bit_exact_with_and_without_twin(self, tmp_path_factory, rows, ids):
        path = tmp_path_factory.mktemp("twin") / "f.feat"
        table = Features(ids[: len(rows)], np.array(rows, dtype=np.float64))
        formats.write_features(str(path), table)
        got_ids, got_matrix = twin_table(path)
        assert tuple(got_ids) == table.ids and got_matrix.tobytes() == table.matrix.tobytes()
        assert got_matrix.flags.aligned
        with_twin = formats.read_features(str(path))
        Path(f"{path}.twin").unlink()
        without = formats.read_features(str(path))
        for back in (with_twin, without):
            assert back.ids == table.ids
            assert back.matrix.dtype == np.float64 and back.matrix.flags.c_contiguous
            assert back.matrix.flags.aligned
            assert back.matrix.tobytes() == table.matrix.tobytes()

    def test_a_tiny_vouching_twin_is_read_in_little_memory(self, tmp_path):
        # the text's digest is read into a buffer no larger than the text,
        # not 1 MiB per read
        import tracemalloc

        path = tmp_path / "f.feat"
        formats.write_features(str(path), Features(["a"], [[1.5, 2.0]]))
        assert twin_table(path) is not None
        tracemalloc.start()
        try:
            ids, matrix = twin_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids == ["a"] and matrix.tolist() == [[1.5, 2.0]]
        assert peak < 64 << 10, f"peak {peak} bytes"

    def test_stale_twin_of_same_size_and_mtime_is_ignored(self, tmp_path):
        path = tmp_path / "f.feat"
        formats.write_features(str(path), Features(["a", "b"], [[1.5, 2.0], [3.0, 4.0]]))
        before = path.stat()
        path.write_text("2 2\na 2.5 2.0\nb 3.0 4.0\n", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert twin_table(path) is None
        assert formats.read_features(str(path)).matrix.tolist() == [[2.5, 2.0], [3.0, 4.0]]

    def test_twin_that_is_a_pipe_is_not_opened(self, tmp_path):
        # opening a pipe waits for a writer; the read must not wait
        import threading

        path = tmp_path / "f.feat"
        formats.write_features(str(path), Features(["a"], [[1.0, 2.0]]))
        Path(f"{path}.twin").unlink()
        os.mkfifo(f"{path}.twin")
        result = []
        reader = threading.Thread(target=lambda: result.append(formats.read_features(str(path))),
                                  daemon=True)
        reader.start()
        reader.join(timeout=10)
        waited = reader.is_alive()
        if waited:  # release it: a writer that closes at once
            os.close(os.open(f"{path}.twin", os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not waited and not reader.is_alive()
        assert len(result) == 1 and result[0].matrix.tolist() == [[1.0, 2.0]]

    def test_damaged_twin_gives_the_text_parse(self, tmp_path):
        # every truncation, seeded bit flips and overwritten byte runs
        # anywhere, and the clean twin grown to 64 GiB (sparse), which must
        # be neither read nor allocated
        import tracemalloc

        path, twin = tmp_path / "f.feat", tmp_path / "f.feat.twin"
        table = Features(["a", "bé", "c#1"], [[1.5, -0.0], [5e-324, 2.0], [3.0, -1e300]])
        formats.write_features(str(path), table)
        clean = twin.read_bytes()
        rng = np.random.default_rng(2026)
        damaged = [clean[:cut] for cut in range(len(clean))]
        for _ in range(800):
            flipped = bytearray(clean)
            bit = int(rng.integers(8 * len(clean)))
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
        for _ in range(200):
            at, n = int(rng.integers(len(clean))), int(rng.integers(1, 40))
            run = rng.integers(0, 256, size=len(clean[at:at + n]), dtype=np.uint8).tobytes()
            damaged.append(clean[:at] + run + clean[at + n:])
        for data in damaged:
            twin.write_bytes(data)
            back = formats.read_features(str(path))
            assert back.ids == table.ids and back.matrix.tobytes() == table.matrix.tobytes()
        twin.write_bytes(clean)
        os.truncate(twin, 2**36)
        tracemalloc.start()
        try:
            back = formats.read_features(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.ids == table.ids and back.matrix.tobytes() == table.matrix.tobytes()
        assert peak < 1 << 20

    @pytest.mark.parametrize("text, ids, matrix, message", [
        ("3 2\na 1 2\nb 1 2\n", ["a", "b"], [[1, 2], [1, 2]],
         ":3: header declares 3 rows but file has 2"),
        ("2 2\na 1 2\nb 1 nan\n", ["a", "b"], [[1, 2], [1, np.nan]],
         ":3: non-finite value in row 'b'"),
        ("2 2\na 1 2\na 1 2\n", ["a", "a"], [[1, 2], [1, 2]], ":3: duplicate item id 'a'"),
        ("2 3\na 1 2\nb 1 2\n", ["a", "b"], [[1, 2], [1, 2]],
         ":2: row 'a' has 2 values, expected 3"),
    ])
    def test_text_errors_are_the_same_with_a_twin(self, tmp_path, text, ids, matrix, message):
        # each twin vouches for its text by its digest but holds what the
        # text's checks refuse: a wrong count or width, a nan, a repeated id
        path = tmp_path / "f.feat"
        path.write_text(text, encoding="utf-8")
        oracles.write_twin(path, ids, matrix)
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                formats.read_features(str(path))
            assert str(exc.value) == f"{path}{message}"
            Path(f"{path}.twin").unlink(missing_ok=True)

    @pytest.mark.parametrize("dim", [2, 64])
    def test_twin_in_the_npy_record_layout_is_ignored(self, tmp_path, dim):
        # the layout before this one vouches for the text by its own rules,
        # holding other values; at dim 2 it is too large for the text, at
        # dim 64 it fits and the tag refuses it
        path = tmp_path / "f.feat"
        table = Features(["a", "b"], np.random.default_rng(dim).normal(size=(2, dim)))
        formats.write_features(str(path), table)
        write_npy_record_twin(path, ["c", "d"], table.matrix + 1.0)
        fits = 48 + 8 * table.matrix.size + path.stat().st_size
        assert (Path(f"{path}.twin").stat().st_size <= fits) == (dim == 64)
        assert twin_table(path) is None
        back = formats.read_features(str(path))
        assert back.ids == table.ids and back.matrix.tobytes() == table.matrix.tobytes()

    def test_vouching_twin_with_ids_that_are_not_utf8_gives_the_text(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("1 2\na 1.0 2.0\n", encoding="utf-8")
        text, payload = path.read_bytes(), np.array([7.0, 8.0], "<f8").tobytes() + b"\xff"
        digest = hashlib.sha256(text + payload).digest()
        Path(f"{path}.twin").write_bytes(b"tvtwin\0\1" + struct.pack("<Q", len(text)) + digest
                                         + payload)
        assert twin_table(path) is None
        assert formats.read_features(str(path)).matrix.tolist() == [[1.0, 2.0]]

    def test_one_digest_per_write_and_per_read(self, tmp_path, monkeypatch):
        made, sha256 = [], hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *data: made.append(data) or sha256(*data))
        path = tmp_path / "f.feat"
        formats.write_features(str(path), Features(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]))
        assert len(made) == 1
        oracles.write_twin(path, ["c", "d"], [[5.0, 6.0], [7.0, 8.0]])
        made.clear()
        back = formats.read_features(str(path))  # the table from the twin
        assert back.ids == ("c", "d") and len(made) == 1

    @pytest.mark.parametrize("ids, matrix", [
        (["a b"], [[1.0]]), ([""], [[1.0]]), (["a", "a"], [[1.0], [2.0]]),
        (["a"], [[np.nan]]), (["a"], [[-np.inf]]),
    ])
    def test_no_twin_for_a_table_the_text_cannot_give_back(self, tmp_path, ids, matrix):
        formats.write_features(str(tmp_path / "f.feat"), Features(ids, matrix))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.feat"]

    def test_failed_twin_write_leaves_the_complete_text(self, tmp_path, monkeypatch):
        # the earlier twin stays and no longer vouches: the new text is read
        path, twin = tmp_path / "f.feat", tmp_path / "f.feat.twin"
        formats.write_features(str(path), Features(["a"], [[1.0, 2.0]]))
        earlier_twin = twin.read_bytes()

        def full_twin_disk(file, mode="r", **kwargs):
            return (FullDiskFile if ".twin." in str(file) else open)(file, mode, **kwargs)

        monkeypatch.setattr(formats, "open", full_twin_disk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            formats.write_features(str(path), Features(["b"], [[3.0, 4.0]]))
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == "1 2\nb 3.0 4.0\n"
        assert twin.read_bytes() == earlier_twin
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.feat", "f.feat.twin"]
        assert twin_table(path) is None
        back = formats.read_features(str(path))
        assert back.ids == ("b",) and back.matrix.tolist() == [[3.0, 4.0]]


class TestWordListFile:
    def test_round_trip_in_index_order(self, tmp_path):
        path = tmp_path / "vocab.txt"
        formats.write_word_list(str(path), ["a", "cat", "dog"])
        assert path.read_text(encoding="utf-8") == "a\ncat\ndog\n"

    def test_empty_rejected(self, tmp_path, capsys):
        # an empty listing is never written: build-vocab refuses the corpus
        from textovision.cli import main

        sentences, path = tmp_path / "s.tsv", tmp_path / "vocab.txt"
        sentences.write_text("a#0\t...\n", encoding="utf-8")
        assert main(["build-vocab", "--sentences", str(sentences), "--vectorizer", "bow",
                     "--out", str(path)]) == 2
        assert "vocabulary would be empty" in capsys.readouterr().err
        assert not path.exists()


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

    @pytest.mark.parametrize("line", ["q1\tb \n", "q1 \tb\n", "q1\ta b\n", "q1\ta\tb\n"])
    def test_id_with_whitespace_rejected(self, tmp_path, line):
        path = tmp_path / "pairs.tsv"
        path.write_text("q0\ta\n" + line, encoding="utf-8")
        bad = next(part for part in line.rstrip("\n").split("\t", 1) if part.split() != [part])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: id {bad!r} contains whitespace")):
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
            Ranking("q1", ["a", "b", "c"], [0.9, 0.5, -0.25]),
            Ranking("q2", ["b", "a", "c"], [1.0, 0.0, -1.0]),
        ]

    def test_format_and_round_trip(self, tmp_path):
        path = tmp_path / "rank.tsv"
        formats.write_ranking(str(path), self.rankings())
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "q1\ta\t1\t0.900000"
        assert len(lines) == 6
        back = formats.read_ranking(str(path))
        assert [r.query_id for r in back] == ["q1", "q2"]
        assert back[0].item_ids == ["a", "b", "c"]
        assert back[0].scores == [0.9, 0.5, -0.25]

    def test_top_truncation(self, tmp_path):
        # rank_all cuts a ranking to its top entries; the file holds what it is given
        queries = Features(["q1", "q2"], [[1.0, 0.0], [0.0, 1.0]])
        items = Features(["a", "b", "c"], [[1.0, 0.1], [0.5, 0.5], [0.1, 1.0]])
        full, top = tmp_path / "full.tsv", tmp_path / "top.tsv"
        formats.write_ranking(str(full), rank_all(queries, items))
        formats.write_ranking(str(top), rank_all(queries, items, top=2))
        lines = full.read_text(encoding="utf-8").splitlines()
        assert top.read_text(encoding="utf-8").splitlines() == lines[0:2] + lines[3:5]

    def test_failed_write_leaves_earlier_file_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "rank.tsv"
        formats.write_ranking(str(path), self.rankings())
        earlier = path.read_bytes()
        monkeypatch.setattr(formats, "open", FullDiskFile, raising=False)
        with pytest.raises(OSError, match="No space left"):
            formats.write_ranking(str(path), self.rankings()[::-1])
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rank.tsv"]

    @pytest.mark.parametrize("lengths", [(2, 1, 2, 2, 1, 2), (7, 20, 3, 1, 0, 8)])
    def test_lines_match_per_line_format_across_blocks(self, tmp_path, monkeypatch, lengths):
        # blocks of 8 lines: several short rankings share one; a longer one is a block alone
        monkeypatch.setattr(formats, "_BLOCK_LINES", 8)
        rng = np.random.default_rng(8)
        rankings = [Ranking(f"q{i}", [f"é{j}" for j in range(n)], rng.normal(size=n) * 5)
                    for i, n in enumerate(lengths)]
        path = tmp_path / "rank.tsv"
        formats.write_ranking(str(path), rankings)
        assert path.read_text(encoding="utf-8") == "".join(
            f"{r.query_id}\t{item_id}\t{rank}\t{score:.6f}\n"
            for r in rankings for rank, (item_id, score) in enumerate(r.entries, start=1)
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(),
        st.floats(min_value=-20, max_value=20),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                         1.0000000000000002, 0.0078125, -0.0078125, 9.0, -9.0, 8.9999995,
                         -8.9999995, 1e300]),
        # exact ties at the seventh digit: dyadic fractions, (k + 0.5) / 1e6 and neighbours
        st.integers(-9 * 2**20, 9 * 2**20).map(lambda k: k / 2**20),
        st.tuples(st.integers(-9_000_000, 9_000_000), st.sampled_from([-np.inf, None, np.inf]))
        .map(lambda t: (t[0] + 0.5) / 1e6 if t[1] is None
             else float(np.nextafter((t[0] + 0.5) / 1e6, t[1]))),
    ), max_size=40))
    def test_score_texts_match_the_fstring(self, scores):
        texts = formats._score_texts(np.array(scores, dtype=np.float64))
        assert ["".join(parts) for parts in texts.tolist()] == [f"{s:.6f}\n" for s in scores]

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
            vectorizer = WordEmbeddingTable(Features(["dog", "cat"], rng.normal(size=(2, 4))))
        params = init_network([vectorizer.dim, 5, 2], 77)
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
            assert sorted(back.vectorizer.index) == sorted(model.vectorizer.index)
            for word, row in model.vectorizer.index.items():
                assert np.array_equal(back.vectorizer.table.matrix[back.vectorizer.index[word]],
                                      model.vectorizer.table.matrix[row])
        else:
            assert back.vectorizer == model.vectorizer

    @pytest.mark.parametrize("kind", ["bow", "hashing", "word2vec"])
    def test_rewrite_is_byte_identical(self, tmp_path, kind):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        modelio.save_model(str(first), self.model(kind))
        modelio.save_model(str(second), modelio.load_model(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_word2vec_rows_are_saved_in_sorted_word_order(self, tmp_path):
        vectors = {"dog": [1.0, 2.0], "cat": [3.0, 4.0], "émeu": [5.0, 6.0]}
        weight, bias = np.array([[0.5, -0.5]]), np.array([0.25])
        words = b"".join(struct.pack("<Q", len(w)) + w for w in (b"cat", b"dog", "émeu".encode()))
        expected = (b"W2VV" + struct.pack("<BBQQ", 1, 2, 2, 3) + words
                    + struct.pack("<6d", 3.0, 4.0, 1.0, 2.0, 5.0, 6.0)
                    + struct.pack("<QQQ3d", 1, 1, 2, 0.5, -0.5, 0.25))
        for order in (["dog", "cat", "émeu"], ["émeu", "cat", "dog"]):
            table = Features(order, np.array([vectors[w] for w in order]))
            path = tmp_path / f"{order[0]}.bin"
            modelio.save_model(str(path), modelio.TrainedModel(WordEmbeddingTable(table),
                                                               [(weight, bias)]))
            assert path.read_bytes() == expected

    def test_saving_a_word2vec_model_copies_no_table(self, tmp_path):
        import tracemalloc

        words = [f"w{i:05}" for i in range(20_000)]
        # reversed, so the rows are not already in sorted word order
        table = Features(words[::-1], np.random.default_rng(4).normal(size=(len(words), 50)))
        model = modelio.TrainedModel(WordEmbeddingTable(table), init_network([50, 2], 0))
        tracemalloc.start()
        try:
            modelio.save_model(str(tmp_path / "m.bin"), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one copy of the table would reach its size
        table_bytes = table.matrix.nbytes
        assert peak < table_bytes / 8, f"peak {peak / 1e6:.2f} MB for {table_bytes / 1e6:.2f} MB"

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
