"""Index persistence (round trips, rejection of bad files) and corpus I/O."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import threading
import tracemalloc
from array import array
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsearch import (
    Case,
    DataError,
    IndexFormatError,
    PreprocessConfig,
    append_case,
    build_index,
    load_index,
    read_corpus,
    save_index,
    store,
)
from cbrsearch.index import _build_fields, _extend_fields, _fully_derived
from cbrsearch.cli import EXIT_DATA, EXIT_OK, main
from cbrsearch.similarity import rank
from cbrsearch.store import (
    _read_index,
    _read_records,
    _sealed,
    _term_ids,
    _write_index,
)
from conftest import (
    SPLITLINES_BREAKS,
    corpus_cases,
    generate_token_corpus,
    packed_column,
    sealed_index_text,
    unpacked_column,
    zipf_titles,
)


@pytest.fixture
def small_index():
    index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "b c")])
    return index


def _canonical(document: dict) -> str:
    return json.dumps(document, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n"


class TestRoundTrip:
    def test_loaded_index_equals_the_saved_one(self, small_index, tmp_path):
        path = tmp_path / "small.idx"
        save_index(small_index, path)
        loaded = load_index(path)
        assert loaded.terms == small_index.terms
        loaded._derive(range(len(loaded.postings)))  # a loaded index derives on first use
        assert loaded.postings == small_index.postings
        for table in ("postings", "posting_weights"):
            bits = [(a.typecode, a.tobytes()) for a in getattr(loaded, table)]
            assert bits == [(a.typecode, a.tobytes()) for a in getattr(small_index, table)]
        norms = array("d", loaded.ordinal_norms).tobytes()
        assert norms == array("d", small_index.ordinal_norms).tobytes()
        assert loaded == small_index

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = random.Random(6021)
        doc_tokens = generate_token_corpus(rng, max_docs=50, max_tokens=20, max_vocab=30)
        cases = corpus_cases(doc_tokens)
        # non-ASCII text is written as is, a control character as an escape
        cases += [Case("é1", "Sistem Informasi Ñandú"), Case("x2", 'a\x07b "c" \\ d\u2028')]
        index, _ = build_index(cases)
        first = tmp_path / "first.idx"
        second = tmp_path / "second.idx"
        save_index(index, first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()
        # the spliced-in checksum leaves the file a canonical serialization
        text = first.read_text(encoding="utf-8")
        assert text == _canonical(json.loads(text))

    def test_config_survives_the_round_trip(self, tmp_path):
        config = PreprocessConfig(stopwords=frozenset({"dan", "di"}), min_token_length=2)
        index, _ = build_index([Case("d1", "sistem dan data"), Case("d2", "aplikasi web")], config)
        path = tmp_path / "cfg.idx"
        save_index(index, path)
        assert load_index(path).config == config

    def test_the_fields_writer_gives_the_bytes_of_save_index(self, tmp_path):
        # each step's stored fields, written unassembled, are the bytes of
        # the index the step assembles: built, loaded and extended
        cases = corpus_cases(generate_token_corpus(random.Random(6022), max_docs=60))
        cases.insert(3, Case("blank", "?! ."))
        config = PreprocessConfig(stopwords=frozenset({"kata01"}), min_token_length=2)
        new_case = Case("new", "kata01 kata02 baru")
        saved = tmp_path / "saved.idx"
        save_index(build_index(cases, config)[0], saved)
        steps = {
            "built": (_build_fields(cases, config)[0], build_index(cases, config)[0]),
            "loaded": (_read_index(saved), load_index(saved)),
            "extended": (
                _extend_fields(_read_index(saved), new_case),
                _fully_derived(_extend_fields(_read_index(saved), new_case)),
            ),
        }
        for step, (fields, index) in steps.items():
            written, expected = tmp_path / f"{step}.fields", tmp_path / f"{step}.idx"
            _write_index(written, *fields)
            save_index(index, expected)
            assert written.read_bytes() == expected.read_bytes(), step
        assert (tmp_path / "loaded.fields").read_bytes() == saved.read_bytes()


class TestSeal:
    """``weights_sha256`` is the file's one integrity value, its config included."""

    CASES = [Case("d1", "sistem data"), Case("d2", "aplikasi web")]

    def _saved(self, path, config=PreprocessConfig()) -> dict:
        save_index(build_index(self.CASES, config)[0], path)
        return json.loads(path.read_text(encoding="utf-8"))

    def test_same_config_same_bytes(self, tmp_path):
        a = PreprocessConfig(stopwords=frozenset({"Dan", "di"}), min_token_length=2)
        b = PreprocessConfig(stopwords=frozenset({"di", "dan"}), min_token_length=2)
        self._saved(tmp_path / "a.idx", a)
        self._saved(tmp_path / "b.idx", b)
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    def test_any_config_change_changes_the_checksum(self, tmp_path):
        # neither change drops a token, so the config alone tells the files apart
        base = self._saved(tmp_path / "base.idx")
        for name, config in [
            ("length", PreprocessConfig(min_token_length=2)),
            ("stopword", PreprocessConfig(stopwords=frozenset({"di"}))),
        ]:
            changed = self._saved(tmp_path / f"{name}.idx", config)
            assert changed["preprocess"] != base["preprocess"], name
            assert changed["counts"] == base["counts"], name
            assert changed["weights_sha256"] != base["weights_sha256"], name

    def test_the_stored_config_is_pinned(self, tmp_path):
        # index files store the config as is: a changed layout breaks every one
        assert self._saved(tmp_path / "default.idx")["preprocess"] == {
            "min_token_length": 1,
            "stopwords": [],
        }
        config = PreprocessConfig(stopwords={"Dan", "di"}, min_token_length=2)
        document = self._saved(tmp_path / "config.idx", config)
        assert document["preprocess"] == {"min_token_length": 2, "stopwords": ["dan", "di"]}
        assert "preprocess_fingerprint" not in document

    @pytest.mark.parametrize("value", ["false", "no", [1], 1, False])
    def test_a_sealed_stray_casefold_key_is_ignored(self, tmp_path, value):
        # version 5 files held the key; a version 6 reader reads no such key,
        # whatever its value, and tokens are always lowercased
        path = tmp_path / "stray.idx"
        document = self._saved(path)
        document["preprocess"]["casefold"] = value
        path.write_text(sealed_index_text(document), encoding="utf-8")
        assert load_index(path) == build_index(self.CASES)[0]

    def test_a_sealed_stray_fingerprint_key_is_ignored(self, tmp_path):
        path = tmp_path / "stray.idx"
        document = self._saved(path)
        document["preprocess_fingerprint"] = "0" * 64
        path.write_text(sealed_index_text(document), encoding="utf-8")
        assert load_index(path) == build_index(self.CASES)[0]


def _set_first_count(text: str, count) -> str:
    """*text* with the first stored count set to *count(first count)*, left unsealed."""
    document = json.loads(text)
    counts = unpacked_column(document["counts"])
    counts[0] = count(counts[0])
    document["counts"] = packed_column(counts)
    return _canonical(document)


def _bump_first_count(text: str) -> str:
    return _set_first_count(text, lambda count: count + 1)


def _scale_first_row(text: str) -> str:
    return _set_first_count(text, lambda count: 3)


def _add_stopword(text: str) -> str:
    document = json.loads(text)
    document["preprocess"]["stopwords"] = ["sistem"]
    return _canonical(document)


def _append_scaled_row_after_checksum(text: str) -> str:
    return text.removesuffix("}\n") + ',"counts":[1,"AwEBAQE="]}\n'  # the counts 3, 1, 1, 1, 1


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexFormatError, match="cannot read"):
            load_index(tmp_path / "missing.idx")

    def test_truncated_file_is_corrupt(self, small_index, tmp_path):
        path = tmp_path / "trunc.idx"
        save_index(small_index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    def test_non_json_garbage_is_corrupt(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_text("definitely not an index\n", encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    def test_unrecognized_layout_is_corrupt(self, tmp_path):
        path = tmp_path / "other.idx"
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    def test_a_leading_byte_order_mark_is_corrupt(self, small_index, tmp_path):
        # user files may start with one; an index file is read as the exact
        # bytes its checksum covers
        path = tmp_path / "bom.idx"
        save_index(small_index, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    def test_version_bump_is_rejected_not_migrated(self, small_index, tmp_path):
        path = tmp_path / "versioned.idx"
        save_index(small_index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format_version"] = 99
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="unsupported index format version"):
            load_index(path)

    def test_weight_checksum_mismatch(self, small_index, tmp_path):
        path = tmp_path / "sum.idx"
        save_index(small_index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["weights_sha256"] = "0" * 64
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            load_index(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_a_cr_or_crlf_final_newline_fails_the_checksum(
        self, small_index, tmp_path, capsys, ending
    ):
        # the checksum covers the file's bytes: no newline translation on read
        path = tmp_path / "newline.idx"
        save_index(small_index, path)
        path.write_bytes(path.read_bytes().removesuffix(b"\n") + ending.encode())
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            load_index(path)
        assert main(["query", "--index", str(path), "--query", "a"]) == EXIT_DATA
        assert "checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("min_token_length", 2), ("stopwords", ["sistem"])]
    )
    def test_an_unsealed_config_edit_fails_the_checksum(self, tmp_path, capsys, key, value):
        # the checksum is the file's one integrity value: it covers the config too
        index, _ = build_index([Case("d1", "sistem data"), Case("d2", "aplikasi web")])
        path = tmp_path / "config.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["preprocess"][key] = value
        path.write_text(_canonical(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="^index checksum mismatch in "):
            load_index(path)
        assert main(["query", "--index", str(path), "--query", "sistem"]) == EXIT_DATA
        assert "index checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "titles, tamper",
        [
            (["a b", "a c", "b c"], _bump_first_count),
            # every weight stays what it was: "a" and "b" have idf 0
            (["a b", "a b c"], _scale_first_row),
            (["sistem informasi", "sistem pakar", "aplikasi web"], _add_stopword),
            # json.loads keeps the last of two equal keys
            (["a b", "a b c"], _append_scaled_row_after_checksum),
        ],
        ids=["count-changed", "row-scaled", "stopword-added", "key-after-checksum"],
    )
    def test_tampered_counts_are_caught(self, tmp_path, titles, tamper):
        index, _ = build_index([Case(f"d{i}", title) for i, title in enumerate(titles, 1)])
        path = tmp_path / "tamper.idx"
        save_index(index, path)
        path.write_text(tamper(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(path)

    @pytest.mark.parametrize(
        "key, value, saved",
        [
            ("min_token_length", 2.9, 2),
            ("min_token_length", "2", 2),
            ("min_token_length", True, 1),
        ],
    )
    def test_config_of_the_wrong_json_type_is_corrupt(self, tmp_path, key, value, saved):
        # the checksum is forged to match, and the value means the saved one
        # loosely read, so the type check is what refuses it
        config = PreprocessConfig(**{key: saved})
        index, _ = build_index([Case("d1", "sistem data"), Case("d2", "aplikasi web")], config)
        path = tmp_path / "config.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["preprocess"][key] = value
        path.write_text(sealed_index_text(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    def test_a_file_that_keeps_the_case_of_its_tokens_must_be_rebuilt(self, tmp_path, capsys):
        # only version 5 files held the key, and a version 5 file is rebuilt
        # whatever it holds
        index, _ = build_index([Case("d1", "sistem data"), Case("d2", "aplikasi web")])
        path = tmp_path / "cased.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format_version"] = 5
        document["preprocess"]["casefold"] = False
        path.write_text(sealed_index_text(document), encoding="utf-8")
        message = (
            f"unsupported index format version 5 in {path} (supported: 6); "
            "rebuild it with `cbrsearch index`"
        )
        with pytest.raises(IndexFormatError) as caught:
            load_index(path)
        assert str(caught.value) == message
        assert main(["query", "--index", str(path), "--query", "sistem"]) == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {caught.value}\n")

    def test_a_repeated_document_id_is_corrupt(self, tmp_path, capsys):
        # the checksum is forged to match, so the duplicate id check is what refuses it
        index, _ = build_index([Case("a", "sistem data"), Case("b", "aplikasi web")])
        path = tmp_path / "repeated.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["ids"] = ["a", "a"]
        path.write_text(sealed_index_text(document), encoding="utf-8")
        message = f"corrupt index file {path}: duplicate document id 'a'"
        with pytest.raises(IndexFormatError) as caught:
            load_index(path)
        assert str(caught.value) == message
        assert main(["query", "--index", str(path), "--query", "sistem"]) == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # the saved columns of the rows below, each packed at width 1:
    # row_lengths [2, 2, 2, 1], term_ids [0, 1, 0, 2, 1, 2, 2] and counts
    # [1, 1, 1, 1, 1, 1, 1]
    FOUR_ROWS = ["a b", "a c", "b c", "c"]

    @pytest.mark.parametrize(
        "field, value",
        [
            (["ids"], 7),
            (["terms"], 7),
            (["ids", 0], ["d1"]),
            (["titles", 0], 7),
            (["terms", 1], "a"),  # term 0 is "a" already
            (["counts", 1], [2]),  # the packed text a list
            # the same ids, the first row not ascending
            (["term_ids"], packed_column([1, 0, 0, 2, 1, 2, 2])),
            (["terms"], ["a", "b", "c", "d"]),
            (["preprocess", "stopwords"], [1]),
            (["preprocess", "min_token_length"], 0),
            # each below breaks one check of the count columns and passes the others
            (["row_lengths"], packed_column([0, 4, 2, 1])),
            # a packed column's one int is its width: a JSON true or 1.0 equals
            # the saved width 1 in Python but is not an int
            (["row_lengths", 0], True),
            (["row_lengths", 0], 1.0),
            (["row_lengths"], packed_column([2, 2, 2, 2])),
            (["counts"], packed_column([1, 1, 1, 1, 1, 1])),
            (["term_ids", 0], True),
            (["term_ids", 0], 1.0),
            (["counts", 0], True),
            (["counts", 0], 1.0),
        ],
        ids=[
            "documents-not-a-list",
            "vocabulary-not-a-list",
            "document-id-a-list",
            "title-not-a-string",
            "duplicate-vocabulary-term",
            "count-not-an-integer",
            "count-row-not-ascending",
            "term-in-no-document",
            "stopword-not-a-string",
            "min-token-length-zero",
            "row-length-0",
            "row-length-a-bool",
            "row-length-a-float",
            "row-lengths-sum-past-the-term-ids",
            "counts-fewer-than-term-ids",
            "term-id-a-bool",
            "term-id-a-float",
            "count-a-bool",
            "count-a-float",
        ],
    )
    def test_malformed_field_is_corrupt(self, tmp_path, field, value):
        index, _ = build_index([Case(f"d{n}", title) for n, title in enumerate(self.FOUR_ROWS)])
        path = tmp_path / "mutated.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        *parents, leaf = field
        target = document
        for key in parents:
            target = target[key]
        target[leaf] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # the width: the int 1, 2 or 4, and no bool or float equal to one
            ("counts", [True, "AQEBAQEBAQ=="], "has width True, not an integer"),
            ("row_lengths", [False, "AgICAQ=="], "has width False, not an integer"),
            ("term_ids", [1.0, "AAEAAgECAg=="], "has width 1.0, not an integer"),
            ("counts", ["1", "AQEBAQEBAQ=="], "has width '1', not an integer"),
            ("counts", [None, "AQEBAQEBAQ=="], "has width None, not an integer"),
            ("row_lengths", [-1, "AgICAQ=="], "has width -1, not 1, 2 or 4"),
            ("row_lengths", [0, "AgICAQ=="], "has width 0, not 1, 2 or 4"),
            ("row_lengths", [3, "AgICAQAA"], "has width 3, not 1, 2 or 4"),
            ("row_lengths", [8, "AgAAAAAAAAACAAAAAAAAAAIAAAAAAAAAAQAAAAAAAAA="],
             "has width 8, not 1, 2 or 4"),
            # the text: strict base64 in a JSON string
            ("counts", [1, "AQEBAQEBAQ"], "has text that is not base64"),  # unpadded
            ("counts", [1, "AQEBAQEB AQ=="], "has text that is not base64"),
            ("counts", [1, "AQEBAQEBAQ==\n"], "has text that is not base64"),
            ("counts", [1, "AQEBAQEBAQ=!"], "has text that is not base64"),
            ("counts", [1, "AQEBAQEBAQé="], "has text that is not base64"),
            ("counts", [1, 7], "has text that is not base64"),
            ("counts", [1, None], "has text that is not base64"),
            ("counts", [1, ["AQEBAQEBAQ=="]], "has text that is not base64"),
            # the decoded length: whole values of the width
            ("row_lengths", [2, "AgACAAIAAQ"], "has text that is not base64"),
            ("row_lengths", [2, "AgACAAIA"], "ids, titles and row_lengths differ in length"),
            ("row_lengths", [2, "AgACAAIAAQAA"], "holds 9 bytes, not a multiple of its width 2"),
            ("term_ids", [4, "AAECAQIC"], "holds 6 bytes, not a multiple of its width 4"),
            # the shape: a v4 column, or a list of other than two items
            ("row_lengths", [2, 2, 2, 1], "is not a [width, base64] pair"),
            ("counts", [1, 1, 1, 1, 1, 1, 1], "is not a [width, base64] pair"),
            ("counts", [1], "is not a [width, base64] pair"),
            ("counts", [], "is not a [width, base64] pair"),
            ("counts", [1, "AQEBAQEBAQ==", 1], "is not a [width, base64] pair"),
            ("counts", {"1": "AQEBAQEBAQ=="}, "row_lengths, term_ids and counts must be lists"),
        ],
        ids=[
            "width-true", "width-false", "width-1.0", "width-a-string", "width-null",
            "width-negative", "width-0", "width-3", "width-8",
            "text-unpadded", "text-with-a-space", "text-with-a-newline", "text-with-a-stray-sign",
            "text-not-ascii", "text-a-number", "text-null", "text-a-list",
            "text-unpadded-at-width-2", "too-few-values", "9-bytes-at-width-2", "6-bytes-at-width-4",
            "v4-row-lengths", "v4-counts", "one-item", "no-items", "three-items", "an-object",
        ],
    )
    def test_a_malformed_packed_column_exits_2(self, tmp_path, capsys, key, value, message):
        # the checksum is forged to match, so the one check named is what refuses it
        index, _ = build_index([Case(f"d{n}", title) for n, title in enumerate(self.FOUR_ROWS)])
        path = tmp_path / "packed.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document[key] = value
        path.write_text(sealed_index_text(document), encoding="utf-8")
        assert main(["query", "--index", str(path), "--query", "a"]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: corrupt index file {path}: ")
        assert message in err


def _paths(node, prefix=()):
    """Every path below *node*: dict keys and list positions, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
_DELETE = object()
# edge values every field is tried with, besides the random ones
_EDGE_VALUES = [
    _DELETE, None, True, False, 0, -1, 2, 10**30, 1.5, float("inf"), float("nan"),
    "", "a", "1", [], [1], ["a"], [[0, 1]], {}, {"id": "d1"},
]


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    """A small index whose saved form has a value at every field, stopwords included."""
    config = PreprocessConfig(stopwords=frozenset({"dan"}), min_token_length=2)
    cases = [Case("d1", "sistem dan data"), Case("d2", "aplikasi data web"), Case("d3", "sistem web")]
    index, _ = build_index(cases, config)
    path = tmp_path_factory.mktemp("mutation") / "index.idx"
    save_index(index, path)
    document = json.loads(path.read_text(encoding="utf-8"))
    return index, document, list(_paths(document)), path


def _assert_loads_equal_or_corrupt(saved_index, field, value):
    """Write the saved index with *field* set to *value* (or deleted) and load it.

    The load must raise IndexFormatError or give an index equal to the
    original. With the checksum forged to match the edit, the load must
    still raise IndexFormatError or give an index that survives its own
    save and load.
    """
    original, document, _, path = saved_index
    mutated = json.loads(json.dumps(document))
    *parents, leaf = field
    target = mutated
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[leaf]
    else:
        target[leaf] = value
    path.write_text(sealed_index_text(mutated), encoding="utf-8")
    try:
        forged = load_index(path)
    except IndexFormatError:
        pass
    else:
        save_index(forged, path)
        assert load_index(path) == forged, (field, value)
    path.write_text(json.dumps(mutated), encoding="utf-8")
    try:
        loaded = load_index(path)
    except IndexFormatError:
        return
    assert loaded == original, (field, value)


class TestMutationProperty:
    """Any single-field change to a saved index loads as the original or is rejected."""

    def test_every_field_with_edge_values(self, saved_index):
        for field in saved_index[2]:
            for value in _EDGE_VALUES:
                _assert_loads_equal_or_corrupt(saved_index, field, value)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_field_with_random_values(self, saved_index, data):
        field = data.draw(st.sampled_from(saved_index[2]), label="field")
        value = data.draw(st.just(_DELETE) | _JSON_VALUES, label="value")
        _assert_loads_equal_or_corrupt(saved_index, field, value)


# The one-shot writer and reader checks the chunked ones replaced: the
# references the tests below hold them to.
_CHECKSUM_KEY = ',"weights_sha256":'


def _seal_once(body: str) -> str:
    """The file text for the canonical JSON object *body*: its sha256 spliced in."""
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{body[:-1]}{_CHECKSUM_KEY}"{digest}"}}\n'


def _sealed_once(text: str) -> bool:
    return _seal_once(text.rpartition(_CHECKSUM_KEY)[0] + "}") == text


def _written_once(fields) -> bytes:
    """The bytes of one json.dumps of the whole document, sealed, its columns packed by reference."""
    config, terms, doc_ids, titles, row_lengths, term_ids, counts = fields
    document = {
        "format": "cbrsearch-index",
        "format_version": 6,
        "preprocess": {
            "min_token_length": config.min_token_length,
            "stopwords": sorted(config.stopwords),
        },
        "terms": terms,
        "ids": doc_ids,
        "titles": titles,
        "row_lengths": packed_column(row_lengths),
        "term_ids": packed_column(term_ids),
        "counts": packed_column(counts),
    }
    return _seal_once(_canonical(document)[:-1]).encode("utf-8")


def _term_ids_once(row_lengths: list, term_ids: list, counts: list, term_count: int):
    """The count row check one row at a time, each row sliced out of the columns."""
    if not all(type(value) is int for value in [*row_lengths, *term_ids, *counts]):
        return None
    if sum(row_lengths) != len(term_ids) or len(counts) != len(term_ids):
        return None
    start = 0
    for length in row_lengths:
        if length < 1:
            return None
        row = term_ids[start : start + length]
        if row != sorted(set(row)) or row[0] < 0 or row[-1] >= term_count:
            return None
        start += length
    return set(term_ids) if min(counts) >= 1 else None


def _count_rows_text(columns: tuple[list, list, list], term_count: int) -> str:
    """Sealed index text of the count *columns* over *term_count* terms.

    A column whose values are all ints from 0 to 2**32 - 1 is packed; any
    other, one holding a bool, a float, a negative int or a string, is
    stored as the plain list a version 4 file held.
    """
    document = {
        "format": "cbrsearch-index",
        "format_version": 6,
        "preprocess": {"min_token_length": 1, "stopwords": []},
        "terms": [f"t{n}" for n in range(term_count)],
        "ids": [f"d{n}" for n in range(len(columns[0]))],
        "titles": ["x"] * len(columns[0]),
    }
    for key, column in zip(("row_lengths", "term_ids", "counts"), columns):
        document[key] = packed_column(column) if _packable(column) else column
    return sealed_index_text(document)


def _packable(column: list) -> bool:
    return all(type(value) is int and 0 <= value < 1 << 32 for value in column)


def _columns(rows: list) -> tuple[list, list, list]:
    """Row lengths, term ids and counts of ``[term id, count, ...]`` *rows*.

    A row of odd length leaves the columns of term ids and counts unequal.
    """
    return (
        [len(row[0::2]) for row in rows],
        list(chain.from_iterable(row[0::2] for row in rows)),
        list(chain.from_iterable(row[1::2] for row in rows)),
    )


# text the writer must escape or keep as it is: quotes, backslashes, control
# characters, U+2028, non-ASCII and a character beyond the basic plane
_ODD_TEXT = st.text(
    st.characters(exclude_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x07", "\n", " ", "é", "\U0001f600", "/"]),
    max_size=5,
)


def _titled_fields(rows: int):
    """Built fields of *rows* documents whose titles hold text JSON escapes or keeps."""
    titles = [f'Judul {n} dan Café "{n % 7}" \\ \x07 \U0001f600' for n in range(rows)]
    config = PreprocessConfig(stopwords=frozenset({"dan", "di"}), min_token_length=2)
    return _build_fields([Case(f"d{n}", title) for n, title in enumerate(titles)], config)[0]


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "index.idx"


class TestWriter:
    """The chunked writer writes the bytes of one json.dumps of the document, sealed."""

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_equals_the_one_shot_form_around_chunk_edges(self, tmp_path, rows):
        fields = _titled_fields(rows)
        path = tmp_path / "edge.idx"
        _write_index(path, *fields)
        assert path.read_bytes() == _written_once(fields)
        assert _read_index(path) == fields

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        stopwords=st.frozensets(_ODD_TEXT, max_size=3),
        # the writer checks nothing, so the lists need not be of one length
        lists=st.tuples(
            st.lists(_ODD_TEXT, max_size=7),
            st.lists(_ODD_TEXT, max_size=7),
            st.lists(_ODD_TEXT, max_size=7),
            st.lists(st.integers(0, 10**6), max_size=7),
            st.lists(st.integers(0, 10**6), max_size=7),
            st.lists(st.integers(0, 10**6), max_size=7),
        ),
        chunk_lines=st.sampled_from([1, 2, 3, 512]),
    )
    def test_equals_the_one_shot_form(self, index_file, stopwords, lists, chunk_lines):
        fields = (PreprocessConfig(stopwords=stopwords), *lists)
        with mock.patch.object(store, "_CHUNK_LINES", chunk_lines):
            _write_index(index_file, *fields)
        assert index_file.read_bytes() == _written_once(fields)

    def test_the_readme_example_is_what_save_index_writes(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("**Index file**", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        path = tmp_path / "readme.idx"
        save_index(index, path)
        assert path.read_text(encoding="utf-8") == example

    @pytest.mark.parametrize("field", [1, 2, 3], ids=["terms", "ids", "titles"])
    def test_a_lone_surrogate_raises_before_any_file_exists(self, tmp_path, field):
        fields = list(_titled_fields(600))
        fields[field] = list(fields[field])
        fields[field][-1] += "\udcff"
        with pytest.raises(UnicodeEncodeError):
            _write_index(tmp_path / "surrogate.idx", *fields)
        assert list(tmp_path.iterdir()) == []

    def test_two_threads_saving_to_one_path_use_two_temporary_files(self, tmp_path, monkeypatch):
        # the first save's fsync runs a second save to the same path in another
        # thread; had both one temporary file, the second would publish it and
        # the first save's replace would find it gone
        first, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        second, _ = build_index([Case("e1", "x y"), Case("e2", "x z"), Case("e3", "y z")])
        path = tmp_path / "shared.idx"
        fsync, errors, threads = os.fsync, [], []

        def save_second():
            try:
                save_index(second, path)
            except Exception as error:
                errors.append(error)

        def fsync_then_save(fd):
            fsync(fd)
            if not threads:  # the first save's, not the second's
                threads.append(threading.Thread(target=save_second))
                threads[0].start()
                threads[0].join(timeout=60)

        monkeypatch.setattr(os, "fsync", fsync_then_save)
        save_index(first, path)
        assert not threads[0].is_alive()
        assert errors == []
        assert load_index(path) == first  # the first save replaced the second
        assert list(tmp_path.iterdir()) == [path]


class TestReaderChecks:
    """The reader's checks accept and reject exactly what the one-shot checks did."""

    @pytest.fixture(scope="class")
    def saved_text(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seal") / "seal.idx"
        _write_index(path, *_titled_fields(5))
        return path.read_text(encoding="utf-8")

    def test_the_seal_check_on_edited_tails(self, saved_text):
        body, key, tail = saved_text.rpartition(_CHECKSUM_KEY)
        digest = tail[1:65]
        key_in_title = body.replace("Judul 0", f"Judul{_CHECKSUM_KEY}0", 1)
        texts = {
            "saved": saved_text,
            "key-missing": body + ',"weights_sha257":' + tail,
            "key-missing-resealed": body + "}\n",
            "key-also-in-a-title": key_in_title + key + tail,
            "key-also-in-a-title-resealed": _seal_once(key_in_title + "}"),
            "key-only-in-a-title": _seal_once(key_in_title + "}").replace(
                key + '"', ',"other":"'
            ),
            "uppercase-digest": saved_text.replace(digest, digest.upper()),
            "63-digit-digest": saved_text.replace(digest, digest[1:]),
            "a-byte-after-the-newline": saved_text + " ",
            "no-newline": saved_text[:-1],
            "crlf": saved_text[:-1] + "\r\n",
            "empty": "",
            "only-the-tail": key + tail,
            "a-sealed-empty-body": _seal_once("}"),
        }
        verdicts = {name: (_sealed(text), _sealed_once(text)) for name, text in texts.items()}
        assert all(new == old for new, old in verdicts.values()), verdicts
        accepted = {name for name, (new, _) in verdicts.items() if new}
        assert accepted == {
            "saved", "key-also-in-a-title-resealed", "a-sealed-empty-body"
        }

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        head=st.lists(
            st.sampled_from([_CHECKSUM_KEY, '"', "}", "\n", "\r", "a", "é", " ", "0f"]),
            max_size=8,
        ).map("".join),
        tail=st.sampled_from(["sealed", "as-is", "sealed-plus-x", "sealed-less-one"]),
    )
    def test_the_seal_check_on_random_text(self, head, tail):
        sealed = _seal_once(head + "}")
        text = {
            "sealed": sealed, "as-is": head,
            "sealed-plus-x": sealed + "x", "sealed-less-one": sealed[:-1],
        }[tail]
        assert _sealed(text) == _sealed_once(text)

    @pytest.mark.parametrize(
        "columns",
        [
            ([2, 1], [0, 2, 1], [1, 3, 1]),
            ([2, 2], [0, 2, 0, 1], [1, 3, 2, 1]),  # a descent at a row's end only
            ([1, 1, 1], [2, 0, 1], [1, 1, 1]),
            ([1, 1], [0, 1], [True, 1]),
            ([1, 1], [0, 1], [1.0, 1]),
            ([1, 1], [0, 1], [0, 1]),
            ([1, 1], [-1, 1], [1, 1]),
            ([1, 1], [0, 3], [1, 1]),
            ([2, 1], [0, 0, 1], [1, 1, 1]),  # a repeat inside a row
            ([2, 1], [1, 0, 2], [1, 1, 1]),  # a descent inside a row
            ([1, 2], [0, 1, 0], [1, 1, 1]),  # a descent inside the last row
            ([1, 0, 2], [0, 1, 2], [1, 1, 1]),  # ascending where the empty row sits
            ([2], [0, 2], [1]),  # one count fewer than term ids
            ([1, "x"], [0, 1], [1, 1]),  # a row length that is not a number
            ([1, True], [0, 1], [1, 1]),
            ([1, 1], [0, 1, 2], [1, 1, 1]),
            ([2, 2], [0, 1, 2], [1, 1, 1]),
            ([1, 1], [0, True], [1, 1]),
            ([1, 1], [0, 1.0], [1, 1]),
            ([1, 2], [0, 1, 2], [1, 1, 1]),  # an ascending step across a row boundary
        ],
        ids=[
            "good", "descent-at-a-row-end", "one-pair-rows", "bool-count", "float-count",
            "count-0", "negative-id", "id-out-of-range", "repeat-inside-a-row",
            "descent-inside-a-row", "descent-inside-the-last-row", "empty-row",
            "odd-length-row", "row-not-a-list", "bool-row-length", "row-lengths-sum-short",
            "row-lengths-sum-long", "bool-term-id", "float-term-id", "ascent-at-a-row-end",
        ],
    )
    def test_the_count_row_check(self, tmp_path, capsys, columns):
        # columns of bools, floats, negative ids or strings cannot be packed:
        # stored as the lists v4 held, they must exit 2 as v4 refused them
        expected = _term_ids_once(*columns, 3)
        if all(map(_packable, columns)):
            assert _term_ids(*(array("I", column) for column in columns), 3) == expected
        path = tmp_path / "rows.idx"
        path.write_text(_count_rows_text(columns, 3), encoding="utf-8")
        code = main(["query", "--index", str(path), "--query", "t0"])
        assert code == (EXIT_OK if expected == {0, 1, 2} else EXIT_DATA)
        assert ("corrupt index file" in capsys.readouterr().err) == (code == EXIT_DATA)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(-1, 4) | st.sampled_from([True, 1.0]), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        ),
        row_lengths=st.none() | st.lists(
            st.integers(-1, 4) | st.sampled_from([True, 1.0]), min_size=1, max_size=5
        ),
    )
    def test_the_count_row_check_on_random_rows(self, index_file, rows, row_lengths):
        # the columns of *rows*, or of their items under other row lengths,
        # checked as arrays where they can be packed and read from a file
        columns = _columns(rows)
        if row_lengths is not None:
            columns = (row_lengths, *columns[1:])
        expected = _term_ids_once(*columns, 4)
        if all(map(_packable, columns)):
            assert _term_ids(*(array("I", column) for column in columns), 4) == expected
        index_file.write_text(_count_rows_text(columns, 4), encoding="utf-8")
        try:
            _read_index(index_file)
        except IndexFormatError:
            assert expected is None or len(expected) < 4
        else:
            assert expected == {0, 1, 2, 3}

    def test_an_ascending_step_across_a_row_boundary_loads(self, tmp_path):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "c d"), Case("d3", "d e")])
        assert [column.tolist() for column in index.fields[4:]] == [
            [2, 2, 2], [0, 1, 2, 3, 3, 4], [1, 1, 1, 1, 1, 1]
        ]
        path = tmp_path / "ascending.idx"
        save_index(index, path)
        assert load_index(path) == index

    @pytest.mark.parametrize("escape", ["\\udcff", "\\uDCFF", "\\uDcfF"])
    def test_a_lone_surrogate_escape_of_either_case_is_not_encodable(
        self, small_index, tmp_path, escape
    ):
        path = self._resealed_with_a_surrogate(small_index, tmp_path, "titles", 1, escape)
        with pytest.raises(IndexFormatError) as caught:
            load_index(path)
        message = f"corrupt index file {path}: title of document 'd2' is not encodable as UTF-8"
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key, position, name",
        [("ids", 2, "id of document 'd3\\udcff'"), ("terms", 1, "vocabulary term 'b\\udcff'")],
    )
    def test_a_lone_surrogate_in_an_id_or_a_term_is_named(
        self, small_index, tmp_path, key, position, name
    ):
        path = self._resealed_with_a_surrogate(small_index, tmp_path, key, position, "\\udcff")
        with pytest.raises(IndexFormatError) as caught:
            load_index(path)
        assert str(caught.value) == f"corrupt index file {path}: {name} is not encodable as UTF-8"

    @staticmethod
    def _resealed_with_a_surrogate(index, tmp_path, key, position, escape):
        """A sealed copy of *index* whose *key* string at *position* ends in *escape*."""
        path = tmp_path / "surrogate.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document[key][position] += "\udcff"
        text = sealed_index_text(document)
        body = text.rpartition(_CHECKSUM_KEY)[0].replace("\\udcff", escape) + "}"
        path.write_text(_seal_once(body), encoding="utf-8")
        return path

    def test_an_escaped_backslash_before_ud_loads(self, tmp_path):
        index, _ = build_index([Case("d1", "a \\udcff b"), Case("d2", "a \\uDCFF c")])
        path = tmp_path / "backslash.idx"
        save_index(index, path)
        assert "\\\\udcff" in path.read_text(encoding="utf-8")
        assert load_index(path) == index


def _corpus_with_largest(column: str, largest: int) -> list[Case]:
    """Cases whose stored *column* holds *largest* as its largest value."""
    if column == "counts":  # one title repeats one word *largest* times
        return [Case("rep", " ".join(["kata"] * largest)), Case("other", "kata lain")]
    if column == "row_lengths":  # one title of *largest* distinct words
        return [Case("long", " ".join(f"w{n}" for n in range(largest))), Case("other", "w0 lain")]
    # term ids 0 to *largest*, 200 distinct words to a title
    words = [f"w{n}" for n in range(largest + 1)]
    return [Case(f"d{at}", " ".join(words[at : at + 200])) for at in range(0, len(words), 200)]


_WIDTH_EDGES = [(255, 1), (256, 2), (65535, 2), (65536, 4)]  # largest value, width


class TestPackedColumns:
    """A count column is saved as little-endian unsigned ints of the narrowest width that fits."""

    def test_a_known_column_encodes_to_pinned_little_endian_base64(self, tmp_path):
        # 1, 258 and 65535 at width 2 are the bytes 01 00, 02 01 and ff ff
        assert b"".join(store._column_pieces(array("H", [1, 258, 65535]))) == b'[2,"AQACAf//"]'
        assert b"".join(store._column_pieces([1, 258, 65535])) == b'[2,"AQACAf//"]'
        assert b"".join(store._column_pieces(array("I", [2, 2]))) == b'[1,"AgI="]'
        assert b"".join(store._column_pieces([65536, 1])) == b'[4,"AAABAAEAAAA="]'
        assert store._unpacked([2, "AQACAf//"]) == array("H", [1, 258, 65535])
        assert store._unpacked([4, "AAABAAEAAAA="]) == array("I", [65536, 1])
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        path = tmp_path / "pinned.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        stored = [document[key] for key in ("row_lengths", "term_ids", "counts")]
        assert stored == [[1, "AgI="], [1, "AAEAAg=="], [1, "AQEBAQ=="]]

    @pytest.mark.parametrize("largest, width", _WIDTH_EDGES, ids=[str(n) for n, _ in _WIDTH_EDGES])
    @pytest.mark.parametrize("column", ["row_lengths", "term_ids", "counts"])
    def test_a_width_edge_is_byte_stable_and_ranks_as_the_build(
        self, tmp_path, column, largest, width
    ):
        built, _ = build_index(_corpus_with_largest(column, largest))
        first, second = tmp_path / "first.idx", tmp_path / "second.idx"
        save_index(built, first)
        document = json.loads(first.read_text(encoding="utf-8"))
        assert document[column][0] == width
        assert max(unpacked_column(document[column])) == largest
        loaded = load_index(first)
        assert loaded.fields[store._LIST_KEYS.index(column) + 1].itemsize == width
        save_index(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded == built
        for tokens in (["kata"], ["w0", "lain"], ["w1", f"w{largest - 1}"], ["w200", "kata"]):
            for scorer in ("cosine", "set"):
                for top_k in (1, None):
                    assert rank(
                        loaded, loaded.vectorize_query(tokens, scorer), top_k=top_k
                    ) == rank(built, built.vectorize_query(tokens, scorer), top_k=top_k)

    @pytest.mark.parametrize("column", ["row_lengths", "term_ids", "counts"])
    def test_an_add_that_widens_a_column_writes_the_bytes_of_a_rebuild(self, tmp_path, column):
        cases = _corpus_with_largest(column, 255)
        new_case = {
            "row_lengths": Case("new", " ".join(f"w{n}" for n in range(256))),
            "term_ids": Case("new", "baru"),
            "counts": Case("new", " ".join(["kata"] * 256)),
        }[column]
        corpus, added, rebuilt = tmp_path / "c.jsonl", tmp_path / "added.idx", tmp_path / "re.idx"
        corpus.write_text(
            "".join(json.dumps({"id": case.id, "title": case.title}) + "\n" for case in cases),
            encoding="utf-8",
        )
        index_argv = ["index", "--input", str(corpus), "--format", "record", "--output"]
        assert main([*index_argv, str(added)]) == EXIT_OK
        assert json.loads(added.read_text(encoding="utf-8"))[column][0] == 1
        add_argv = ["add", "--index", str(added), "--corpus", str(corpus), "--id", new_case.id]
        assert main([*add_argv, "--title", new_case.title]) == EXIT_OK
        assert main([*index_argv, str(rebuilt)]) == EXIT_OK
        assert added.read_bytes() == rebuilt.read_bytes()
        assert json.loads(added.read_text(encoding="utf-8"))[column][0] == 2


@pytest.fixture(scope="module")
def zipf_fields():
    """The stored fields of a 5k-title index from the benchmark's generator."""
    cases, _ = zipf_titles(3, 5000, 1)
    return _build_fields(cases, PreprocessConfig())[0]


def _traced_peak(action) -> int:
    """Peak traced bytes above the start while *action* runs."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemory:
    """Reading and writing an index holds about one copy of the file's text.

    Measured on Python 3.11 at 5k titles (a 0.52 MB file, its count columns
    packed): the reader peaks 1.50 file sizes above a bare parse that holds
    its text, and the writer 1.13 file sizes above its start (the one-shot
    writer, ``_written_once``, 7.42). The parse holds no int lists now, so
    the reader's own copies, the checksum's encoding of the text and the
    unpacked arrays, weigh more against it than the 1.43 of the unpacked
    format did.
    """

    def test_reading_peaks_below_1_75_file_sizes_above_the_parse(self, zipf_fields, tmp_path):
        path = tmp_path / "zipf.idx"
        _write_index(path, *zipf_fields)

        def parse():
            text = path.read_text(encoding="utf-8")
            return json.loads(text), text

        floor = _traced_peak(parse)
        assert _traced_peak(lambda: _read_index(path)) - floor < 1.75 * path.stat().st_size

    def test_writing_peaks_below_2_file_sizes(self, zipf_fields, tmp_path):
        path = tmp_path / "zipf.idx"
        peak = _traced_peak(lambda: _write_index(path, *zipf_fields))
        assert peak < 2 * path.stat().st_size


class TestReadCorpusRecords:
    def test_full_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id":"r1","title":"Sistem Parkir","solution":"sensor","meta":{"tahun":"2020"}}\n'
            '\n'
            '{"id":"r2","title":"Aplikasi Kasir"}\n',
            encoding="utf-8",
        )
        cases = read_corpus(path, "record")
        assert cases == [
            Case(id="r1", title="Sistem Parkir", solution="sensor", meta={"tahun": "2020"}),
            Case(id="r2", title="Aplikasi Kasir"),
        ]

    # a "]" sends the file to the per-line reader, none to the one-parse path
    @pytest.mark.parametrize("title", ["Sistem Parkir", "Sistem [Parkir]"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, title):
        path = tmp_path / "corpus.jsonl"
        text = json.dumps({"id": "r1", "title": title}) + '\n{"id":"r2","title":"Aplikasi"}\n'
        path.write_text(text, encoding="utf-8-sig")
        assert read_corpus(path, "record") == [Case("r1", title), Case("r2", "Aplikasi")]

    def test_invalid_json_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"r1","title":"ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.jsonl:2"):
            read_corpus(path, "record")

    def test_missing_title_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"r1"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="title"):
            read_corpus(path, "record")

    def test_missing_id_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title":"ok"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="id"):
            read_corpus(path, "record")

    def test_meta_must_be_a_flat_string_map(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"r1","title":"ok","meta":{"n":3}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="meta"):
            read_corpus(path, "record")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_corpus(tmp_path / "absent.jsonl", "record")


def _read_outcome(read, *args):
    """What *read* returns, or the message of the DataError it raises."""
    try:
        return read(*args)
    except DataError as exc:
        return f"DataError: {exc}"


def _json_lines(records):
    return records.flatmap(
        lambda record: st.sampled_from([True, False]).map(
            lambda ascii_only: json.dumps(record, ensure_ascii=ascii_only)
        )
    )


# every plane: json.dumps escapes a character beyond the basic one as a
# surrogate pair, \ud83d\ude00 say, which the one-parse reader must accept
_CHARACTERS = st.characters(exclude_categories=("Cs",))
_TEXT = st.text(_CHARACTERS, max_size=3)
_RECORDS = st.fixed_dictionaries(
    {"id": st.text(_CHARACTERS, min_size=1, max_size=3),
     "title": st.text(_CHARACTERS, min_size=1, max_size=4)},
    optional={
        "solution": st.none() | _TEXT,
        "meta": st.dictionaries(_TEXT, _TEXT, max_size=2),
        "x": st.integers(),
    },
)
# what a record field may hold, of its type or not
_FIELD = st.none() | st.integers() | _TEXT | st.dictionaries(_TEXT, _TEXT | st.integers(), max_size=2)
# a valid record with one field set to any value, or a value that is no record
_ODD_RECORDS = _FIELD | st.builds(
    lambda record, key, value: {**record, key: value},
    _RECORDS, st.sampled_from(["id", "title", "solution", "meta"]), _FIELD,
)
# the pieces a one-parse reader could misread: brackets, quotes and backslashes,
# characters str.splitlines breaks at, escapes of a lone surrogate and of a
# plain character, and whole records, so a line may hold more than one value
_FRAGMENTS = st.sampled_from([
    "[", "]", "{", "}", '"', "\\", ",", ":", " ", "\r", "\u2028", "\u0085", "\u00a0",
    "\\ud800", "\\uD83D\\ude00", "\\u00e9", '"id"', '"title"', '"x"', "null", "1",
    '{"id":"a","title":"b"}', '{"id":"c","title":"d","meta":{"k":"v"}}',
])
_ODD_LINES = st.one_of(
    _json_lines(_ODD_RECORDS),
    st.sampled_from(["", "\u00a0", "  ", '{"id":"a","title":"b"} , {"id":"c","title":"d"}']),
    st.lists(_FRAGMENTS, max_size=6).map("".join),
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "corpus.jsonl"


class TestReadCorpusOneParse:
    """The chunked reader gives what the per-line reader gives, cases or error."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        valid=st.lists(_json_lines(_RECORDS), max_size=8),
        odd=st.lists(st.tuples(st.integers(0, 8), _ODD_LINES), max_size=2),
        chunk_lines=st.sampled_from([1, 2, 512]),
    )
    def test_equals_the_per_line_reader(self, corpus_file, valid, odd, chunk_lines):
        lines = list(valid)
        for position, line in odd:
            lines.insert(position, line)
        corpus_file.write_text("\n".join(lines), encoding="utf-8")
        with mock.patch.object(store, "_CHUNK_LINES", chunk_lines):
            chunked = _read_outcome(read_corpus, corpus_file, "record")
        text = corpus_file.read_text(encoding="utf-8")
        assert chunked == _read_outcome(_read_records, corpus_file, text.split("\n"))

    def test_every_field_with_edge_values(self, corpus_file):
        valid = '{"id":"r1","title":"a","solution":"s","meta":{"k":"v"}}'
        values = [*_EDGE_VALUES, {"k": 0}]
        corpora = [[valid, json.dumps(value)] for value in values[1:]]  # no record at all
        for field in ("id", "title", "solution", "meta"):
            for value in values:
                record = json.loads(valid)
                if value is _DELETE:
                    del record[field]
                else:
                    record[field] = value
                corpora.append([valid, json.dumps(record)])
        for lines in corpora:
            corpus_file.write_text("\n".join(lines), encoding="utf-8")
            expected = _read_outcome(_read_records, corpus_file, lines)
            assert _read_outcome(read_corpus, corpus_file, "record") == expected, lines

    def test_a_clean_corpus_never_reaches_the_per_line_reader(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text(
            '{"id":"r1","title":"Sistem Parkir","meta":{"tahun":"2020","kota":"Malang"}}\r\n'
            '\n'
            '{"id":"r2","title":"Aplikasi\u2028Kasir","solution":null,"meta":{}}\r\n'
            '{"id":"r3","title":"Caf\\u00e9 \\\\ [sic","solution":"modul"}\n'
            '{"id":"r4","title":"Emoji \\ud83d\\ude00","meta":{"\\uD83D\\uDE00":"\\ud83d\\ude00"}}\n',
            encoding="utf-8",
        )
        expected = [
            Case("r1", "Sistem Parkir", meta={"tahun": "2020", "kota": "Malang"}),
            Case("r2", "Aplikasi\u2028Kasir", meta={}),
            Case("r3", "Café \\ [sic", solution="modul"),
            # an escaped surrogate pair is one character
            Case("r4", "Emoji \U0001f600", meta={"\U0001f600": "\U0001f600"}),
        ]
        with mock.patch.object(store, "_read_records", side_effect=AssertionError):
            assert read_corpus(path, "record") == expected
        assert _read_records(path, path.read_text(encoding="utf-8").split("\n")) == expected

    @pytest.mark.parametrize("text, reason", [
        # joined with "],[" or "],\n[", these three lines parse as three
        # one-record lists: line 1 adds a list, lines 2 and 3 merge in one
        ('{"id":"a","title":"b"}],[{"id":"c","title":"d"}\n'
         '{"id":"e","title":"x","junk":[[\n'
         "]]}\n", "Extra data"),
        # joined with "],[", one title spans both lines: one list of one record
        ('{"id":"a","title":"b\n'
         'c"}\n', "Unterminated string"),
    ], ids=["brackets", "string"])
    def test_lines_that_join_into_other_lists_fail_at_line_1(self, tmp_path, text, reason):
        path = tmp_path / "split.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"split\.jsonl:1: not a valid record \({reason}"):
            read_corpus(path, "record")

    def test_a_bad_line_in_the_third_chunk_is_named_by_its_line_number(self, tmp_path):
        lines = [json.dumps({"id": f"r{n}", "title": f"judul {n}"}) for n in range(1100)]
        lines[3:3] = ["", "  "]  # blank lines count for line numbers, not chunks
        lines[1091] = '{"id":"r1089","title":""}'
        path = tmp_path / "long.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            read_corpus(path, "record")
        assert str(caught.value) == f"{path}:1092: missing or invalid 'title'"

    def test_a_lone_surrogate_escape_names_the_title(self, tmp_path):
        path = tmp_path / "surrogate.jsonl"
        path.write_text(
            '{"id":"r1","title":"ok"}\n{"id":"r2","title":"x \\ud800"}\n', encoding="utf-8"
        )
        with pytest.raises(DataError) as caught:
            read_corpus(path, "record")
        assert str(caught.value) == f"{path}:2: 'title' is not encodable as UTF-8"

    @pytest.mark.parametrize(
        "record, field",
        [
            ('{"id":"r2 \\udfff","title":"x"}', "id"),
            ('{"id":"r2","title":"x","solution":"\\uDBFF y"}', "solution"),
            ('{"id":"r2","title":"x","meta":{"k\\ud800":"v"}}', "meta"),
            ('{"id":"r2","title":"x","meta":{"k":"\\ud83d"}}', "meta"),
        ],
        ids=["id", "solution", "meta-key", "meta-value"],
    )
    def test_a_lone_surrogate_escape_in_any_field_is_named(self, tmp_path, record, field):
        path = tmp_path / "surrogate.jsonl"
        path.write_text('{"id":"r1","title":"ok"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            read_corpus(path, "record")
        assert str(caught.value) == f"{path}:2: {field!r} is not encodable as UTF-8"


class TestReadCorpusPlain:
    def test_ids_are_one_based_line_numbers(self, tmp_path):
        path = tmp_path / "titles.txt"
        path.write_text("Sistem Parkir\nAplikasi Kasir\n", encoding="utf-8")
        cases = read_corpus(path, "plain")
        assert [(c.id, c.title) for c in cases] == [
            ("1", "Sistem Parkir"),
            ("2", "Aplikasi Kasir"),
        ]

    def test_blank_lines_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "titles.txt"
        path.write_text("Sistem Parkir\n\nAplikasi Kasir\n", encoding="utf-8")
        cases = read_corpus(path, "plain")
        assert [(c.id, c.title) for c in cases] == [
            ("1", "Sistem Parkir"),
            ("2", ""),
            ("3", "Aplikasi Kasir"),
        ]
        # the blank row is excluded at indexing time, visibly
        index, report = build_index(cases)
        assert report.skipped == (("2", "title tokenizes to empty"),)
        assert index.corpus_size == 2

    def test_only_a_line_feed_ends_a_title(self, tmp_path):
        titles = [f"Sistem{char}Parkir" for char in SPLITLINES_BREAKS] + ["Aplikasi Kasir"]
        path = tmp_path / "titles.txt"
        path.write_text("\n".join(titles) + "\n", encoding="utf-8")
        cases = read_corpus(path, "plain")
        assert [(c.id, c.title) for c in cases] == [
            (str(lineno), title) for lineno, title in enumerate(titles, start=1)
        ]

    def test_unknown_format_is_rejected(self, tmp_path):
        path = tmp_path / "titles.txt"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            read_corpus(path, "csv")


class TestAppendCase:
    def test_appended_record_reads_back(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id":"r1","title":"Sistem Parkir"}\n', encoding="utf-8")
        append_case(path, Case(id="r2", title="Aplikasi Kasir", solution="modul kasir"))
        cases = read_corpus(path, "record")
        assert cases[-1] == Case(id="r2", title="Aplikasi Kasir", solution="modul kasir")

    def test_a_record_with_meta_is_written_canonical_and_reads_back(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        case = Case(id="r1", title="Sistem Parkir", meta={"tahun": "2021", "prodi": "TI"})
        append_case(path, case)
        assert path.read_bytes() == (
            b'{"id":"r1","meta":{"prodi":"TI","tahun":"2021"},"title":"Sistem Parkir"}\n'
        )
        assert read_corpus(path, "record") == [case]

    def test_append_repairs_a_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id":"r1","title":"Sistem Parkir"}')
        append_case(path, Case(id="r2", title="Aplikasi Kasir"))
        assert [c.id for c in read_corpus(path, "record")] == ["r1", "r2"]

    def test_append_to_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        append_case(path, Case(id="r1", title="Sistem Parkir"))
        assert path.read_bytes() == b'{"id":"r1","title":"Sistem Parkir"}\n'

    def test_append_to_a_new_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        append_case(path, Case(id="r1", title="Sistem Parkir"))
        assert [c.id for c in read_corpus(path, "record")] == ["r1"]
