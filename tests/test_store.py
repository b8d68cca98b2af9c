"""Index persistence (round trips, rejection of bad files) and corpus I/O."""

from __future__ import annotations

import json
import random

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
)
from cbrsearch.index import _build_fields, _extend_fields, extend_index
from cbrsearch.store import _read_index, _write_index
from conftest import corpus_cases, generate_token_corpus, sealed_index_text


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
        assert loaded.vocabulary == small_index.vocabulary
        assert loaded.documents == small_index.documents
        assert loaded.postings == small_index.postings
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
                extend_index(_read_index(saved), new_case),
            ),
        }
        for step, (fields, index) in steps.items():
            written, expected = tmp_path / f"{step}.fields", tmp_path / f"{step}.idx"
            _write_index(written, *fields)
            save_index(index, expected)
            assert written.read_bytes() == expected.read_bytes(), step
        assert (tmp_path / "loaded.fields").read_bytes() == saved.read_bytes()


def _bump_first_count(text: str) -> str:
    document = json.loads(text)
    document["counts"][0][1] += 1
    return _canonical(document)


def _scale_first_row(text: str) -> str:
    document = json.loads(text)
    document["counts"][0] = [0, 3, 1, 1]
    return _canonical(document)


def _add_stopword(text: str) -> str:
    document = json.loads(text)
    config = PreprocessConfig(stopwords=frozenset({"sistem"}))
    document["preprocess"]["stopwords"] = ["sistem"]
    document["preprocess_fingerprint"] = config.fingerprint()
    return _canonical(document)


def _append_scaled_row_after_checksum(text: str) -> str:
    return text.removesuffix("}\n") + ',"counts":[[0,3,1,1],[0,1,1,1,2,1]]}\n'


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
            ("casefold", "false", True),
            ("casefold", "no", True),
            ("casefold", [1], True),
            ("casefold", 1, True),
            ("min_token_length", 2.9, 2),
            ("min_token_length", "2", 2),
            ("min_token_length", True, 1),
        ],
    )
    def test_config_of_the_wrong_json_type_is_corrupt(self, tmp_path, key, value, saved):
        # the fingerprint still matches: the value means the saved one loosely read
        config = PreprocessConfig(**{key: saved})
        index, _ = build_index([Case("d1", "sistem data"), Case("d2", "aplikasi web")], config)
        path = tmp_path / "config.idx"
        save_index(index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["preprocess"][key] = value
        path.write_text(sealed_index_text(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            (["ids"], 7),
            (["terms"], 7),
            (["ids", 0], ["d1"]),
            (["titles", 0], 7),
            (["terms", 1], "a"),  # term 0 is "a" already
            (["counts", 0, 1], [2]),
            (["counts", 0], [1, 1, 0, 1]),  # the same counts, not ascending
            (["terms"], ["a", "b", "c", "d"]),
            (["preprocess", "stopwords"], [1]),
            (["preprocess", "min_token_length"], 0),
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
        ],
    )
    def test_malformed_field_is_corrupt(self, small_index, tmp_path, field, value):
        path = tmp_path / "mutated.idx"
        save_index(small_index, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        *parents, leaf = field
        target = document
        for key in parents:
            target = target[key]
        target[leaf] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt"):
            load_index(path)


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
