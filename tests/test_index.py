"""Vector-space construction: frequencies, idf, weights, postings, queries."""

from __future__ import annotations

import math
import random
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import DenseOracle
from cbrsearch import (
    Case,
    CaseBase,
    DataError,
    Index,
    PreprocessConfig,
    QueryVector,
    build_index,
    load_index,
    save_index,
    search,
)
from cbrsearch.index import _bitmap, _extend_fields, _fully_derived, _ordinals
from conftest import (
    SAMPLE_TITLES,
    corpus_cases,
    generate_titles,
    generate_token_corpus,
    random_query_tokens,
    row_weights,
    zipf_titles,
)

# log10(3/2) by hand: idf of a term in 2 of 3 documents
IDF_TWO_OF_THREE = 0.17609125905568124
# (1/2) * log10(3/2): weight of a term appearing once in a 2-token document
WEIGHT_HALF_IDF = 0.08804562952784062


@pytest.fixture
def small_index():
    index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "b c")])
    return index


class TestBuildIndex:
    def test_document_frequency_and_idf(self, small_index):
        assert small_index.corpus_size == 3
        for term in ("a", "b", "c"):
            assert len(small_index.postings[small_index.lookup(term)]) == 2
        for ordinal in range(small_index.corpus_size):
            for weight in row_weights(small_index, ordinal).values():  # 1 of 2 tokens
                assert 2 * weight == pytest.approx(IDF_TWO_OF_THREE, rel=1e-12)

    def test_term_in_every_document_weighs_nothing(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "a")])
        for ordinal in range(index.corpus_size):
            assert all(weight == 0.0 for weight in row_weights(index, ordinal).values())

    def test_empty_title_is_skipped_and_reported(self):
        index, report = build_index([Case("d1", ""), Case("d2", "x")])
        assert index.doc_ids == ["d2"]
        assert report.indexed == 1
        assert report.skipped == (("d1", "title tokenizes to empty"),)
        assert report.vocabulary_size == 1

    def test_duplicate_id_is_rejected_naming_the_id(self):
        with pytest.raises(DataError, match="d1"):
            build_index([Case("d1", "a"), Case("d1", "b")])

    def test_zero_indexable_cases_is_rejected(self):
        with pytest.raises(DataError, match="no indexable cases"):
            build_index([Case("d1", "?!"), Case("d2", "  ")])

    def test_term_ids_follow_first_occurrence_order(self):
        index, _ = build_index([Case("d1", "b a"), Case("d2", "c a")])
        assert index.terms == ["b", "a", "c"]

    def test_empty_case_id_is_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            Case("", "a title")


class TestExtendIndex:
    def test_equals_a_build_with_the_case_appended(self, tmp_path):
        rng = random.Random(6061)
        for trial in range(20):
            cases = corpus_cases(generate_token_corpus(rng, max_docs=40, max_vocab=30))
            cases.insert(len(cases) // 2, Case("skipped", "?!"))
            new_case = Case("new", f"kata00 baru{trial} kata01 baru{trial} lain")
            index, _ = build_index(cases)
            columns = [array(column.typecode, column) for column in index.fields[4:]]
            extended = _fully_derived(_extend_fields(index.fields, new_case))
            assert extended == build_index([*cases, new_case])[0]
            assert extended.terms[-2:] == [f"baru{trial}", "lain"]
            # the stored fields are not modified
            assert list(index.fields[4:]) == columns
            save_index(extended, tmp_path / "extended.idx")
            save_index(build_index([*cases, new_case])[0], tmp_path / "built.idx")
            assert (tmp_path / "extended.idx").read_bytes() == (tmp_path / "built.idx").read_bytes()

    def test_refuses_an_empty_title(self, small_index):
        # a taken id is the caller's to refuse: CaseBase.retain and the add command
        with pytest.raises(DataError, match="tokenizes to empty"):
            _fully_derived(_extend_fields(small_index.fields, Case("d4", "?!")))


def _edited(column: array, values: list[int]) -> array:
    return array(column.typecode, values)


# each changes one stored field of (config, terms, ids, titles, row lengths,
# term ids, counts) and leaves the others as they are; an edited column keeps
# its typecode, so only its values differ
ONE_FIELD_EDITS = {
    "config": lambda c, t, i, ti, *r: (PreprocessConfig(min_token_length=2), t, i, ti, *r),
    "term": lambda c, t, i, ti, *r: (c, [t[0] + "x", *t[1:]], i, ti, *r),
    "id": lambda c, t, i, ti, *r: (c, t, ["other", *i[1:]], ti, *r),
    "title": lambda c, t, i, ti, *r: (c, t, i, [ti[0] + " lagi", *ti[1:]], *r),
    "row-length": lambda c, t, i, ti, n, r, k: (
        c, t, i, ti, _edited(n, [n[0] - 1, n[1] + 1, *n[2:]]), r, k
    ),
    "term-id": lambda c, t, i, ti, n, r, k: (
        c, t, i, ti, n, _edited(r, [*r[:-2], r[-1], r[-2]]), k
    ),
    "count": lambda c, t, i, ti, n, r, k: (c, t, i, ti, n, r, _edited(k, [k[0] + 1, *k[1:]])),
}


# the ways an index comes to be: each must hold, and derive from, the same fields
SOURCES = ["built", "loaded", "extended", "retained"]


class TestIndexIsItsFields:
    """Equality compares the stored fields, since every other table is derived from them."""

    @pytest.mark.parametrize("edit", ONE_FIELD_EDITS.values(), ids=ONE_FIELD_EDITS.keys())
    def test_an_index_with_one_field_edited_is_unequal(self, small_index, edit):
        assert Index(edit(*small_index.fields)) != small_index

    @staticmethod
    def _index(source: str, tmp_path) -> Index:
        """An index over a corpus with a skipped case, built, loaded, extended or retained."""
        cases = corpus_cases(generate_token_corpus(random.Random(6071), max_docs=40, max_vocab=30))
        cases.insert(5, Case("skipped", "?!"))
        new_case = Case("new", "kata00 baru kata01 lain")
        saved = tmp_path / "saved.idx"
        save_index(build_index(cases)[0], saved)
        return {
            "built": lambda: build_index(cases)[0],
            "loaded": lambda: load_index(saved),
            "extended": lambda: _fully_derived(_extend_fields(load_index(saved).fields, new_case)),
            "retained": lambda: CaseBase(cases).retain(new_case).index,
        }[source]()

    @pytest.mark.parametrize("source", SOURCES)
    def test_it_holds_its_stored_fields_not_copies(self, tmp_path, source):
        index = self._index(source, tmp_path)
        assert index.terms is index.fields[1]
        assert index.doc_ids is index.fields[2]
        assert index.titles is index.fields[3]
        assert not hasattr(index, "vocabulary")

    @pytest.mark.parametrize("source", SOURCES)
    def test_its_fields_derive_every_table_bit_for_bit(self, tmp_path, source):
        index = self._index(source, tmp_path)
        again = Index(index.fields)
        again._derive(range(len(again.postings)))
        if source == "loaded":  # a loaded index derives a term on first use
            index._derive(range(len(index.postings)))
        assert again == index
        for table in ("postings", "posting_weights"):
            rows = [(a.typecode, a.tobytes()) for a in getattr(again, table)]
            assert rows == [(a.typecode, a.tobytes()) for a in getattr(index, table)], table
        bits = array("d", again.ordinal_norms).tobytes()
        assert bits == array("d", index.ordinal_norms).tobytes()
        assert again.length_bits() == index.length_bits()
        assert _bits(again._idf) == _bits(index._idf)


# corpora a loaded index is checked against a build on
LAZY_CORPORA = {
    "sample": lambda: [Case(str(n), title) for n, title in enumerate(SAMPLE_TITLES)],
    "titles": lambda: [Case(str(n), t) for n, t in enumerate(generate_titles(random.Random(17), 90))],
    "tokens": lambda: corpus_cases(generate_token_corpus(random.Random(23))),
    "zipf-2k": lambda: zipf_titles(7, 2000, 1)[0],
}


def _bits(values) -> tuple[str, bytes]:
    values = values if isinstance(values, array) else array("d", values)
    return values.typecode, values.tobytes()


class TestDeriveOnFirstUse:
    """A loaded index derives a term's tables on first use, equal to a build's bit for bit."""

    @staticmethod
    def _loaded_and_built(tmp_path, cases):
        built, _ = build_index(cases)
        save_index(built, tmp_path / "saved.idx")
        return load_index(tmp_path / "saved.idx"), built

    @pytest.mark.parametrize("corpus", LAZY_CORPORA.values(), ids=LAZY_CORPORA.keys())
    def test_one_term_at_a_time_equals_a_build(self, tmp_path, corpus):
        loaded, built = self._loaded_and_built(tmp_path, corpus())
        terms = len(built.postings)
        assert loaded.postings == loaded.posting_weights == [None] * terms
        assert loaded.ordinal_norms == [None] * loaded.corpus_size
        assert None not in built.postings and None not in built.ordinal_norms
        order = list(range(terms))
        random.Random(terms).shuffle(order)
        for tid in order:
            loaded._derive([tid])
            ordinals = loaded.postings[tid]
            assert _bits(ordinals) == _bits(built.postings[tid])
            assert _bits(loaded.posting_weights[tid]) == _bits(built.posting_weights[tid])
            norms = _bits(map(loaded.ordinal_norms.__getitem__, ordinals))
            assert norms == _bits(map(built.ordinal_norms.__getitem__, ordinals))
        assert _bits(loaded.ordinal_norms) == _bits(built.ordinal_norms)

    def test_impacts_derive_what_they_read(self, tmp_path):
        loaded, built = self._loaded_and_built(tmp_path, LAZY_CORPORA["titles"]())
        assert loaded.postings == [None] * len(built.postings)
        for tid, ordinals in enumerate(built.postings):
            assert len(ordinals) < built.corpus_size  # no term of idf 0, so every term is read
            for mine, theirs in zip(loaded.impacts(tid), built.impacts(tid)):
                assert _bits(mine) == _bits(theirs)
        assert _bits(loaded.ordinal_norms) == _bits(built.ordinal_norms)

    def test_concurrent_readers_of_a_fresh_load_rank_as_a_build(self, tmp_path):
        cases, pool = zipf_titles(11, 2000, 16)
        loaded, built = self._loaded_and_built(tmp_path, cases)
        expected = [search(built, q.text, scorer=q.scorer, top_k=10) for q in pool]
        results: dict[int, object] = {}
        start = threading.Barrier(8)

        def reader(first: int) -> None:
            start.wait()
            for n in range(first, len(pool), 8):
                query = pool[n]
                results[n] = search(loaded, query.text, scorer=query.scorer, top_k=10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            threads = [threading.Thread(target=reader, args=(first,)) for first in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [results[n] for n in range(len(pool))] == expected


class TestPostingBits:
    """A term's posting bitmap holds exactly its postings, and is cached."""

    # every document holds a term, so some bitmap sets the last byte's bits
    @pytest.mark.parametrize("size", range(1, 18))
    def test_its_set_bits_are_its_postings(self, size):
        rng = random.Random(size)
        words = ["satu", "dua", "tiga", "empat", "lima"]
        cases = [Case(str(n), " ".join(rng.sample(words, rng.randint(1, 3)))) for n in range(size)]
        built, _ = build_index(cases)
        twin, _ = build_index(cases)
        fresh = Index(built.fields)  # nothing derived, as a load is
        for tid, ordinals in enumerate(built.postings):
            bits = built.posting_bits(tid)
            assert [o for o in range(bits.bit_length()) if bits >> o & 1] == list(ordinals)
            assert built.posting_bits(tid) is bits
            assert fresh.posting_bits(tid) == bits
        assert built == twin == fresh  # the cache is not part of an index's value

    # above 96 documents a term in a few of them is below the cut
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(size=st.integers(min_value=97, max_value=400).filter(lambda n: n % 8), seed=st.integers())
    def test_only_bitmaps_no_bigger_than_their_postings_are_cached(self, size, seed):
        rng = random.Random(seed)
        words = [f"kata{n}" for n in range(60)]
        rows = [set(rng.choices(words, weights=range(60, 0, -1), k=4)) for _ in range(size)]
        index, _ = build_index([Case(str(n), " ".join(row)) for n, row in enumerate(rows)])
        for word in words:
            search(index, word, scorer="set")
        rare = 0
        for tid, term in enumerate(index.terms):
            # a bitmap of corpus_size / 8 bytes against 4 + 8 bytes a posting
            cached = len(index.postings[tid]) * 96 >= size
            assert (tid in index._bits) == cached
            rare += not cached
            # the digits of the ordinals holding the term, the highest first
            digits = "".join("1" if term in row else "0" for row in reversed(rows))
            assert index.posting_bits(tid) == int(digits, 2)
        assert 0 < rare < len(index.terms)
        for length, bits in index.length_bits().items():
            assert bits == int("".join("01"[len(row) == length] for row in reversed(rows)), 2)
        assert set(index.length_bits()) == {len(row) for row in rows}


def _digit_bitmap(ordinals, size: int) -> int:
    """The reference bitmap: one binary digit per ordinal below *size*, the highest first."""
    chosen = set(ordinals)
    return int("".join("01"[o in chosen] for o in reversed(range(size))), 2)


class TestBitmap:
    """The one bitmap builder, :func:`_bitmap`, and its decoder, :func:`_ordinals`."""

    # ordinals 0 and 7 share the first byte, 8 opens the second and 99,999 is
    # the top bit; from 4 set bits to one in two
    @pytest.mark.parametrize("count", [4, 800, 12_500, 50_000])
    def test_builds_and_decodes_as_the_digits_do(self, count):
        size = 100_000
        middle = random.Random(count).sample(range(9, size - 1), count - 4)
        ordinals = [0, 7, 8, size - 1, *middle]
        bits = _bitmap(ordinals, size)
        assert bits == _digit_bitmap(ordinals, size)
        assert bits.bit_length() == size and bits.bit_count() == count
        assert _ordinals(bits) == sorted(ordinals, reverse=True)

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 9, 95, 97, 100, 191, 193, 1001])
    def test_no_ordinals_and_all_ordinals(self, size):
        assert _bitmap([], size) == 0
        assert _bitmap(range(size), size) == (1 << size) - 1
        assert _bitmap(range(size - 1, -1, -1), size) == (1 << size) - 1

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(min_value=1, max_value=700).flatmap(
            lambda size: st.tuples(st.just(size), st.sets(st.integers(0, size - 1)))
        )
    )
    def test_the_decoder_reads_back_the_ordinals_highest_first(self, case):
        size, ordinals = case
        bits = _bitmap(list(ordinals), size)
        assert bits == _digit_bitmap(ordinals, size)
        assert _ordinals(bits) == sorted(ordinals, reverse=True)

    def test_a_rare_row_length_is_set_bit_by_bit(self):
        # 203 documents: the first and the last hold one term, one in the middle
        # three and the rest two, so two lengths are held by fewer than 203 / 96
        # documents; every length's bitmap is cached, however rare
        titles = ["kata"] + ["satu dua"] * 100 + ["satu dua tiga"] + ["dua satu"] * 100 + ["lima"]
        index, _ = build_index([Case(str(n), title) for n, title in enumerate(titles)])
        rows = [set(title.split()) for title in titles]
        expected = {
            length: _digit_bitmap([o for o, row in enumerate(rows) if len(row) == length], 203)
            for length in (1, 2, 3)
        }
        assert sum(bits.bit_count() * 96 < 203 for bits in expected.values()) == 2
        assert index.length_bits() == expected
        assert Index(index.fields).length_bits() == expected


class TestTermFrequency:
    """The in-document frequency, a raw count over the token total, in the weights."""

    def test_repeated_term(self):
        index, _ = build_index([Case("d1", "a b a"), Case("d2", "c")])
        tid = index.lookup("a")
        assert row_weights(index, 0)[tid] == (2 / 3) * math.log10(2)

    def test_absent_term_is_zero(self):
        index, _ = build_index([Case("d1", "a b a"), Case("d2", "z")])
        tid = index.lookup("z")
        assert tid not in row_weights(index, 0)
        assert index.dot(0, {tid: 1.0}) == 0.0

    def test_single_token_document(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "b")])
        tid = index.lookup("a")
        assert row_weights(index, 0)[tid] == 1.0 * math.log10(2)


class TestInverseDocumentFrequency:
    def test_two_of_three_documents(self, small_index):
        # "a" is 1 of the 2 tokens of "d1", ordinal 0
        weight = row_weights(small_index, 0)[small_index.lookup("a")]
        assert weight / (1 / 2) == pytest.approx(IDF_TWO_OF_THREE, rel=1e-12)

    def test_term_in_every_document_is_zero(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "a d")])
        tid = index.lookup("a")
        assert [row_weights(index, ordinal)[tid] for ordinal in range(3)] == [0.0] * 3
        assert list(index.posting_weights[tid]) == [0.0] * 3


class TestTfidfWeight:
    def test_hand_computed_weight(self, small_index):
        weight = row_weights(small_index, 0)[small_index.lookup("a")]
        assert weight == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)

    def test_equals_the_stored_vector_entry(self, small_index):
        tid = small_index.lookup("a")
        stored = row_weights(small_index, 0)[tid]
        assert (1 / 2) * math.log10(3 / 2) == stored == small_index.posting_weights[tid][0]

    def test_zero_idf_means_zero_weight_regardless_of_tf(self):
        index, _ = build_index([Case("d1", "a a a b"), Case("d2", "a c")])
        tid = index.lookup("a")
        assert dict(zip(*index._row(0)))[tid] == 3
        assert row_weights(index, 0)[tid] == 0.0

    def test_term_absent_from_document_is_zero(self, small_index):
        tid = small_index.lookup("c")
        assert tid not in row_weights(small_index, 0)
        assert 0 not in small_index.postings[tid]


# a few words, and a corpus that may hold "semua" in every title; a query
# may hold "semua", its idf 0 or unseen, and "baru", never indexed
_WORDS = ["a", "b", "c", "d", "e"]


@st.composite
def _corpus_and_tokens(draw):
    title = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)
    titles = draw(st.lists(title, min_size=1, max_size=12))
    if draw(st.booleans()):
        titles = [title + ["semua"] for title in titles]
    return titles, draw(st.lists(st.sampled_from(_WORDS + ["semua", "baru"]), max_size=6))


class TestVectorizeQuery:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=_corpus_and_tokens())
    def test_every_query_is_one_ranking_can_score(self, drawn):
        # what ranking takes for granted of a query, and never checks
        titles, tokens = drawn
        index, _ = build_index([Case(str(n), " ".join(title)) for n, title in enumerate(titles)])
        for scorer in ("cosine", "set"):
            query = index.vectorize_query(tokens, scorer)
            for tid, weight in query.weights.items():
                assert 0 <= tid < len(index.terms)
                assert math.isfinite(weight) and weight > 0.0
                if scorer == "set":
                    assert weight == 1.0
                else:
                    assert index._idf[tid] > 0.0
                    assert all(index.ordinal_norms[o] > 0.0 for o in index.postings[tid])
            kept = {index.terms[tid] for tid in query.weights}
            assert kept | set(query.dropped_terms) == set(tokens)

    def test_own_title_tokens_point_along_the_document_vector(self, small_index):
        query = small_index.vectorize_query(["a", "b"])
        assert query.weights == row_weights(small_index, 0)

    def test_unseen_tokens_drop_to_the_report(self, small_index):
        query = small_index.vectorize_query(["zzz"])
        assert query.weights == {}
        assert query.dropped_terms == ("zzz",)

    def test_mixed_query_keeps_the_known_component(self, small_index):
        query = small_index.vectorize_query(["a", "zzz"])
        tid = small_index.lookup("a")
        assert set(query.weights) == {tid}
        assert query.weights[tid] == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)
        assert query.dropped_terms == ("zzz",)

    def test_zero_idf_tokens_are_dropped_too(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b"])
        assert query.dropped_terms == ("a",)
        assert set(query.weights) == {index.lookup("b")}

    def test_term_set_query_keeps_zero_idf_terms(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b", "b", "qq"], "set")
        assert query.weights == {
            index.lookup("a"): 1.0,
            index.lookup("b"): 1.0,
        }
        assert query.dropped_terms == ("qq",)
        assert query.scorer == "set"

    def test_unknown_scorer_is_rejected(self, small_index):
        with pytest.raises(ValueError, match="scorer"):
            small_index.vectorize_query(["a"], "bm25")


class TestIndexInvariants:
    """Structural properties over random corpora."""

    def _random_indexes(self, count=10, seed=4021):
        rng = random.Random(seed)
        for _ in range(count):
            doc_tokens = generate_token_corpus(rng, max_docs=60, max_tokens=20, max_vocab=30)
            index, _ = build_index(corpus_cases(doc_tokens))
            yield doc_tokens, index

    def test_term_frequencies_of_a_document_sum_to_one(self):
        checked = 0
        for _, index in self._random_indexes():
            idf = [math.log10(index.corpus_size / len(ordinals)) for ordinals in index.postings]
            for ordinal in range(index.corpus_size):
                weights = row_weights(index, ordinal)  # weight = tf * idf
                if all(idf[tid] for tid in weights):  # idf 0 hides a term's tf
                    total = sum(weight / idf[tid] for tid, weight in weights.items())
                    assert abs(total - 1.0) <= 1e-12
                    checked += 1
        assert checked > 300

    def test_idf_stays_within_bounds(self):
        for _, index in self._random_indexes():
            upper = math.log10(index.corpus_size)
            for ordinal in range(index.corpus_size):
                tids, counts = index._row(ordinal)
                weights = row_weights(index, ordinal)  # weight = tf * idf
                for tid, count in zip(tids, counts):
                    tf = count / sum(counts)
                    assert 0.0 <= weights[tid] <= tf * upper + 1e-15

    def test_postings_match_raw_counts_exactly(self):
        for _, index in self._random_indexes():
            rows = [dict(zip(*index._row(ordinal))) for ordinal in range(index.corpus_size)]
            assert len(index.posting_weights) == len(index.postings)
            for tid, ordinals in enumerate(index.postings):
                ordinals = list(ordinals)
                weights = list(index.posting_weights[tid])
                assert len(weights) == len(ordinals)
                for ordinal, weight in zip(ordinals, weights):
                    assert row_weights(index, ordinal)[tid] == weight
                counted = [ordinal for ordinal, row in enumerate(rows) if row.get(tid, 0) > 0]
                assert ordinals == counted  # ascending, and every holder once

    def test_dot_is_the_ascending_sum_of_query_times_posted_weights(self):
        rng = random.Random(6174)
        checked = 0
        for doc_tokens, index in self._random_indexes(seed=1729):
            index._derive(range(len(index.terms)))
            posted = {
                (ordinal, tid): weight
                for tid, ordinals in enumerate(index.postings)
                for ordinal, weight in zip(ordinals, index.posting_weights[tid])
            }
            queries = [
                index.vectorize_query(random_query_tokens(rng, doc_tokens), scorer)
                for scorer in ("cosine", "set")
                for _ in range(4)
            ]
            for _ in range(4):  # hand-built, and not keyed in ascending order
                tids = rng.sample(range(len(index.terms)), rng.randint(1, 6))
                queries.append(QueryVector({tid: rng.uniform(0.0, 3.0) for tid in tids}))
            for query in queries:
                for ordinal in range(index.corpus_size):
                    expected = 0.0
                    for tid in sorted(query.weights):
                        if (ordinal, tid) in posted:
                            expected += query.weights[tid] * posted[ordinal, tid]
                            checked += 1
                    assert index.dot(ordinal, query.weights).hex() == expected.hex()
        assert checked > 1000

    def test_row_weights_are_the_posted_weights_and_filter_to_only(self):
        rng = random.Random(1089)
        for _, index in self._random_indexes():
            posted: dict[int, dict[int, float]] = {}
            for tid, ordinals in enumerate(index.postings):
                for ordinal, weight in zip(ordinals, index.posting_weights[tid]):
                    posted.setdefault(ordinal, {})[tid] = weight
            for ordinal in range(index.corpus_size):
                weights = row_weights(index, ordinal)
                assert list(weights) == sorted(posted[ordinal])
                assert _bits(weights.values()) == _bits(map(posted[ordinal].get, weights))
                only = set(rng.sample(range(len(index.terms)), 5))
                expected = 0.0
                for tid, weight in weights.items():
                    if tid in only:
                        expected += weight
                assert index.dot(ordinal, dict.fromkeys(only, 1.0)).hex() == expected.hex()

    def test_stored_norms_match_recomputation(self):
        for _, index in self._random_indexes():
            for ordinal in range(index.corpus_size):
                weights = row_weights(index, ordinal)
                recomputed = math.sqrt(sum(w * w for w in weights.values()))
                stored = index.ordinal_norms[ordinal]
                assert abs(stored - recomputed) <= 1e-12 * max(stored, recomputed, 1e-300)
                assert index.length_bits()[len(weights)] >> ordinal & 1

    def test_weights_match_a_dense_recomputation(self):
        for doc_tokens, index in self._random_indexes():
            oracle = DenseOracle(doc_tokens)
            for ordinal, doc_id in enumerate(index.doc_ids):
                dense = dict(zip(oracle.vocab, oracle.doc_vectors[doc_id]))
                for tid, weight in row_weights(index, ordinal).items():
                    expected = dense[index.terms[tid]]
                    assert abs(weight - expected) <= 1e-12 * max(abs(weight), abs(expected), 1e-300)

    def test_rebuilding_from_the_same_cases_is_identical(self, tmp_path):
        rng = random.Random(77)
        doc_tokens = generate_token_corpus(rng, max_docs=40, max_tokens=15, max_vocab=25)
        cases = corpus_cases(doc_tokens)
        config = PreprocessConfig()
        first, _ = build_index(cases, config)
        second, _ = build_index(cases, config)
        assert first == second
        first_path, second_path = tmp_path / "first.idx", tmp_path / "second.idx"
        save_index(first, first_path)
        save_index(second, second_path)
        assert first_path.read_bytes() == second_path.read_bytes()
