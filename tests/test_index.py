"""Vector-space construction: frequencies, idf, weights, postings, queries."""

from __future__ import annotations

import math
import random
import sys
import threading
from array import array

import pytest

from brute import DenseOracle
from cbrsearch import (
    Case,
    CaseBase,
    DataError,
    Index,
    PreprocessConfig,
    QueryVector,
    build_index,
    cosine_similarity,
    load_index,
    save_index,
    search,
)
from cbrsearch.index import extend_index
from conftest import (
    SAMPLE_TITLES,
    corpus_cases,
    generate_titles,
    generate_token_corpus,
    random_query_tokens,
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
    def test_document_frequencies_and_idf(self, small_index):
        assert small_index.corpus_size == 3
        vocabulary = small_index.vocabulary
        for term in ("a", "b", "c"):
            assert vocabulary.document_frequencies[vocabulary.lookup(term)] == 2
        for doc in small_index.documents.values():
            for weight in doc.weights.values():  # each term is 1 of 2 tokens
                assert 2 * weight == pytest.approx(IDF_TWO_OF_THREE, rel=1e-12)

    def test_term_in_every_document_weighs_nothing(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "a")])
        for doc in index.documents.values():
            assert all(weight == 0.0 for weight in doc.weights.values())

    def test_empty_title_is_skipped_and_reported(self):
        index, report = build_index([Case("d1", ""), Case("d2", "x")])
        assert list(index.documents) == ["d2"]
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
        assert index.vocabulary.terms == ("b", "a", "c")

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
            columns = [list(column) for column in index.fields[4:]]
            extended = extend_index(index.fields, new_case)
            assert extended == build_index([*cases, new_case])[0]
            assert extended.vocabulary.terms[-2:] == (f"baru{trial}", "lain")
            # the stored fields are not modified
            assert list(index.fields[4:]) == columns
            save_index(extended, tmp_path / "extended.idx")
            save_index(build_index([*cases, new_case])[0], tmp_path / "built.idx")
            assert (tmp_path / "extended.idx").read_bytes() == (tmp_path / "built.idx").read_bytes()

    def test_refuses_a_duplicate_id_and_an_empty_title(self, small_index):
        with pytest.raises(DataError, match="duplicate case id: 'd2'"):
            extend_index(small_index.fields, Case("d2", "x"))
        with pytest.raises(DataError, match="tokenizes to empty"):
            extend_index(small_index.fields, Case("d4", "?!"))


# each changes one stored field of (config, terms, ids, titles, row lengths,
# term ids, counts) and leaves the others as they are
ONE_FIELD_EDITS = {
    "config": lambda c, t, i, ti, *r: (PreprocessConfig(min_token_length=2), t, i, ti, *r),
    "term": lambda c, t, i, ti, *r: (c, [t[0] + "x", *t[1:]], i, ti, *r),
    "id": lambda c, t, i, ti, *r: (c, t, ["other", *i[1:]], ti, *r),
    "title": lambda c, t, i, ti, *r: (c, t, i, [ti[0] + " lagi", *ti[1:]], *r),
    "row-length": lambda c, t, i, ti, n, r, k: (c, t, i, ti, [n[0] - 1, n[1] + 1, *n[2:]], r, k),
    "term-id": lambda c, t, i, ti, n, r, k: (c, t, i, ti, n, [*r[:-2], r[-1], r[-2]], k),
    "count": lambda c, t, i, ti, n, r, k: (c, t, i, ti, n, r, [k[0] + 1, *k[1:]]),
}


class TestIndexIsItsFields:
    """Equality compares the stored fields, since every other table is derived from them."""

    @pytest.mark.parametrize("edit", ONE_FIELD_EDITS.values(), ids=ONE_FIELD_EDITS.keys())
    def test_an_index_with_one_field_edited_is_unequal(self, small_index, edit):
        assert Index(edit(*small_index.fields)) != small_index

    @pytest.mark.parametrize("source", ["built", "loaded", "extended", "retained"])
    def test_its_fields_derive_every_table_bit_for_bit(self, tmp_path, source):
        cases = corpus_cases(generate_token_corpus(random.Random(6071), max_docs=40, max_vocab=30))
        cases.insert(5, Case("skipped", "?!"))
        new_case = Case("new", "kata00 baru kata01 lain")
        saved = tmp_path / "saved.idx"
        save_index(build_index(cases)[0], saved)
        index = {
            "built": lambda: build_index(cases)[0],
            "loaded": lambda: load_index(saved),
            "extended": lambda: extend_index(load_index(saved).fields, new_case),
            "retained": lambda: CaseBase(cases).retain(new_case).index,
        }[source]()
        again = Index(index.fields)
        again._derive(range(len(again.postings)))
        if source == "loaded":  # a loaded index derives a term on first use
            index._derive(range(len(index.postings)))
        assert again == index
        for table in ("postings", "posting_weights"):
            rows = [(a.typecode, a.tobytes()) for a in getattr(again, table)]
            assert rows == [(a.typecode, a.tobytes()) for a in getattr(index, table)], table
        for table in ("ordinal_norms", "ordinal_set_norms"):
            bits = array("d", getattr(again, table)).tobytes()
            assert bits == array("d", getattr(index, table)).tobytes(), table
        assert again.vocabulary.document_frequencies == index.vocabulary.document_frequencies


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

    def test_every_view_derives_what_it_reads(self, tmp_path):
        loaded, built = self._loaded_and_built(tmp_path, LAZY_CORPORA["titles"]())
        assert loaded.documents == built.documents
        assert loaded.postings == [None] * len(built.postings)  # nothing above derived
        for tid, df in enumerate(built.vocabulary.document_frequencies):
            if df < built.corpus_size:
                assert _bits(loaded.term_ratios(tid)) == _bits(built.term_ratios(tid))
        fresh = load_index(tmp_path / "saved.idx")
        assert fresh.norms == built.norms

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


class TestTermFrequency:
    def test_repeated_term(self):
        index, _ = build_index([Case("d1", "a b a"), Case("d2", "c")])
        assert index.term_frequency("a", "d1") == 2 / 3

    def test_absent_term_is_zero(self):
        index, _ = build_index([Case("d1", "a b a"), Case("d2", "z")])
        assert index.term_frequency("z", "d1") == 0.0

    def test_single_token_document(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "b")])
        assert index.term_frequency("a", "d1") == 1.0

    def test_unknown_document_is_a_lookup_error(self, small_index):
        with pytest.raises(KeyError, match="d99"):
            small_index.term_frequency("a", "d99")


class TestInverseDocumentFrequency:
    def test_two_of_three_documents(self, small_index):
        weight = small_index.documents["d1"].weights[small_index.vocabulary.lookup("a")]
        assert weight / small_index.term_frequency("a", "d1") == pytest.approx(
            IDF_TWO_OF_THREE, rel=1e-12
        )

    def test_term_in_every_document_is_zero(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "a d")])
        tid = index.vocabulary.lookup("a")
        assert [doc.weights[tid] for doc in index.documents.values()] == [0.0] * 3


class TestTfidfWeight:
    def test_hand_computed_weight(self, small_index):
        weight = small_index.documents["d1"].weights[small_index.vocabulary.lookup("a")]
        assert weight == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)

    def test_equals_the_stored_vector_entry(self, small_index):
        tid = small_index.vocabulary.lookup("a")
        stored = small_index.documents["d1"].weights[tid]
        assert small_index.term_frequency("a", "d1") * math.log10(3 / 2) == stored

    def test_zero_idf_means_zero_weight_regardless_of_tf(self):
        index, _ = build_index([Case("d1", "a a a b"), Case("d2", "a c")])
        assert index.term_frequency("a", "d1") > 0
        assert index.documents["d1"].weights[index.vocabulary.lookup("a")] == 0.0

    def test_term_absent_from_document_is_zero(self, small_index):
        assert small_index.term_frequency("c", "d1") == 0.0
        assert small_index.vocabulary.lookup("c") not in small_index.documents["d1"].weights


class TestVectorizeQuery:
    def test_own_title_tokens_point_along_the_document_vector(self, small_index):
        query = small_index.vectorize_query(["a", "b"])
        doc = small_index.documents["d1"]
        assert cosine_similarity(query.weights, doc.weights) == pytest.approx(1.0, abs=1e-12)

    def test_unseen_tokens_drop_to_the_report(self, small_index):
        query = small_index.vectorize_query(["zzz"])
        assert query.weights == {}
        assert query.dropped_terms == ("zzz",)

    def test_mixed_query_keeps_the_known_component(self, small_index):
        query = small_index.vectorize_query(["a", "zzz"])
        tid = small_index.vocabulary.lookup("a")
        assert set(query.weights) == {tid}
        assert query.weights[tid] == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)
        assert query.dropped_terms == ("zzz",)

    def test_zero_idf_tokens_are_dropped_too(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b"])
        assert query.dropped_terms == ("a",)
        assert set(query.weights) == {index.vocabulary.lookup("b")}

    def test_term_set_query_keeps_zero_idf_terms(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b", "b", "qq"], "set")
        assert query.weights == {
            index.vocabulary.lookup("a"): 1.0,
            index.vocabulary.lookup("b"): 1.0,
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

    def test_in_document_frequencies_sum_to_one(self):
        for _, index in self._random_indexes():
            for doc_id, doc in index.documents.items():
                total = sum(
                    index.term_frequency(index.vocabulary.term(tid), doc_id)
                    for tid in doc.raw_counts
                )
                assert abs(total - 1.0) <= 1e-12

    def test_idf_stays_within_bounds(self):
        for _, index in self._random_indexes():
            upper = math.log10(index.corpus_size)
            for doc in index.documents.values():
                for tid, weight in doc.weights.items():  # weight = tf * idf
                    tf = doc.raw_counts[tid] / doc.token_total
                    assert 0.0 <= weight <= tf * upper + 1e-15

    def test_postings_match_raw_counts_exactly(self):
        for _, index in self._random_indexes():
            assert list(index.doc_ids) == list(index.documents)
            assert len(index.posting_weights) == len(index.postings)
            for tid, ordinals in enumerate(index.postings):
                ordinals = list(ordinals)
                weights = list(index.posting_weights[tid])
                assert len(weights) == len(ordinals)
                posted = {index.doc_ids[ordinal] for ordinal in ordinals}
                for ordinal, weight in zip(ordinals, weights):
                    assert index.documents[index.doc_ids[ordinal]].weights[tid] == weight
                counted = {
                    doc_id
                    for doc_id, doc in index.documents.items()
                    if doc.raw_counts.get(tid, 0) > 0
                }
                assert posted == counted
                assert ordinals == sorted(set(ordinals))

    def test_dot_is_the_ascending_sum_of_query_times_posted_weights(self):
        rng = random.Random(6174)
        checked = 0
        for doc_tokens, index in self._random_indexes(seed=1729):
            index._derive(range(len(index.vocabulary)))
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
                tids = rng.sample(range(len(index.vocabulary)), rng.randint(1, 6))
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

    def test_row_weights_are_the_document_weights_and_filter_to_only(self):
        rng = random.Random(1089)
        for _, index in self._random_indexes():
            for ordinal, doc_id in enumerate(index.doc_ids):
                weights = index._row_weights(ordinal)
                assert _bits(weights.values()) == _bits(index.documents[doc_id].weights.values())
                assert list(weights) == list(index.documents[doc_id].weights)
                only = set(rng.sample(range(len(index.vocabulary)), 5))
                assert index._row_weights(ordinal, only) == {
                    tid: weight for tid, weight in weights.items() if tid in only
                }

    def test_stored_norms_match_recomputation(self):
        for _, index in self._random_indexes():
            for doc_id, doc in index.documents.items():
                recomputed = math.sqrt(sum(w * w for w in doc.weights.values()))
                stored = index.norms[doc_id]
                assert abs(stored - recomputed) <= 1e-12 * max(stored, recomputed, 1e-300)
            for ordinal, doc_id in enumerate(index.doc_ids):
                assert index.ordinal_norms[ordinal] == index.norms[doc_id]
                distinct = len(index.documents[doc_id].raw_counts)
                assert index.ordinal_set_norms[ordinal] == math.sqrt(distinct)

    def test_weights_match_a_dense_recomputation(self):
        for doc_tokens, index in self._random_indexes():
            oracle = DenseOracle(doc_tokens)
            for doc_id, doc in index.documents.items():
                dense = dict(zip(oracle.vocab, oracle.doc_vectors[doc_id]))
                for tid, weight in doc.weights.items():
                    expected = dense[index.vocabulary.term(tid)]
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
