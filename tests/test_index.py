"""Vector-space construction: frequencies, idf, weights, postings, queries."""

from __future__ import annotations

import math
import random

import pytest

from brute import DenseOracle
from cbrsearch import (
    Case,
    DataError,
    PreprocessConfig,
    TermNotIndexed,
    build_index,
    cosine_similarity,
    save_index,
)
from cbrsearch.index import extend_index
from conftest import generate_token_corpus, corpus_cases

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
        for term in ("a", "b", "c"):
            assert small_index.vocabulary.document_frequency(term) == 2
            assert small_index.inverse_document_frequency(term) == pytest.approx(
                IDF_TWO_OF_THREE, rel=1e-12
            )

    def test_term_in_every_document_weighs_nothing(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "a")])
        assert index.inverse_document_frequency("a") == 0.0
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
    @staticmethod
    def _fields(index):
        return (
            index.config,
            index.vocabulary.terms,
            index.doc_ids,
            index.titles.values(),
            index.count_rows,
        )

    def test_equals_a_build_with_the_case_appended(self, tmp_path):
        rng = random.Random(6061)
        for trial in range(20):
            cases = corpus_cases(generate_token_corpus(rng, max_docs=40, max_vocab=30))
            cases.insert(len(cases) // 2, Case("skipped", "?!"))
            new_case = Case("new", f"kata00 baru{trial} kata01 baru{trial} lain")
            index, _ = build_index(cases)
            rows = [list(row) for row in index.count_rows]
            extended = extend_index(*self._fields(index), new_case)
            assert extended == build_index([*cases, new_case])[0]
            assert extended.vocabulary.terms[-2:] == (f"baru{trial}", "lain")
            assert index.count_rows == rows  # the stored fields are not modified
            save_index(extended, tmp_path / "extended.idx")
            save_index(build_index([*cases, new_case])[0], tmp_path / "built.idx")
            assert (tmp_path / "extended.idx").read_bytes() == (tmp_path / "built.idx").read_bytes()

    def test_refuses_a_duplicate_id_and_an_empty_title(self, small_index):
        with pytest.raises(DataError, match="duplicate case id: 'd2'"):
            extend_index(*self._fields(small_index), Case("d2", "x"))
        with pytest.raises(DataError, match="tokenizes to empty"):
            extend_index(*self._fields(small_index), Case("d4", "?!"))


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
        assert small_index.inverse_document_frequency("a") == pytest.approx(
            IDF_TWO_OF_THREE, rel=1e-12
        )

    def test_term_in_every_document_is_zero(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "a d")])
        assert index.inverse_document_frequency("a") == 0.0

    def test_unseen_term_is_signalled_not_numeric(self, small_index):
        with pytest.raises(TermNotIndexed, match="not indexed"):
            small_index.inverse_document_frequency("zzz")


class TestTfidfWeight:
    def test_hand_computed_weight(self, small_index):
        assert small_index.tfidf_weight("a", "d1") == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)

    def test_equals_the_stored_vector_entry(self, small_index):
        tid = small_index.vocabulary.term_id("a")
        stored = small_index.documents["d1"].weights[tid]
        assert small_index.tfidf_weight("a", "d1") == stored

    def test_zero_idf_means_zero_weight_regardless_of_tf(self):
        index, _ = build_index([Case("d1", "a a a b"), Case("d2", "a c")])
        assert index.term_frequency("a", "d1") > 0
        assert index.tfidf_weight("a", "d1") == 0.0

    def test_term_absent_from_document_is_zero(self, small_index):
        assert small_index.tfidf_weight("c", "d1") == 0.0

    def test_unseen_term_propagates_the_signal(self, small_index):
        with pytest.raises(TermNotIndexed):
            small_index.tfidf_weight("zzz", "d1")


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
        tid = small_index.vocabulary.term_id("a")
        assert set(query.weights) == {tid}
        assert query.weights[tid] == pytest.approx(WEIGHT_HALF_IDF, rel=1e-12)
        assert query.dropped_terms == ("zzz",)

    def test_zero_idf_tokens_are_dropped_too(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b"])
        assert query.dropped_terms == ("a",)
        assert set(query.weights) == {index.vocabulary.term_id("b")}

    def test_term_set_query_keeps_zero_idf_terms(self):
        index, _ = build_index([Case("d1", "a b"), Case("d2", "a c")])
        query = index.vectorize_query(["a", "b", "b", "qq"], "set")
        assert query.weights == {
            index.vocabulary.term_id("a"): 1.0,
            index.vocabulary.term_id("b"): 1.0,
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
            for term in index.vocabulary.terms:
                idf = index.inverse_document_frequency(term)
                assert 0.0 <= idf <= upper + 1e-15

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
