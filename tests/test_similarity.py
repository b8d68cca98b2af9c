"""Scorer behavior: cosine, set overlap, ranking, and their invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import DenseOracle
from cbrsearch import (
    Case,
    QueryVector,
    build_index,
    cosine_similarity,
    rank,
    search,
    set_similarity,
)
from cbrsearch.similarity import _norm, _skippable
from conftest import corpus_cases, generate_token_corpus, random_query_tokens


@pytest.fixture
def small_index():
    index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "b c")])
    return index


class TestCosineSimilarity:
    def test_identical_nonzero_vectors_score_one(self):
        x = {"a": 0.3, "b": 1.7}
        assert cosine_similarity(x, dict(x)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_score_zero(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_half_overlap(self):
        x = {"a": 1.0, "b": 1.0}
        y = {"a": 1.0, "c": 1.0}
        assert cosine_similarity(x, y) == pytest.approx(0.5, rel=1e-12)

    def test_zero_or_empty_vectors_score_zero(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
        assert cosine_similarity({"a": 0.0}, {"a": 1.0}) == 0.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(5150)
        for _ in range(300):
            x = {k: rng.uniform(0.0, 5.0) for k in rng.sample(range(12), rng.randint(0, 6))}
            y = {k: rng.uniform(0.0, 5.0) for k in rng.sample(range(12), rng.randint(0, 6))}
            forward = cosine_similarity(x, y)
            assert forward == cosine_similarity(y, x)
            assert 0.0 <= forward <= 1.0

    def test_invariant_to_positive_scaling(self):
        rng = random.Random(1984)
        for _ in range(300):
            x = {k: rng.uniform(0.1, 5.0) for k in rng.sample(range(10), rng.randint(1, 6))}
            y = {k: rng.uniform(0.1, 5.0) for k in rng.sample(range(10), rng.randint(1, 6))}
            a = rng.uniform(1e-3, 1e3)
            b = rng.uniform(1e-3, 1e3)
            scaled = cosine_similarity({k: a * v for k, v in x.items()},
                                       {k: b * v for k, v in y.items()})
            plain = cosine_similarity(x, y)
            assert abs(scaled - plain) <= 1e-12


class TestSetSimilarity:
    def test_identical_sets_score_one(self):
        x = {"sistem", "navigasi", "gedung"}
        assert set_similarity(x, set(x)) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        assert set_similarity({"sistem", "navigasi"}, {"sistem", "gedung"}) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_disjoint_sets_score_zero(self):
        assert set_similarity({"a"}, {"b"}) == 0.0

    def test_empty_set_scores_zero(self):
        assert set_similarity(set(), {"a"}) == 0.0

    def test_equals_cosine_of_incidence_vectors(self):
        rng = random.Random(2600)
        for _ in range(200):
            x = set(rng.sample(range(40), rng.randint(0, 15)))
            y = set(rng.sample(range(40), rng.randint(0, 15)))
            incidence = cosine_similarity({k: 1.0 for k in x}, {k: 1.0 for k in y})
            assert abs(set_similarity(x, y) - incidence) <= 1e-12


class TestRank:
    def test_exact_title_query_ranks_itself_first_at_one(self, small_index):
        query = small_index.vectorize_query(["a", "b"])
        results = rank(small_index, query)
        assert results.top.case_id == "d1"
        assert results.top.score == pytest.approx(1.0, abs=1e-9)
        assert results.scorer == "cosine"

    def test_single_term_matches_tie_broken_by_id(self, small_index):
        query = small_index.vectorize_query(["a"])
        results = rank(small_index, query)
        assert [m.case_id for m in results.matches] == ["d1", "d2"]
        assert results.matches[0].score == results.matches[1].score
        assert [m.rank for m in results.matches] == [1, 2]
        assert results.total_matches == 2

    def test_unseen_query_is_empty_but_reported(self, small_index):
        query = small_index.vectorize_query(["q"])
        results = rank(small_index, query)
        assert results.matches == ()
        assert results.total_matches == 0
        assert results.dropped_terms == ("q",)
        assert not results

    def test_set_scorer_via_term_set_query(self, small_index):
        query = small_index.vectorize_query(["a", "b"], "set")
        results = rank(small_index, query)
        assert results.scorer == "set"
        assert results.top.case_id == "d1"
        assert results.top.score == pytest.approx(1.0, abs=1e-12)

    def test_top_k_truncates_but_total_stays(self, small_index):
        query = small_index.vectorize_query(["a", "b", "c"])
        full = rank(small_index, query)
        cut = rank(small_index, query, top_k=1)
        assert full.total_matches == 3
        assert cut.total_matches == 3
        assert len(cut.matches) == 1
        assert cut.matches[0] == full.matches[0]

    def test_top_k_must_be_positive(self, small_index):
        query = small_index.vectorize_query(["a"])
        with pytest.raises(ValueError, match="top_k"):
            rank(small_index, query, top_k=0)

    @pytest.mark.parametrize("top_k", [True, 2.5, "3"], ids=["bool", "float", "str"])
    def test_top_k_that_is_not_an_int_raises_type_error(self, small_index, top_k):
        query = small_index.vectorize_query(["a", "b"])
        with pytest.raises(TypeError, match="top_k"):
            rank(small_index, query, top_k=top_k)
        with pytest.raises(TypeError, match="top_k"):
            search(small_index, "a b", top_k=top_k)

    def test_nan_threshold_raises_value_error(self, small_index):
        query = small_index.vectorize_query(["a", "b"])
        with pytest.raises(ValueError, match="threshold"):
            rank(small_index, query, threshold=float("nan"))
        with pytest.raises(ValueError, match="threshold"):
            search(small_index, "a b", threshold=float("nan"), top_k=1)

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "vocabulary-size"])
    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_term_id_outside_the_vocabulary_raises_value_error(self, small_index, bad, top_k):
        # three terms: -1 would read the last one's postings, 3 none at all
        for scorer in ("cosine", "set"):
            query = QueryVector({0: 1.0, bad: 1.0}, scorer=scorer)
            with pytest.raises(ValueError, match=f"term id {bad} is not in the vocabulary"):
                rank(small_index, query, top_k=top_k)
        edge = QueryVector({0: 1.0, 2: 1.0})
        assert rank(small_index, edge, top_k=top_k).total_matches == 3

    @pytest.mark.parametrize("top_k", [None, 1, 2])
    def test_negative_threshold_raises_value_error(self, small_index, top_k):
        # scores lie in [0, 1]: below 0, every document would have to match
        for scorer in ("cosine", "set"):
            query = small_index.vectorize_query(["a", "b"], scorer)
            with pytest.raises(ValueError, match="threshold"):
                rank(small_index, query, threshold=-0.5, top_k=top_k)
            with pytest.raises(ValueError, match="threshold"):
                search(small_index, "a b", scorer=scorer, threshold=-0.5, top_k=top_k)
            at_zero = rank(small_index, query, top_k=top_k)
            for zero in (0.0, -0.0):
                assert rank(small_index, query, threshold=zero, top_k=top_k) == at_zero
                found = search(small_index, "a b", scorer=scorer, threshold=zero, top_k=top_k)
                assert found == at_zero
            assert at_zero.total_matches == 3

    def test_threshold_is_strict(self, small_index):
        query = small_index.vectorize_query(["a"])
        results = rank(small_index, query)
        cutoff = results.matches[-1].score
        filtered = rank(small_index, query, threshold=cutoff)
        assert all(m.score > cutoff for m in filtered.matches)
        assert cutoff not in {m.score for m in filtered.matches}

    def test_raising_the_threshold_never_adds_results(self, small_index):
        query = small_index.vectorize_query(["a", "b", "c"])
        previous = None
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            ids = {m.case_id for m in rank(small_index, query, threshold=threshold).matches}
            if previous is not None:
                assert ids <= previous
            previous = ids


def _reference_rank(index, query, threshold):
    """Rank by plain dict accumulation keyed by case id, over document vectors.

    Follows the cosine floating-point path term by term, and scores a set
    query by counting shared terms, so the scores of the single accumulator
    must equal these exactly.
    """
    scores = {}
    if query.scorer == "cosine":
        query_norm = 0.0
        for tid in sorted(query.weights):
            query_norm += query.weights[tid] * query.weights[tid]
        query_norm = math.sqrt(query_norm)
        for doc_id, doc in index.documents.items():
            shared = [tid for tid in sorted(query.weights) if tid in doc.weights]
            if shared:
                dot = 0.0
                for tid in shared:
                    dot += query.weights[tid] * doc.weights[tid]
                scores[doc_id] = min(dot / (query_norm * index.norms[doc_id]), 1.0)
    else:
        query_norm = math.sqrt(len(query.weights))
        for doc_id, doc in index.documents.items():
            shared = len(query.weights.keys() & doc.weights.keys())
            if shared:
                score = shared / (query_norm * math.sqrt(len(doc.weights)))
                scores[doc_id] = min(score, 1.0)
    kept = [(doc_id, score) for doc_id, score in scores.items() if score > threshold]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return kept


class TestRankSelection:
    """Ranking over document ordinals agrees with ranking by case id."""

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    def test_ties_break_by_case_id_not_corpus_order(self, scorer):
        ids = ["10", "9", "2", "1"]
        cases = [Case(case_id, "sistem navigasi") for case_id in ids]
        index, _ = build_index(cases + [Case("0", "aplikasi kasir")])
        tokens = ["sistem", "navigasi"]
        query = index.vectorize_query(tokens, scorer)
        for top_k in range(1, 5):
            results = rank(index, query, top_k=top_k)
            assert [m.case_id for m in results.matches] == ["1", "10", "2", "9"][:top_k]
            assert results.total_matches == 4

    def test_top_k_is_a_prefix_and_scores_equal_a_dict_reference(self):
        rng = random.Random(5407)
        for _ in range(8):
            doc_tokens = list(
                generate_token_corpus(rng, max_docs=40, max_tokens=12, max_vocab=20).values()
            )
            doc_tokens += rng.sample(doc_tokens, len(doc_tokens) // 3)  # exact ties
            ids = [str(n) for n in rng.sample(range(1000), len(doc_tokens))]
            cases = [Case(case_id, " ".join(tokens)) for case_id, tokens in zip(ids, doc_tokens)]
            index, _ = build_index(cases)
            for _ in range(5):
                tokens = random_query_tokens(rng, dict(zip(ids, doc_tokens)))
                text = " ".join(tokens)
                for query in (index.vectorize_query(tokens), index.vectorize_query(tokens, "set")):
                    for threshold in (0.0, 0.2, 0.4, 0.6):
                        full = rank(index, query, threshold=threshold)
                        expected = _reference_rank(index, query, threshold)
                        assert [(m.case_id, m.score) for m in full.matches] == expected
                        assert full.total_matches == len(expected)
                        assert search(index, text, scorer=query.scorer, threshold=threshold) == full
                        for top_k in range(1, len(expected) + 2):
                            cut = rank(index, query, threshold=threshold, top_k=top_k)
                            assert cut.matches == full.matches[:top_k]
                            assert cut.total_matches == full.total_matches
                            assert search(
                                index, text, scorer=query.scorer, threshold=threshold, top_k=top_k
                            ) == cut


class TestRankProperties:
    def test_query_token_order_never_matters(self):
        rng = random.Random(314159)
        for _ in range(15):
            doc_tokens = generate_token_corpus(rng, max_docs=50, max_tokens=15, max_vocab=25)
            index, _ = build_index(corpus_cases(doc_tokens))
            tokens = random_query_tokens(rng, doc_tokens)
            baseline = rank(index, index.vectorize_query(tokens))
            baseline_set = rank(index, index.vectorize_query(tokens, "set"))
            for _ in range(4):
                shuffled = tokens[:]
                rng.shuffle(shuffled)
                permuted = rank(index, index.vectorize_query(shuffled))
                assert permuted.matches == baseline.matches  # bit-exact scores
                assert permuted.total_matches == baseline.total_matches
                assert permuted.dropped_terms == baseline.dropped_terms
                permuted_set = rank(index, index.vectorize_query(shuffled, "set"))
                assert permuted_set.matches == baseline_set.matches

    def test_matches_the_dense_oracle_on_random_corpora(self):
        rng = random.Random(161803)
        for _ in range(8):
            doc_tokens = generate_token_corpus(rng, max_docs=60, max_tokens=15, max_vocab=25)
            index, _ = build_index(corpus_cases(doc_tokens))
            oracle = DenseOracle(doc_tokens)
            for _ in range(6):
                tokens = random_query_tokens(rng, doc_tokens)
                for scorer in ("cosine", "set"):
                    mine = rank(index, index.vectorize_query(tokens, scorer))
                    expected = oracle.rank(tokens, scorer=scorer)
                    assert [m.case_id for m in mine.matches] == [doc for doc, _ in expected]
                    for match, (_, score) in zip(mine.matches, expected):
                        assert math.isclose(match.score, score, rel_tol=1e-12)

    def test_normalized_and_raw_tf_agree(self):
        rng = random.Random(271828)
        doc_tokens = generate_token_corpus(rng, max_docs=50, max_tokens=15, max_vocab=25)
        index, _ = build_index(corpus_cases(doc_tokens))
        raw_oracle = DenseOracle(doc_tokens, tf_mode="raw")
        natural_oracle = DenseOracle(doc_tokens, log=math.log)
        for _ in range(10):
            tokens = random_query_tokens(rng, doc_tokens)
            mine = rank(index, index.vectorize_query(tokens))
            for oracle in (raw_oracle, natural_oracle):
                # per-document score agreement; exact order inside fp-level
                # ties is not comparable across weighting variants
                expected = dict(oracle.rank(tokens))
                assert {m.case_id for m in mine.matches} == set(expected)
                for match in mine.matches:
                    assert math.isclose(match.score, expected[match.case_id], rel_tol=1e-12)

    def test_rejects_queries_of_the_wrong_type(self, small_index):
        with pytest.raises(TypeError):
            rank(small_index, {"a": 1.0})

    @pytest.mark.parametrize(
        ("weights", "scorer", "match"),
        [
            ({0: math.nan, 1: 1.0}, "cosine", "finite norm"),
            ({0: math.inf, 1: 1.0}, "cosine", "finite norm"),
            ({0: 1e200, 1: 1.0}, "cosine", "finite norm"),  # the square overflows
            ({0: math.nan, 1: 1.0}, "set", "finite norm"),
            ({0: 1.0, 1: 1.0}, "bogus", "unknown scorer: 'bogus'"),
        ],
        ids=["nan", "inf", "overflow", "nan-set", "unknown-scorer"],
    )
    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_query_it_cannot_score_raises_value_error(self, weights, scorer, match, top_k):
        # term ids 0 and 1 are "a" and "b"
        cases = [Case("1", "a b"), Case("2", "a c"), Case("3", "b c"), Case("4", "d")]
        index, _ = build_index(cases)
        with pytest.raises(ValueError, match=match):
            rank(index, QueryVector(weights, scorer=scorer), top_k=top_k)


# a few words in many titles, the rest rare: the pruned path skips the
# common words' lists when a rare word is in the query
_COMMON = ["sistem", "aplikasi", "data"]
_RARE = [f"kata{i}" for i in range(9)]
_TITLE = st.lists(
    st.sampled_from(_COMMON) | st.sampled_from(_RARE), min_size=1, max_size=6
)


@st.composite
def _corpus_and_query(draw):
    titles = draw(st.lists(_TITLE, min_size=2, max_size=24))
    # duplicated titles tie exactly, also at the k-th score
    titles += draw(st.lists(st.sampled_from(titles), max_size=6))
    words = sorted({word for title in titles for word in title})
    return titles, draw(st.lists(st.sampled_from(words), min_size=2, max_size=5))


class TestPruning:
    """The exact top-k path agrees with the exhaustive one, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=_corpus_and_query())
    def test_top_k_is_the_exhaustive_ranking_truncated(self, drawn):
        titles, tokens = drawn
        cases = [Case(f"{n:03d}", " ".join(words)) for n, words in enumerate(titles)]
        index, _ = build_index(cases)
        for scorer in ("cosine", "set"):
            query = index.vectorize_query(tokens, scorer)
            for threshold in (0.0, 0.3):
                full = rank(index, query, threshold=threshold)
                for top_k in range(1, index.corpus_size + 2):
                    cut = rank(index, query, threshold=threshold, top_k=top_k)
                    assert cut.matches == full.matches[:top_k]
                    assert [m.score for m in cut.matches] == [m.score for m in full.matches[:top_k]]
                    assert cut.total_matches == full.total_matches

    def test_a_hand_built_query_with_a_term_of_idf_0_counts_like_the_exhaustive_path(self):
        index, _ = build_index([Case("1", "a b"), Case("2", "a c"), Case("3", "a d")])
        a, b = index.vocabulary.lookup("a"), index.vocabulary.lookup("b")
        query = QueryVector({a: 1.0, b: 1.0})
        full = rank(index, query)
        assert full.total_matches == 1
        assert rank(index, query, top_k=1) == full

    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_document_of_norm_0_scores_0_and_never_matches(self, top_k):
        # "1" holds only "a", a term in every title: its weight vector is zero
        index, _ = build_index([Case("1", "a"), Case("2", "a b")])
        a, b = index.vocabulary.lookup("a"), index.vocabulary.lookup("b")
        query = QueryVector({a: 1.0, b: 1.0})
        oracle = DenseOracle({"1": ["a"], "2": ["a", "b"]})
        assert oracle.doc_norms["1"] == 0.0
        by_term = {"a": 1.0, "b": 1.0}
        expected = [
            (doc_id, score)
            for doc_id, vector in sorted(oracle.doc_vectors.items())
            if (score := cosine_similarity(by_term, dict(zip(oracle.vocab, vector)))) > 0.0
        ]
        assert [doc_id for doc_id, _ in expected] == [doc for doc, _ in oracle.rank(["a", "b"])]
        results = rank(index, query, top_k=top_k)
        assert [m.case_id for m in results.matches] == [doc_id for doc_id, _ in expected]
        for match, (_, score) in zip(results.matches, expected):
            assert math.isclose(match.score, score, rel_tol=1e-12)
        assert results.total_matches == 1
        assert _skippable(index, query, _norm(query.weights), 0.0, 1)[0] == set()
        assert index._ratios == {}  # no ratios of a zero-norm document were computed

    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_query_of_norm_0_matches_nothing(self, small_index, top_k):
        query = QueryVector(dict.fromkeys(range(len(small_index.vocabulary)), 0.0))
        results = rank(small_index, query, top_k=top_k)
        assert (results.matches, results.total_matches) == ((), 0)

    def test_a_weak_list_is_skipped_only_where_pruning_applies(self):
        # "umum" is in all titles but one: a long list with a low bound
        titles = ["langka"] + [f"umum kata{n}" for n in range(9)]
        index, _ = build_index([Case(f"{n:02d}", title) for n, title in enumerate(titles)])

        def skipped(tokens, scorer="cosine", threshold=0.0, top_k=1):
            query = index.vectorize_query(tokens, scorer)
            return _skippable(index, query, _norm(query.weights), threshold, top_k)[0]

        assert skipped(["umum", "langka"]) == {index.vocabulary.lookup("umum")}
        assert skipped(["umum", "langka"], scorer="set") == set()
        assert skipped(["umum", "langka"], threshold=0.3) == set()
        assert skipped(["umum", "langka"], top_k=None) == set()
        assert skipped(["langka"]) == set()
        idf_0, _ = build_index([Case("1", "a b"), Case("2", "a c"), Case("3", "a d")])
        a, b = idf_0.vocabulary.lookup("a"), idf_0.vocabulary.lookup("b")
        query = QueryVector({a: 1.0, b: 1.0})
        assert _skippable(idf_0, query, _norm(query.weights), 0.0, 1)[0] == set()

    def test_term_ratios_bound_every_posting_and_are_reached(self):
        rng = random.Random(8128)
        doc_tokens = generate_token_corpus(rng, max_docs=80, max_tokens=12, max_vocab=30)
        index, _ = build_index(corpus_cases(doc_tokens))
        twin, _ = build_index(corpus_cases(doc_tokens))
        checked = 0
        for tid, df in enumerate(index.vocabulary.document_frequencies):
            if df == index.corpus_size:  # idf 0: no cosine query holds the term
                continue
            pairs = zip(index.postings[tid], index.posting_weights[tid])
            ratios = [weight / index.ordinal_norms[ordinal] for ordinal, weight in pairs]
            cached = index.term_ratios(tid)
            assert all(ratio <= cached[0] for ratio in ratios)
            assert cached[0] in ratios
            assert list(cached) == sorted(ratios, reverse=True)
            assert index.term_ratios(tid) is cached
            checked += 1
        assert checked > 10
        assert index == twin  # the cache is not part of an index's value
