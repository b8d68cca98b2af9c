"""Scorer behavior: cosine and set overlap through ranking, and their invariants."""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import DenseOracle
from cbrsearch import Case, Index, QueryVector, build_index, search, similarity
from cbrsearch.index import _ordinals
from cbrsearch.similarity import SLACK, _cuts, _norm, rank
from conftest import (
    SAMPLE_TITLES,
    corpus_cases,
    generate_token_corpus,
    random_query_tokens,
    row_weights,
)


@pytest.fixture
def small_index():
    index, _ = build_index([Case("d1", "a b"), Case("d2", "a c"), Case("d3", "b c")])
    return index


def _title_scores(index, doc_tokens, scorer):
    """(query title, matched title) -> score, for every stored title as a query."""
    scores = {}
    for doc_id, tokens in doc_tokens.items():
        for match in search(index, " ".join(tokens), scorer=scorer).matches:
            scores[doc_id, match.case_id] = match.score
    return scores


def _scores(results):
    return {m.case_id: m.score for m in results.matches}


def _row_query(index, ordinal):
    """Document *ordinal*'s row weights as a cosine query, as ranking takes one.

    A query holds only weights above 0, so the row's terms of idf 0 are left
    out.
    """
    return QueryVector({tid: w for tid, w in row_weights(index, ordinal).items() if w > 0.0})


class TestCosineSimilarity:
    """The weighted cosine, stated through :func:`rank` with hand-built queries.

    Each query is one :meth:`Index.vectorize_query` could make: positive
    weights of terms of idf above 0.
    """

    def test_identical_nonzero_vectors_score_one(self):
        index, _ = build_index([Case(str(n), title) for n, title in enumerate(SAMPLE_TITLES)])
        for ordinal, doc_id in enumerate(index.doc_ids):
            query = _row_query(index, ordinal)
            assert query.weights
            score = _scores(rank(index, query))[doc_id]
            assert score == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_score_zero(self):
        index, _ = build_index([Case("d1", "a"), Case("d2", "b"), Case("d3", "c")])
        a = index.lookup("a")
        results = rank(index, QueryVector({a: 1.0}))
        assert [m.case_id for m in results.matches] == ["d1"]
        assert results.total_matches == 1
        assert [index.dot(ordinal, {a: 1.0}) for ordinal in (1, 2)] == [0.0, 0.0]

    def test_half_overlap(self, small_index):
        # every weight of the small index is the same: cos({a, b}, {a, c}) = 1/2
        a, b = small_index.lookup("a"), small_index.lookup("b")
        scores = _scores(rank(small_index, QueryVector({a: 1.0, b: 1.0})))
        assert scores["d1"] == pytest.approx(1.0, abs=1e-12)
        assert scores["d2"] == pytest.approx(0.5, rel=1e-12)
        assert scores["d3"] == pytest.approx(0.5, rel=1e-12)

    def test_symmetric_and_bounded(self):
        # a document's own row as the query: its score against another
        # document is the cosine of the two weight vectors, either way round
        rng = random.Random(5150)
        pairs = 0
        for _ in range(10):
            doc_tokens = generate_token_corpus(rng, max_docs=25, max_tokens=10, max_vocab=15)
            index, _ = build_index(corpus_cases(doc_tokens))
            scores = {}
            for ordinal, doc_id in enumerate(index.doc_ids):
                results = rank(index, _row_query(index, ordinal))
                for other, score in _scores(results).items():
                    assert 0.0 <= score <= 1.0
                    scores[doc_id, other] = score
            for (doc_id, other), score in scores.items():
                assert math.isclose(scores[other, doc_id], score, rel_tol=1e-12)
                pairs += 1
        assert pairs > 500

    def test_invariant_to_positive_scaling(self):
        rng = random.Random(1984)
        doc_tokens = generate_token_corpus(rng, max_docs=40, max_tokens=12, max_vocab=20)
        index, _ = build_index(corpus_cases(doc_tokens))
        # every title written twice: each document's raw counts scaled by 2
        doubled, _ = build_index(corpus_cases({d: t + t for d, t in doc_tokens.items()}))
        informative = [tid for tid, idf in enumerate(index._idf) if idf > 0.0]
        for _ in range(100):
            tids = rng.sample(informative, rng.randint(1, min(6, len(informative))))
            weights = {tid: rng.uniform(0.1, 5.0) for tid in tids}
            factor = rng.uniform(1e-3, 1e3)
            plain = _scores(rank(index, QueryVector(weights)))
            scaled = _scores(rank(index, QueryVector({t: factor * w for t, w in weights.items()})))
            assert scaled.keys() == plain.keys()
            for doc_id, score in scaled.items():
                assert math.isclose(score, plain[doc_id], rel_tol=1e-12)
            assert _scores(rank(doubled, QueryVector(weights))) == plain


class TestSetSimilarity:
    """The set-overlap scorer, stated through :func:`rank` with set queries."""

    def test_identical_sets_score_one(self):
        titles = ["sistem navigasi gedung", "sistem informasi", "navigasi kapal"]
        index, _ = build_index([Case(str(n), title) for n, title in enumerate(titles)])
        results = rank(index, index.vectorize_query(titles[0].split(), "set"))
        assert results.top.case_id == "0"
        assert results.top.score == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        index, _ = build_index([Case("1", "sistem navigasi"), Case("2", "sistem gedung")])
        scores = _scores(rank(index, index.vectorize_query(["sistem", "navigasi"], "set")))
        assert scores["2"] == pytest.approx(0.5, rel=1e-12)

    def test_disjoint_sets_score_zero(self):
        index, _ = build_index([Case("1", "a"), Case("2", "b")])
        results = rank(index, index.vectorize_query(["a"], "set"))
        assert [m.case_id for m in results.matches] == ["1"]
        assert results.total_matches == 1

    def test_empty_set_scores_zero(self, small_index):
        results = rank(small_index, QueryVector({}, scorer="set"))
        assert (results.matches, results.total_matches) == ((), 0)

    def test_equals_cosine_of_incidence_vectors(self):
        rng = random.Random(2600)
        doc_tokens = generate_token_corpus(rng, max_docs=40, max_tokens=15, max_vocab=40)
        index, _ = build_index(corpus_cases(doc_tokens))
        doc_sets = {doc_id: set(tokens) for doc_id, tokens in doc_tokens.items()}
        terms = index.terms
        for _ in range(100):
            query = set(rng.sample(terms, rng.randint(0, min(15, len(terms)))))
            expected = {}
            for doc_id, doc_set in doc_sets.items():
                shared = len(query & doc_set)  # the dot of two 0/1 incidence vectors
                if shared:
                    expected[doc_id] = shared / (math.sqrt(len(query)) * math.sqrt(len(doc_set)))
            scores = _scores(rank(index, index.vectorize_query(sorted(query), "set")))
            assert scores.keys() == expected.keys()
            for doc_id, score in scores.items():
                assert abs(score - expected[doc_id]) <= 1e-12


class TestScorerProperties:
    """What the module docstring claims for both scorers, stated through ranking."""

    @staticmethod
    def _random_corpora(count=12, seed=5150):
        rng = random.Random(seed)
        for _ in range(count):
            doc_tokens = generate_token_corpus(rng, max_docs=30, max_tokens=12, max_vocab=20)
            yield rng, doc_tokens, build_index(corpus_cases(doc_tokens))[0]

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    def test_every_score_lies_in_0_1(self, scorer):
        for rng, doc_tokens, index in self._random_corpora():
            scores = list(_title_scores(index, doc_tokens, scorer).values())
            for _ in range(10):
                text = " ".join(random_query_tokens(rng, doc_tokens))
                scores += [m.score for m in search(index, text, scorer=scorer).matches]
            assert scores and all(0.0 <= score <= 1.0 for score in scores)

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    def test_title_to_title_scores_are_symmetric(self, scorer):
        pairs = 0
        for _, doc_tokens, index in self._random_corpora():
            scores = _title_scores(index, doc_tokens, scorer)
            for (query_id, doc_id), score in scores.items():
                assert math.isclose(scores[doc_id, query_id], score, rel_tol=1e-12)
                pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    def test_scores_are_invariant_to_positive_scaling_of_the_query(self, scorer):
        # every token repeated scales the query's term counts; a set query
        # weighs each term 1.0 whatever its count, so only a cosine query's
        # weights are scaled too
        for rng, doc_tokens, index in self._random_corpora():
            for _ in range(10):
                tokens = random_query_tokens(rng, doc_tokens)
                query = index.vectorize_query(tokens, scorer)
                factor = rng.uniform(1e-3, 1e3)
                plain = rank(index, query)
                assert rank(index, index.vectorize_query(tokens * 3, scorer)) == plain
                if scorer == "set":
                    continue
                scaled = {tid: factor * weight for tid, weight in query.weights.items()}
                moved = rank(index, query._replace(weights=scaled))
                assert moved.total_matches == plain.total_matches
                expected = {m.case_id: m.score for m in plain.matches}
                assert {m.case_id for m in moved.matches} == expected.keys()
                for match in moved.matches:
                    assert math.isclose(match.score, expected[match.case_id], rel_tol=1e-12)


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

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_word_outside_the_vocabulary_is_dropped_before_ranking(
        self, small_index, top_k, scorer
    ):
        # a query only reaches the ranking through search, which keeps term
        # ids in range by dropping the words it has no id for
        plain = search(small_index, "a", scorer=scorer, top_k=top_k)
        mixed = search(small_index, "q a z", scorer=scorer, top_k=top_k)
        assert mixed.dropped_terms == ("q", "z")
        assert mixed.total_matches == plain.total_matches == 2
        assert [m.case_id for m in mixed.matches] == [m.case_id for m in plain.matches]
        for match, expected in zip(mixed.matches, plain.matches):
            assert math.isclose(match.score, expected.score, rel_tol=1e-12)
        # "c", the last term id, is reached like any other
        assert search(small_index, "c", scorer=scorer, top_k=top_k).total_matches == 2

    @pytest.mark.parametrize("scorer", ["cosine", "set"])
    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_long_query_scores_finitely(self, top_k, scorer):
        # a cosine weight is the token's share of the query times its idf, so
        # no query length can push the query norm to inf or NaN
        doc_tokens = {"1": ["a", "b"], "2": ["a", "c"], "3": ["b", "c"], "4": ["d"]}
        index, _ = build_index(corpus_cases(doc_tokens))
        tokens = ["b"] * 100_000 + ["c"]
        results = search(index, " ".join(tokens), scorer=scorer, top_k=top_k)
        weights = index.vectorize_query(tokens, scorer).weights.values()
        assert all(math.isfinite(w) and w > 0.0 for w in weights)
        expected = DenseOracle(doc_tokens).rank(tokens, scorer=scorer)
        assert results.total_matches == len(expected) == 3
        assert [m.case_id for m in results.matches] == [d for d, _ in expected][:top_k]
        for match, (_, score) in zip(results.matches, expected):
            assert 0.0 < match.score <= 1.0
            assert math.isclose(match.score, score, rel_tol=1e-9)

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
    """Rank by plain dict accumulation keyed by case id, over each document's row weights.

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
        for ordinal, doc_id in enumerate(index.doc_ids):
            weights = row_weights(index, ordinal)
            shared = [tid for tid in sorted(query.weights) if tid in weights]
            if shared:
                dot = 0.0
                for tid in shared:
                    dot += query.weights[tid] * weights[tid]
                norm = index.ordinal_norms[ordinal]
                scores[doc_id] = min(dot / (query_norm * norm), 1.0)
    else:
        query_norm = math.sqrt(len(query.weights))
        for ordinal, doc_id in enumerate(index.doc_ids):
            weights = row_weights(index, ordinal)
            shared = len(query.weights.keys() & weights.keys())
            if shared:
                score = shared / (query_norm * math.sqrt(len(weights)))
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


def _depths(query, plan):
    """The depth of each cut list of a read plan of :func:`_cuts`: term id -> postings read."""
    assert plan == [] or len(plan) == len(query.weights)  # one entry per query term
    return {
        tid: len(ordinals) for tid, (_, spare, ordinals, _) in zip(query.weights, plan) if spare > 0.0
    }


def _assert_cut_at_the_level(index, query, top_k):
    """Each cut list stops at its first posting adding at most theta / (n + 1)."""
    query_norm = _norm(query.weights)
    plan, _, theta = _cuts(index, query, query_norm, top_k)
    level = theta / (len(query.weights) + 1)
    for tid, depth in _depths(query, plan).items():
        scale, ratios = query.weights[tid] / query_norm, index.impacts(tid)[1]
        assert scale * ratios[depth] <= level
        if depth > 0:
            assert scale * ratios[depth - 1] > level


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
                    if scorer == "cosine" and threshold == 0.0:
                        _assert_cut_at_the_level(index, query, top_k)

    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_document_of_norm_0_scores_0_and_never_matches(self, top_k):
        # "1" holds only "a", a term in every title: its weight vector is zero
        index, _ = build_index([Case("1", "a"), Case("2", "a b")])
        oracle = DenseOracle({"1": ["a"], "2": ["a", "b"]})
        assert oracle.doc_norms["1"] == 0.0
        expected = oracle.rank(["a", "b"])
        results = search(index, "a b", top_k=top_k)
        assert [m.case_id for m in results.matches] == [doc_id for doc_id, _ in expected] == ["2"]
        for match, (_, score) in zip(results.matches, expected):
            assert math.isclose(match.score, score, rel_tol=1e-12)
        assert results.total_matches == 1
        assert results.dropped_terms == ("a",)
        # no ratio of the zero-norm document was computed: "a" is never read
        assert index.lookup("a") not in index._impacts
        assert all(0 not in ordinals for ordinals, _ in index._impacts.values())

    @pytest.mark.parametrize("top_k", [None, 1])
    def test_a_query_of_norm_0_matches_nothing(self, top_k):
        # every token is dropped: "a" is in every title, "q" in none
        index, _ = build_index([Case("1", "a"), Case("2", "a b")])
        results = search(index, "a q a", top_k=top_k)
        assert (results.matches, results.total_matches) == ((), 0)
        assert results.dropped_terms == ("a", "q")

    def test_a_weak_list_is_skipped_only_where_pruning_applies(self, monkeypatch):
        # "umum" is in all titles but one: a long list with a low bound
        titles = ["langka"] + [f"umum kata{n}" for n in range(9)]
        index, _ = build_index([Case(f"{n:02d}", title) for n, title in enumerate(titles)])

        def cuts(tokens, top_k=1):
            query = index.vectorize_query(tokens)
            return _depths(query, _cuts(index, query, _norm(query.weights), top_k)[0])

        assert cuts(["umum", "langka"]) == {index.lookup("umum"): 0}
        assert cuts(["langka"]) == {}

        # a threshold above 0, a query without top_k and a set query are never
        # pruned: they do not ask for cuts
        def refuse(*args):
            raise AssertionError("a query that is never pruned asked for cuts")

        monkeypatch.setattr(similarity, "_cuts", refuse)
        assert search(index, "umum langka", threshold=0.3, top_k=1).matches
        assert search(index, "umum langka").total_matches == 10
        assert search(index, "umum langka", scorer="set", top_k=1).total_matches == 10

    def test_two_skipped_lists_count_and_score_as_the_exhaustive_ranking(self):
        # "umum" and "biasa" are weak lists that hold documents no other list
        # holds, and candidates of "langka"; 22 titles leave the last byte of a
        # bitmap partial, and the last title is in both weak lists
        titles = ["langka", "langka umum", "langka biasa", "umum lain", "biasa lain", "lain"]
        titles += [f"umum kata{n}" for n in range(7)] + [f"biasa kata{n}" for n in range(7, 14)]
        titles += ["umum biasa kata14", "umum biasa kata15"]
        doc_tokens = {f"{n:02d}": title.split() for n, title in enumerate(titles)}
        index, _ = build_index(corpus_cases(doc_tokens))
        assert index.corpus_size % 8
        tokens = ["umum", "langka", "biasa"]
        query = index.vectorize_query(tokens)
        for top_k in range(1, 4):
            plan = _cuts(index, query, _norm(query.weights), top_k)[0]
            assert _depths(query, plan) == {index.lookup("umum"): 0, index.lookup("biasa"): 0}
        matching = len(DenseOracle(doc_tokens).rank(tokens))
        full = rank(index, query)
        assert full.total_matches == matching == len(titles) - 1  # all but "lain"
        for top_k in range(1, 4):
            cut = rank(index, query, top_k=top_k)
            assert cut.total_matches == matching
            assert [(m.case_id, m.score.hex()) for m in cut.matches] == [
                (m.case_id, m.score.hex()) for m in full.matches[:top_k]
            ]

    def test_impacts_order_every_posting_by_its_ratio(self):
        rng = random.Random(8128)
        doc_tokens = generate_token_corpus(rng, max_docs=80, max_tokens=12, max_vocab=30)
        # duplicated titles give equal ratios, which must come in ascending ordinal
        again = {f"{doc_id}-again": doc_tokens[doc_id] for doc_id in list(doc_tokens)[:8]}
        doc_tokens.update(again)
        index, _ = build_index(corpus_cases(doc_tokens))
        twin, _ = build_index(corpus_cases(doc_tokens))
        checked = ties = 0
        for tid, ordinals in enumerate(index.postings):
            if len(ordinals) == index.corpus_size:  # idf 0: no cosine query holds the term
                continue
            weights = dict(zip(ordinals, index.posting_weights[tid]))
            cached = index.impacts(tid)
            order, ratios = cached
            assert sorted(order) == list(ordinals)
            assert [r.hex() for r in ratios] == [
                (weights[o] / index.ordinal_norms[o]).hex() for o in order
            ]
            for (first, high), (second, low) in zip(zip(order, ratios), zip(order[1:], ratios[1:])):
                assert high >= low
                if high == low:
                    assert first < second
                    ties += 1
            assert index.impacts(tid) is cached
            checked += 1
        assert checked > 10 and ties > 0
        assert index == twin  # the cache is not part of an index's value


# built once for the module: a term in 240 of 300 titles, beside 1-6 other
# words, so its ratios spread; the other 60 titles lack it, so its idf is above 0
def _common_corpus():
    rng = random.Random(3301)
    words = [f"kata{n}" for n in range(40)]
    titles = [["umum", *rng.sample(words, 1 + n % 6)] for n in range(240)]
    titles += [rng.sample(words, 2) for _ in range(60)]
    return {f"{n:03d}": title for n, title in enumerate(titles)}


# built once for the module: three copies of the query title and of a title
# one word longer, so scores tie at 1.0 and below it at several cuts
_TITLE_QUERY = ["sistem", "informasi", "akademik"]


def _tied_corpus():
    titles = [_TITLE_QUERY] * 3 + [[*_TITLE_QUERY, "baru"]] * 3
    titles += [["sistem", f"kata{n}"] for n in range(12)] + [["akademik", "kampus", "lain"]] * 2
    titles += [["informasi", f"kata{n}", "data"] for n in range(9)]
    return {f"{n:02d}": title for n, title in enumerate(titles)}


@pytest.fixture(scope="module")
def common_index():
    return build_index(corpus_cases(_common_corpus()))[0]


@pytest.fixture(scope="module")
def tied_index():
    return build_index(corpus_cases(_tied_corpus()))[0]


def _hexes(results):
    return [(m.case_id, m.score.hex()) for m in results.matches], results.total_matches


class TestImpactCuts:
    """A cut list is read only down to its cut, and ranks as the exhaustive path."""

    def test_a_lone_common_term_rescores_far_fewer_documents_than_its_list(
        self, common_index, monkeypatch
    ):
        index = common_index
        df = len(index.postings[index.lookup("umum")])
        full = search(index, "umum")
        assert full.total_matches == df
        calls = []
        dot = Index.dot

        def counting(self, ordinal, weights):
            calls.append(ordinal)
            return dot(self, ordinal, weights)

        monkeypatch.setattr(Index, "dot", counting)
        for top_k in (1, 3):
            calls.clear()
            cut = search(index, "umum", top_k=top_k)
            assert 1 <= len(calls) and len(calls) * 10 <= df
            assert _hexes(cut) == (_hexes(full)[0][:top_k], df)

    def test_ties_at_the_cut_and_a_clamped_score_rank_as_the_exhaustive_path(self, tied_index):
        index = tied_index
        query = index.vectorize_query(_TITLE_QUERY)
        # the stored title scores above 1.0 before the clamp
        unclamped = index.dot(0, query.weights) / (_norm(query.weights) * index.ordinal_norms[0])
        assert unclamped > 1.0
        cut_at_a_tie = 0
        for tokens in (_TITLE_QUERY, ["sistem", "baru"], ["sistem"], ["akademik"]):
            query = index.vectorize_query(tokens)
            full = search(index, " ".join(tokens))
            for top_k in range(1, index.corpus_size + 1):
                cut = search(index, " ".join(tokens), top_k=top_k)
                assert _hexes(cut) == (_hexes(full)[0][:top_k], full.total_matches)
                plan = _cuts(index, query, _norm(query.weights), top_k)[0]
                scores = [m.score for m in full.matches[top_k - 1 : top_k + 1]]
                if plan and scores[1:] == scores[:1]:
                    cut_at_a_tie += 1
        assert cut_at_a_tie >= 8  # lists were cut where the k-th score ties the next
        results = search(index, " ".join(_TITLE_QUERY), top_k=3)
        assert [m.score for m in results.matches] == [1.0] * 3

    def test_a_match_read_by_two_lists_ranks_from_below_their_single_prefixes(self):
        # "d" holds both query terms and scores 1.0, but in each list it adds less
        # than the two one-word titles ahead of it, and less than the floor: no
        # list's prefix of single documents reaches it, only the lists' overlap
        titles = {"d": ["x", "y"], **{f"{t}{n}": [t] for t in "xy" for n in range(2)}}
        for t in "xy":
            titles.update({f"{t}-long{n}": [t, *(f"{t}{n}{m}" for m in range(9))] for n in range(3)})
        index = build_index(corpus_cases(titles))[0]
        query = index.vectorize_query(["x", "y"])
        plan, unread, _ = _cuts(index, query, _norm(query.weights), 1)
        assert len(_depths(query, plan)) == 2  # both lists are cut
        full = search(index, "x y")
        top = full.matches[0]
        assert top.case_id == "d"
        for scale, spare, ordinals, ratios in plan:
            position = list(ordinals).index(index.doc_ids.index("d"))
            assert position == 2
            # the floor is at least the top score less the unread bound and SLACK
            assert scale * ratios[position] - spare < top.score - unread - SLACK
        for top_k in range(1, index.corpus_size + 1):
            cut = search(index, "x y", top_k=top_k)
            assert _hexes(cut) == (_hexes(full)[0][:top_k], full.total_matches)

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_the_unread_bound_stays_below_theta_less_slack(self, scale):
        # the lone list's cut, at the level theta / 2, leaves 0.7e-9 unread against
        # a theta of 1.5e-9: within SLACK of theta, so the list is read whole and
        # the plan is empty; scaled up, the same cut holds
        ratios = array("d", (r * scale for r in (3e-9, 1.5e-9, 0.7e-9, 1e-10)))

        class Stub:
            def impacts(self, term_id):
                return array("i", range(len(ratios))), ratios

        query = QueryVector({0: 1.0})
        plan, unread, theta = _cuts(Stub(), query, 1.0, 2)
        assert theta == ratios[1]
        cuts = _depths(query, plan)
        if plan:
            assert unread == sum(ratios[depth] for depth in cuts.values()) < theta - SLACK
        assert cuts == ({} if scale == 1.0 else {0: 2})
        assert (plan == []) == (scale == 1.0)


class TestSetCounting:
    """A set query's scores are those of summing 1.0 per list, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=_corpus_and_query())
    def test_scores_and_total_equal_a_sum_of_ones(self, drawn):
        titles, tokens = drawn
        cases = [Case(f"{n:03d}", " ".join(words)) for n, words in enumerate(titles)]
        index, _ = build_index(cases)
        query = index.vectorize_query(tokens, "set")
        query_norm = _norm(query.weights)
        union, reference = set(), {}
        for case, words in zip(cases, titles):
            dot = 0.0
            for tid in sorted(query.weights):
                if index.terms[tid] in words:
                    dot += 1.0
                    union.add(case.id)
            if dot:
                score = dot / (query_norm * math.sqrt(len(set(words))))
                reference[case.id] = min(score, 1.0)
        for threshold in (0.0, 0.3):
            above = sorted((-s, case_id) for case_id, s in reference.items() if s > threshold)
            if threshold == 0.0:
                assert len(above) == len(union)
            for top_k in (None, 1, 3):
                results = search(
                    index, " ".join(tokens), scorer="set", threshold=threshold, top_k=top_k
                )
                assert results.total_matches == len(above)
                assert [(m.case_id, m.score.hex(), m.rank) for m in results.matches] == [
                    (case_id, (-negated).hex(), position)
                    for position, (negated, case_id) in enumerate(above[:top_k], start=1)
                ]


# up to 11 distinct words a title, so a document can hold all 9 words of a
# query and its count of lists carries into a fourth bit slice
_CELL_WORDS = [f"kata{i}" for i in range(11)]


@st.composite
def _cells_corpus_and_query(draw):
    size = draw(st.integers(min_value=2, max_value=45).filter(lambda n: n % 8))
    # a title is a nonempty subset of the words, drawn as one bit mask
    masks = draw(st.lists(st.integers(1, 2 ** len(_CELL_WORDS) - 1), min_size=size, max_size=size))
    titles = [[word for i, word in enumerate(_CELL_WORDS) if mask >> i & 1] for mask in masks]
    words = sorted({word for title in titles for word in title})
    return titles, draw(st.lists(st.sampled_from(words), min_size=1, max_size=9, unique=True))


class TestSetCells:
    """A set query counted cell by cell ranks as the dense oracle does, bit for bit.

    A cell is the documents in the same number of the query's lists with the
    same number of distinct terms; all of them score alike.
    """

    @staticmethod
    def _check(titles, query, thresholds=(0.0,), top_ks=(None, 1, 2, 3, 5, 8)):
        doc_tokens = {f"{n:03d}": words for n, words in enumerate(titles)}
        index, _ = build_index(corpus_cases(doc_tokens))
        oracle = DenseOracle(doc_tokens)
        for threshold in thresholds:
            expected = [
                (doc_id, score.hex())
                for doc_id, score in oracle.rank(query, threshold=threshold, scorer="set")
            ]
            for top_k in top_ks:
                results = search(
                    index, " ".join(query), scorer="set", threshold=threshold, top_k=top_k
                )
                assert results.total_matches == len(expected)
                assert [(m.case_id, m.score.hex()) for m in results.matches] == expected[:top_k]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=_cells_corpus_and_query())
    def test_cells_rank_as_the_dense_oracle(self, drawn):
        titles, query = drawn
        doc_tokens = {f"{n:03d}": words for n, words in enumerate(titles)}
        scores = sorted({score for _, score in DenseOracle(doc_tokens).rank(query, scorer="set")})
        # thresholds between two cells' scores: the cells below them neither count nor rank
        between = [(low + high) / 2 for low, high in zip(scores, scores[1:])]
        self._check(titles, query, thresholds=(0.0, *between[:2]))

    def test_equal_scores_of_two_cells_rank_together(self):
        # one list of one term scores 1 / (sqrt(2) * 1), two of four terms
        # 2 / (sqrt(2) * 2): the same float. The cut at 2 falls inside the
        # first cell, and the second holds the lower case ids
        titles = [["a", "b", "c", "d"], ["a", "b", "c", "d"], ["a"], ["a"], ["a"]]
        assert 1 / (math.sqrt(2) * math.sqrt(1)) == 2 / (math.sqrt(2) * math.sqrt(4))
        self._check(titles, ["a", "b"], top_ks=(None, 1, 2, 3))
        index, _ = build_index(corpus_cases({f"{n}": t for n, t in enumerate(titles)}))
        results = search(index, "a b", scorer="set", top_k=2)
        assert [m.case_id for m in results.matches] == ["0", "1"]

    @staticmethod
    def _decodes(monkeypatch, titles, query, top_k):
        """The documents in each cell that ranking *query* decodes, and its matches."""
        index, _ = build_index(corpus_cases({f"{n}": t for n, t in enumerate(titles)}))
        decoded = []

        def counting(bits):
            decoded.append(bits.bit_count())
            return _ordinals(bits)

        monkeypatch.setattr(similarity, "_ordinals", counting)
        results = search(index, " ".join(query), scorer="set", top_k=top_k)
        return decoded, [m.case_id for m in results.matches]

    def test_a_best_cell_of_top_k_documents_is_decoded_alone(self, monkeypatch):
        # three titles equal to the query make the best cell; four others hold one of its terms
        titles = [["a", "b"]] * 3 + [["a", "c"], ["b", "c"], ["a"], ["b"]]
        assert self._decodes(monkeypatch, titles, ["a", "b"], top_k=3) == ([3], ["0", "1", "2"])

    @pytest.mark.parametrize(
        "top_k, decoded", [(1, [5]), (2, [5]), (5, [5]), (6, [5, 1]), (7, [5, 1])]
    )
    def test_equal_scores_of_two_cells_are_decoded_together(self, monkeypatch, top_k, decoded):
        # the corpus of test_equal_scores_of_two_cells_rank_together, and one title
        # of cell (1, 2) below it: cells (1, 1) and (2, 4) score alike, so they
        # are one bitmap of five documents, decoded whole wherever the cut falls
        # in it; the lower cell is decoded only for a cut below those five
        titles = [["a", "b", "c", "d"], ["a", "b", "c", "d"], ["a"], ["a"], ["a"], ["a", "e"]]
        found, matches = self._decodes(monkeypatch, titles, ["a", "b"], top_k=top_k)
        assert found == decoded
        assert matches == ["0", "1", "2", "3", "4", "5"][:top_k]

    def test_nine_lists_carry_into_a_fourth_slice(self):
        query = [f"kata{i}" for i in range(9)]
        titles = [query, query[:8], query[:8] + ["lain"], query[:7], query[:1], ["lain"]]
        titles += [query[:4], query[3:], ["kata0", "lain"]]
        self._check(titles, query, thresholds=(0.0, 0.5), top_ks=(None, 1, 2, 4))
