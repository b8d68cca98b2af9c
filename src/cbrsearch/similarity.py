"""Query-document scorers and the ranking pipeline.

Two scorers are provided. The default weighted cosine works over TF-IDF
vectors; the set-overlap scorer compares the bare term sets,
``|X ∩ Y| / (sqrt(|X|) * sqrt(|Y|))``, which is exactly the cosine of the
corresponding 0/1 incidence vectors. Both return values in [0, 1], both are
symmetric, and both are invariant to positive per-vector scaling of weights.

Ranking runs both scorers through one cosine accumulator: a set query is a
:class:`QueryVector` of 1.0 weights, and its documents read 1.0 for every
posting and ``sqrt(distinct terms)`` as their norm. Documents are reached
through the index's ordinal-keyed postings, so per-query state is a list
indexed by document ordinal rather than a dict keyed by case id. With a
``top_k`` the best matches are selected without a full sort of the
candidates; in every case ties still break by ascending case id.

Scoring is one pass over the query's posting lists less a skip set
(:func:`_score`). For a cosine query of two or more terms with a ``top_k``
and a threshold of 0, MaxScore skips the lists of terms too weak to lift a
document into the top ``top_k``, and only documents that can still rank
are scored. Every other query skips nothing: set queries, whose term
bounds are all ``1 / sqrt(distinct terms)``, too loose to skip much;
single-term queries; thresholds above 0; and queries without ``top_k``.
Matches, scores and ``total_matches`` are bit-identical either way.

:class:`RankedMatch` and :class:`RankedResults` are immutable named tuples.
Iterate over ``results.matches``: the results themselves unpack into their
five fields.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Mapping
from itertools import chain, repeat

from .index import SCORERS, Index, QueryVector

SLACK = 1e-9  # room left in every bound check for rounding


class RankedMatch(namedtuple("RankedMatch", "case_id score rank")):
    __slots__ = ()
    case_id: str
    score: float
    rank: int


class RankedResults(
    namedtuple("RankedResults", "matches total_matches scorer threshold dropped_terms")
):
    """Ordered matches for one query.

    ``total_matches`` counts every document scoring above the threshold,
    before any top-k truncation. Empty results still carry ``dropped_terms``
    so a query that lost all its tokens is distinguishable from one that
    simply matched nothing. Iterate over ``matches``: the results themselves
    are a tuple of these five fields.
    """

    __slots__ = ()
    matches: tuple[RankedMatch, ...]
    total_matches: int
    scorer: str
    threshold: float
    dropped_terms: tuple[str, ...]

    def __bool__(self) -> bool:
        return bool(self.matches)

    @property
    def top(self) -> RankedMatch | None:
        return self.matches[0] if self.matches else None


def _norm(vector: Mapping) -> float:
    total = 0.0
    for key in sorted(vector):
        value = vector[key]
        total += value * value
    return math.sqrt(total)


def cosine_similarity(x: Mapping, y: Mapping) -> float:
    """Cosine of the angle between two nonnegative sparse vectors.

    Returns 0.0 when either vector is zero or empty. The result is clamped
    to 1.0 to absorb last-bit rounding on identical-direction vectors.
    """
    if not x or not y:
        return 0.0
    if len(x) > len(y):
        x, y = y, x
    dot = 0.0
    for key in sorted(x):  # fixed order keeps sums reproducible
        if key in y:
            dot += x[key] * y[key]
    if dot == 0.0:
        return 0.0
    norm_x = _norm(x)
    norm_y = _norm(y)
    if norm_x == 0.0 or norm_y == 0.0:
        return 0.0
    return min(dot / (norm_x * norm_y), 1.0)


def set_similarity(x, y) -> float:
    """Overlap of two term sets: ``|X ∩ Y| / (sqrt(|X|) * sqrt(|Y|))``.

    Returns 0.0 when either set is empty.
    """
    if not x or not y:
        return 0.0
    shared = len(x & y)
    if shared == 0:
        return 0.0
    return min(shared / (math.sqrt(len(x)) * math.sqrt(len(y))), 1.0)


def _skippable(
    index: Index, query: QueryVector, query_norm: float, threshold: float, top_k: int | None
) -> tuple[set[int], float, float]:
    """Which query terms' posting lists to skip: MaxScore (Turtle & Flood).

    Term ``t`` adds at most its bound,
    ``weight * term_ratios(t)[0] / query_norm``, to any score, and the
    ``top_k``-th of its ratios gives ``top_k`` documents at least that much,
    so the best such value over the query's terms is a lower bound theta of
    the ``top_k``-th best score. The lowest-bound terms whose bounds sum
    below theta are skipped: a document only they reach cannot rank or tie.
    Returns the skipped term ids, the sum of their bounds and theta.

    The queries the module docstring names skip nothing (a lone term's bound
    is never below theta), and so does a hand-built query with a term whose
    bound is not positive: a term that adds nothing still widens the union.
    A term of idf 0 is one such, and it is caught before its ratios, whose
    documents may have zero norms, are computed.
    """
    weights = query.weights
    if query.scorer == "set" or threshold > 0.0 or top_k is None or len(weights) < 2:
        return set(), 0.0, 0.0
    if not query_norm or _has_idf_0(index, weights):
        return set(), 0.0, 0.0
    tids = sorted(weights)
    ratios = {tid: index.term_ratios(tid) for tid in tids}
    bounds = {tid: weights[tid] * ratios[tid][0] / query_norm for tid in tids}
    if min(bounds.values()) <= 0.0:
        return set(), 0.0, 0.0
    deep = [tid for tid in tids if len(ratios[tid]) >= top_k]
    theta = max((weights[tid] * ratios[tid][top_k - 1] / query_norm for tid in deep), default=0.0)
    skipped, reach = set(), 0.0
    for tid in sorted(tids, key=bounds.__getitem__):
        if reach + bounds[tid] >= theta - SLACK:
            break
        reach += bounds[tid]
        skipped.add(tid)
    return skipped, reach, theta


def _score(
    index: Index, query: QueryVector, threshold: float, top_k: int | None
) -> tuple[list[int], list[float], int]:
    """Ordinals and scores of the documents that can match, and the match count.

    Dot products accumulate term at a time, in ascending term id, over the
    lists :func:`_skippable` keeps; a set query scores 1.0 for every posting
    against the set norms. With nothing skipped, the result is every
    document scoring above *threshold*. With lists skipped, theta rises to
    the ``top_k``-th best partial score, and a candidate whose partial score
    plus every skipped bound falls below theta is dropped. Rounding cannot
    push a partial sum of nonnegative terms above the full sum, and every
    bound check keeps :data:`SLACK` to spare. A survivor in no skipped list
    already holds its exact score; any other is scored again by
    :meth:`Index.dot`, so every score is bit-identical, and the match count
    is the size of the union of all the query's lists. A document or a
    hand-built query of norm 0 scores 0.0, as in :func:`cosine_similarity`.

    Each per-candidate step (the scores, then the threshold filter or the
    theta cut) is one comprehension that indexes ``dots`` and ``norms`` by
    ordinal. On CPython 3.11 and later the scores run about twice as fast
    as through chained ``map`` calls, and the filters as fast as
    ``compress``; on 3.10 the two forms take about the same time.
    """
    weights = query.weights
    binary = query.scorer == "set"
    norms = index.ordinal_set_norms if binary else index.ordinal_norms
    query_norm = _norm(weights)
    skipped, reach, theta = _skippable(index, query, query_norm, threshold, top_k)
    dots = [0.0] * index.corpus_size
    union: set[int] = set()
    for tid in sorted(weights.keys() - skipped):
        query_weight = weights[tid]
        ordinals = index.postings[tid]
        doc_weights = repeat(1.0) if binary else index.posting_weights[tid]
        for ordinal, doc_weight in zip(ordinals, doc_weights):
            dots[ordinal] += query_weight * doc_weight
        union.update(ordinals)
    candidates = list(union)
    # dot / (query_norm * norm), clamped to 1.0 as min(score, 1.0) would
    if binary or query_norm and not _has_idf_0(index, weights):
        scores = [dots[o] / (query_norm * norms[o]) for o in candidates]
    else:  # a zero norm scores 0.0, as in cosine_similarity
        scores = [dots[o] / den if (den := query_norm * norms[o]) else 0.0 for o in candidates]
    if not skipped:
        scores = _clamp(scores)
        if scores and min(scores) <= threshold:
            candidates = [o for o, score in zip(candidates, scores) if score > threshold]
            scores = [score for score in scores if score > threshold]
        return candidates, scores, len(scores)

    # theta's own term has a bound of at least theta, so it was not skipped
    # and at least top_k candidates hold a partial score
    floor = max(theta, heapq.nlargest(top_k, scores)[-1]) - reach - SLACK
    candidates = [o for o, score in zip(candidates, scores) if score >= floor]
    scores = [score for score in scores if score >= floor]
    unseen = set(chain.from_iterable(map(index.postings.__getitem__, skipped)))
    total = len(union) + len(unseen) - len(unseen.intersection(union))
    stale = unseen.intersection(candidates)
    for position, ordinal in enumerate(candidates):
        if ordinal in stale:
            scores[position] = index.dot(ordinal, weights) / (query_norm * norms[ordinal])
    return candidates, _clamp(scores), total


def _has_idf_0(index: Index, weights: Mapping[int, float]) -> bool:
    """Whether a query holds a term found in every document, one of idf 0.

    Only a hand-built query can: :meth:`Index.vectorize_query` drops such
    terms from cosine queries. A document holding only such terms has a
    norm of 0.
    """
    frequencies, corpus_size = index.vocabulary.document_frequencies, index.corpus_size
    return any(frequencies[tid] == corpus_size for tid in weights)


def _clamp(scores: list[float]) -> list[float]:
    """``min(score, 1.0)`` for every score, bit for bit."""
    if scores and max(scores) > 1.0:
        return [1.0 if score > 1.0 else score for score in scores]
    return scores


def rank(
    index: Index,
    query: QueryVector,
    *,
    threshold: float = 0.0,
    top_k: int | None = None,
) -> RankedResults:
    """Score, filter, and order every candidate document for *query*.

    Only documents sharing at least one scored term with the query are
    materialized; everything else scores zero implicitly. Matches must score
    strictly above *threshold*. Ordering is by descending score with ties
    broken by ascending case id, and ``top_k`` truncates the list without
    changing the reported total; with ``top_k`` set, only the matches at or
    above the ``top_k``-th best score are paired with their case ids and
    sorted, so ties at the cut still break by case id.

    A ``top_k`` that is not an ``int`` (a ``bool`` included) raises
    TypeError; one below 1 raises ValueError. Scores lie in [0, 1], so a
    *threshold* below 0, or NaN, raises ValueError too. So does a query it
    cannot score: one whose scorer is not in ``SCORERS``, one with a term id
    outside ``range(len(index.vocabulary))``, or one whose weights have no
    finite norm (a NaN or infinite weight, or one whose square overflows).
    A query of norm 0 matches nothing.
    """
    if top_k is not None:
        if isinstance(top_k, bool) or not isinstance(top_k, int):
            raise TypeError(f"top_k must be an int, got {type(top_k).__name__}")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
    if not threshold >= 0.0:  # also true for NaN
        raise ValueError(f"threshold must be a number of at least 0, got {threshold!r}")
    if not isinstance(query, QueryVector):
        raise TypeError(f"query must be a QueryVector, got {type(query).__name__}")
    if query.scorer not in SCORERS:
        raise ValueError(f"unknown scorer: {query.scorer!r}")
    term_count = len(index.vocabulary)
    for tid in query.weights:
        if not 0 <= tid < term_count:
            raise ValueError(f"term id {tid} is not in the vocabulary of {term_count} terms")
    if not math.isfinite(_norm(query.weights)):
        raise ValueError("query weights must have a finite norm")
    index._derive(query.weights)
    ordinals, scores, total = _score(index, query, threshold, top_k)
    doc_ids = index.doc_ids
    if top_k is not None and top_k < len(scores):
        # only scores at or above the k-th best can rank in the top k
        cut = heapq.nlargest(top_k, scores)[-1]
        best = [(-score, doc_ids[o]) for o, score in zip(ordinals, scores) if score >= cut]
    else:
        best = [(-score, doc_ids[o]) for o, score in zip(ordinals, scores)]
    best = sorted(best)[:top_k]
    matches = tuple(
        RankedMatch(case_id=doc_id, score=-negated, rank=position)
        for position, (negated, doc_id) in enumerate(best, start=1)
    )
    return RankedResults(
        matches=matches,
        total_matches=total,
        scorer=query.scorer,
        threshold=threshold,
        dropped_terms=query.dropped_terms,
    )
