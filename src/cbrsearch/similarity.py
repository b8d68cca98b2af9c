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

A cosine query of two or more terms with a ``top_k`` and a threshold of 0
takes an exact pruned path (MaxScore, :func:`_score_top`): it skips the
posting lists of terms too weak to lift a document into the top ``top_k``
and scores only the documents that can still rank. Its matches, scores and
``total_matches`` are bit-identical to the exhaustive path's. Set queries
take the exhaustive path: every term's bound there is
``1 / sqrt(distinct terms)``, too loose to skip much. So do single-term
queries, thresholds above 0 and queries without ``top_k``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import le, lt, neg, truediv

from .index import Index, QueryVector

SLACK = 1e-9  # room left in every bound check for rounding


@dataclass(frozen=True)
class RankedMatch:
    case_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedResults:
    """Ordered matches for one query.

    ``total_matches`` counts every document scoring above the threshold,
    before any top-k truncation. Empty results still carry ``dropped_terms``
    so a query that lost all its tokens is distinguishable from one that
    simply matched nothing.
    """

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


def _accumulate(index: Index, query: QueryVector, tids) -> tuple[list[float], set[int]]:
    """Dot products over the posting lists of the query terms *tids*.

    Accumulated term at a time, in the order of *tids*, into a list indexed
    by document ordinal; returned with the union of the visited ordinals. A
    set query scores 1.0 for every posting.
    """
    binary = query.scorer == "set"
    dots = [0.0] * index.corpus_size
    union: set[int] = set()
    for tid in tids:
        query_weight = query.weights[tid]
        ordinals = index.postings[tid]
        doc_weights = repeat(1.0) if binary else index.posting_weights[tid]
        for ordinal, doc_weight in zip(ordinals, doc_weights):
            dots[ordinal] += query_weight * doc_weight
        union.update(ordinals)
    return dots, union


def _score(index: Index, query: QueryVector) -> tuple[list[int], list[float]]:
    """Cosine scores for every document reachable through the postings.

    Dot products accumulate over every query term in ascending term id; the
    candidates are the union of the visited posting ordinals. A set query
    scores against the documents' set norms. Returns candidate ordinals and
    their scores.
    """
    if not query.weights:
        return [], []
    doc_norms = index.ordinal_set_norms if query.scorer == "set" else index.ordinal_norms
    dots, candidates = _accumulate(index, query, sorted(query.weights))
    query_norm = _norm(query.weights)
    ordinals = list(candidates)
    # dot / (query_norm * norm), clamped to 1.0 as min(score, 1.0) would
    denominators = map(query_norm.__mul__, map(doc_norms.__getitem__, ordinals))
    scores = list(map(truediv, map(dots.__getitem__, ordinals), denominators))
    return ordinals, _clamp(scores)


def _score_top(
    index: Index, query: QueryVector, top_k: int
) -> tuple[list[int], list[float], int] | None:
    """Exact cosine scores of every document that can rank in the top *top_k*.

    MaxScore pruning (Turtle & Flood). Term ``t`` adds at most its bound,
    ``weight * term_ratios(t)[0] / query_norm``, to any score, and the
    ``top_k``-th of its ratios gives ``top_k`` documents at least that much,
    so the best such value over the query's terms is a lower bound theta of
    the ``top_k``-th best score. The lowest-bound terms whose bounds sum
    below theta are skipped: a document only they reach cannot rank or tie.
    The rest accumulate as in :func:`_score`, theta rises to the
    ``top_k``-th best of those partial scores, and a candidate whose partial
    score plus every skipped bound falls below theta is dropped. Rounding
    cannot push a partial sum of nonnegative terms above the full sum, and
    every bound check keeps :data:`SLACK` to spare.

    A survivor in no skipped list already holds its exact score; any other
    is scored again by :meth:`Index.dot`, so every score is bit-identical to
    :func:`_score`'s. Returns the survivors, their scores and the size of
    the union of all the query's posting lists (the match count at
    threshold 0), or None when no list can be skipped, as for a query of
    one term. A query the exhaustive path must score, with a term whose
    bound is not positive (a hand-built one, with an idf-0 term or a
    weight of 0), also gets None.
    """
    weights = query.weights
    if len(weights) < 2:  # theta never exceeds a lone term's bound
        return None
    tids = sorted(weights)
    postings, norms = index.postings, index.ordinal_norms
    query_norm = _norm(weights)
    ratios = {tid: index.term_ratios(tid) for tid in tids}
    bounds = {tid: weights[tid] * ratios[tid][0] / query_norm for tid in tids}
    if min(bounds.values()) <= 0.0:  # a term that adds nothing still widens the union
        return None
    deep = [tid for tid in tids if len(ratios[tid]) >= top_k]
    theta = max((weights[tid] * ratios[tid][top_k - 1] / query_norm for tid in deep), default=0.0)
    skipped, reach = set(), 0.0
    for tid in sorted(tids, key=bounds.__getitem__):
        if reach + bounds[tid] >= theta - SLACK:
            break
        reach += bounds[tid]
        skipped.add(tid)
    if not skipped:
        return None

    dots, union = _accumulate(index, query, [tid for tid in tids if tid not in skipped])
    candidates = list(union)
    denominators = map(query_norm.__mul__, map(norms.__getitem__, candidates))
    partial = list(map(truediv, map(dots.__getitem__, candidates), denominators))
    # theta's own term has a bound of at least theta, so it was not skipped
    # and at least top_k candidates hold a partial score
    theta = max(theta, heapq.nlargest(top_k, partial)[-1])
    kept = list(map(le, repeat(theta - reach - SLACK), partial))
    survivors = list(compress(candidates, kept))
    scores = list(compress(partial, kept))
    unseen = set(chain.from_iterable(map(postings.__getitem__, skipped)))
    total = len(union) + len(unseen) - len(unseen.intersection(union))
    # a survivor in no skipped list already holds its exact score
    stale = unseen.intersection(survivors)
    for position, ordinal in enumerate(survivors):
        if ordinal in stale:
            scores[position] = index.dot(ordinal, weights) / (query_norm * norms[ordinal])
    return survivors, _clamp(scores), total


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
    changing the reported total; with ``top_k`` set, only the best ``top_k``
    are selected, without sorting every match.

    A ``top_k`` that is not an ``int`` (a ``bool`` included) raises
    TypeError; one below 1, or a NaN *threshold*, raises ValueError.
    """
    if top_k is not None:
        if isinstance(top_k, bool) or not isinstance(top_k, int):
            raise TypeError(f"top_k must be an int, got {type(top_k).__name__}")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if not isinstance(query, QueryVector):
        raise TypeError(f"query must be a QueryVector, got {type(query).__name__}")
    pruned = None
    if top_k is not None and threshold <= 0.0 and query.scorer == "cosine":
        pruned = _score_top(index, query, top_k)
    if pruned is None:
        ordinals, scores = _score(index, query)
        keep = list(map(lt, repeat(threshold), scores))
        total = keep.count(True)
    else:
        ordinals, scores, total = pruned
        keep = [True] * len(scores)
    if top_k is not None and top_k < total:
        # only scores at or above the k-th best can rank in the top k
        cut = heapq.nlargest(top_k, compress(scores, keep))[-1]
        keep = list(map(le, repeat(cut), scores))
    case_ids = map(index.doc_ids.__getitem__, compress(ordinals, keep))
    best = sorted(zip(map(neg, compress(scores, keep)), case_ids))[:top_k]
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
