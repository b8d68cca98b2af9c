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
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, repeat
from operator import le, lt, neg, truediv

from .index import Index, QueryVector


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


def _score(index: Index, query: QueryVector) -> tuple[list[int], list[float]]:
    """Cosine scores for every document reachable through the postings.

    Dot products accumulate term at a time, in ascending term id, into a
    list indexed by document ordinal; the candidates are the union of the
    visited posting ordinals. A set query scores against 1.0 for every
    posting and the documents' set norms. Returns candidate ordinals and
    their scores.
    """
    if not query.weights:
        return [], []
    binary = query.scorer == "set"
    doc_norms = index.ordinal_set_norms if binary else index.ordinal_norms
    dots = [0.0] * index.corpus_size
    candidates: set[int] = set()
    query_norm = 0.0
    for tid in sorted(query.weights):
        query_weight = query.weights[tid]
        ordinals = index.postings[tid]
        doc_weights = repeat(1.0) if binary else index.posting_weights[tid]
        for ordinal, doc_weight in zip(ordinals, doc_weights):
            dots[ordinal] += query_weight * doc_weight
        candidates.update(ordinals)
        query_norm += query_weight * query_weight
    query_norm = math.sqrt(query_norm)
    ordinals = list(candidates)
    # dot / (query_norm * norm), clamped to 1.0 as min(score, 1.0) would
    denominators = map(query_norm.__mul__, map(doc_norms.__getitem__, ordinals))
    scores = list(map(truediv, map(dots.__getitem__, ordinals), denominators))
    return ordinals, _clamp(scores)


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
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be positive, got {top_k}")
    if not isinstance(query, QueryVector):
        raise TypeError(f"query must be a QueryVector, got {type(query).__name__}")
    ordinals, scores = _score(index, query)

    keep = list(map(lt, repeat(threshold), scores))
    total = keep.count(True)
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
