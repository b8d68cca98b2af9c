"""The ranking pipeline, :func:`rank`: scoring and the one selection of both scorers.

:func:`rank` is internal: :func:`cbrsearch.search`, the one query entry
point, passes it a query from :meth:`Index.vectorize_query` on the same
index, and only such a query is ranked. Its term ids are in range, its
weights are finite and above 0 (1.0 for the set scorer), and a cosine
query holds no term of idf 0. So every document in one of its posting
lists has a norm above 0, and every MaxScore bound is above 0.

The default weighted cosine works over TF-IDF vectors; the set-overlap
scorer compares the bare term sets, ``|X ∩ Y| / (sqrt(|X|) * sqrt(|Y|))``,
which is exactly the cosine of the corresponding 0/1 incidence vectors. Both
score in [0, 1], both are symmetric between two titles, and both are
invariant to positive per-vector scaling of weights. The dense oracle of the
test suite, ``tests/brute.py``, is their reference.

A set query is a :class:`QueryVector` of 1.0 weights, so a document's dot
product is ``m``, the number of the query's posting lists that hold it, and
its norm ``sqrt(j)`` for its ``j`` distinct terms. Both are small integers,
so the documents fall into a few cells ``(m, j)`` of one score each. They
are counted by bit-sliced addition over the lists' bitmaps
(:func:`_count`), with no per-posting step; the match count is one
popcount of the OR of the cells kept, and only the cells that can rank
become ordinals, through the decoder's byte walk, cheap for cells of few
documents. A cosine query reads the index's ordinal-keyed postings, so
its cost grows with the postings it reads, not with the corpus: a query
that reads whole lists accumulates its scores term at a time in a dict
keyed by document ordinal, and one that cuts them writes no entry per
posting. The selection is one path for both scorers: with a ``top_k`` the
best matches are selected without a full sort of the candidates, and in
every case ties still break by ascending case id.

A cosine query with a ``top_k`` and a threshold of 0 reads each posting
list only down to a cut, in impact order (:meth:`Index.impacts`): while
its next posting adds more than ``theta / (n + 1)``, for the query's ``n``
terms and a lower bound theta of the ``top_k``-th best score. The ``n``
first unread postings then add less than theta, so a document read in no
list cannot rank, and a weak term's list is not read at all, as MaxScore
skips it. :func:`_cuts` works out each cut once and hands :func:`_score`
the slices to read, its read plan. The documents the plan reads in two
lists or more are found by set intersections, and scored by
:meth:`Index.dot`; a document it reads in one list only is scored too if
what it adds there can still reach the top ``top_k``, and those documents
make a prefix of each list, found by bisection. ``total_matches`` is
counted from the lists' bitmaps (:meth:`Index.posting_bits`). Every
other cosine query reads every list whole: thresholds above 0, queries
without ``top_k``, and those whose plan is empty, as no list is cut or the
bound check fails. Matches, scores and ``total_matches`` are
bit-identical either way.

:class:`RankedMatch` and :class:`RankedResults` are immutable named tuples.
Iterate over ``results.matches``: the results themselves unpack into their
five fields.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import islice

from .index import Index, QueryVector, _ordinals

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


def _cuts(
    index: Index, query: QueryVector, query_norm: float, top_k: int
) -> tuple[list[tuple[float, float, Sequence[int], Sequence[float]]], float, float]:
    """The read plan of a cosine query with a ``top_k``: how far down each list to read.

    MaxScore (Turtle & Flood), generalized to per-list cuts over
    impact-ordered lists (Anh & Moffat). A document's score is the sum,
    over the query's terms, of ``weight / query_norm`` times its ratio in
    the term's :meth:`Index.impacts`. So a term's first ratio bounds what
    it adds to any document, and its ``top_k``-th gives ``top_k``
    documents at least that much: the best such value over the query's
    terms is a lower bound theta of the ``top_k``-th best score, as in
    Fagin, Lotem and Naor's threshold algorithm. Each of the query's ``n``
    lists is read while what its next posting adds is above the level
    ``theta / (n + 1)``, so what the first unread posting of each cut list
    adds, summed, is at most ``n * theta / (n + 1)``: below theta. A list
    whose bound is at most the level is not read at all: MaxScore's skip.
    That sum bounds what the unread postings add to any score, and it is
    checked to be below ``theta - SLACK``, so a document read in no list
    cannot rank or tie.

    Returns the plan, that bound and theta. The plan holds one entry per
    query term, in the query's order: ``(scale, spare, ordinals, ratios)``,
    the term's ``weight / query_norm``, what its first unread posting adds
    (0.0 for a list read whole), and the ordinals and ratios to read, the
    top of its impacts. The plan is empty when no list is cut, and when the
    bound check fails (a theta near 0, or rounding): every list is then
    read whole. A query of no terms has theta 0. Every spare of a cut list
    is above 0, as the query's terms have idf above 0 (see the module
    docstring).
    """
    lists = [(weight / query_norm, *index.impacts(tid)) for tid, weight in query.weights.items()]
    # what each list that is long enough adds with its top_k-th posting
    kth = (scale * ratios[top_k - 1] for scale, _, ratios in lists if len(ratios) >= top_k)
    theta = max(kth, default=0.0)
    level = theta / (len(lists) + 1)
    plan = []
    unread = 0.0
    for scale, ordinals, ratios in lists:
        # the first posting that adds no more than the level
        depth = bisect_left(ratios, -level, key=lambda ratio: -(scale * ratio))
        spare = scale * ratios[depth] if depth < len(ratios) else 0.0
        unread += spare
        plan.append((scale, spare, ordinals[:depth], ratios[:depth]))
    if not 0.0 < unread < theta - SLACK:  # 0.0 unread: no list is cut
        return [], unread, theta
    return plan, unread, theta


def _score(
    index: Index, query: QueryVector, query_norm: float, threshold: float, top_k: int | None
) -> tuple[list[int], list[float], int]:
    """Ordinals and scores of the documents that can match, and the match count.

    A set query is counted by :func:`_count`. A cosine query with a
    ``top_k`` and a threshold of 0 asks :func:`_cuts` for a read plan; when
    it gets one, a document's partial score is what each list of the plan
    that reads it adds, its ``weight / query_norm`` times the document's
    ratio, less the list's spare (what the list's first unread posting
    adds, its share of the unread bound), summed. A partial score plus that
    bound is at least the document's score: the lists that read it gave
    back their share. So a document whose partial score plus the bound
    falls below a lower bound of the ``top_k``-th best score, theta or a
    better one, cannot rank or tie; a document read in no list is below it
    already. Rounding moves a partial sum of a few terms by far less than
    :data:`SLACK`, which every bound check keeps to spare.

    The documents read by two lists or more, the shared ones, are found by
    set operations in C over the lists, shortest first (on CPython 3.11,
    about 88 ns a posting against about 145 ns for a dict write), and are
    all candidates. Every other document read is read by one list, and its
    partial score is the single value ``scale * ratio - spare``, which
    never rises along the list: a positive scale and a subtraction keep the
    ratios' descending order under rounding. So each list's first
    ``top_k`` unshared values are its best, and the ``top_k``-th best of
    them and of the shared documents' exact scores, each a lower bound of a
    distinct document's score, raises theta; theta's list reads ``top_k``
    documents, so there are that many values. The unshared documents that
    reach the floor so found make a prefix of each list, found by
    ``bisect_right``, and are the other candidates. No dict entry is
    written. Every candidate is scored by :meth:`Index.dot`, so every score
    is bit-identical to the exhaustive one, and :func:`rank` selects by
    score and case id, whatever the candidates' order. The match count is
    the set bits of the OR of every query term's :meth:`Index.posting_bits`.
    Every candidate's norm is above 0 (see the module docstring), and so is
    *query_norm*, ``_norm(query.weights)``, when there is a candidate at all.

    Every other cosine query, and one whose plan is empty, reads every list
    whole: it accumulates its dot products term at a time, in ascending
    term id, over the postings in a dict keyed by ordinal; a document's
    first add is ``0.0 + x``, as it would be in a list of zeros. The result
    is every document scoring above *threshold*, and the match count is
    their number.

    Each per-candidate step (the scores, then the threshold filter or a
    list's prefix) is one comprehension that indexes ``norms`` by ordinal
    or tests membership in the shared set. On CPython 3.11 and later the
    scores run about twice as fast as through chained ``map`` calls, and
    the filters as fast as ``compress``; on 3.10 the two forms take about
    the same time.
    """
    weights = query.weights
    if query.scorer == "set":
        return _count(index, weights, query_norm, threshold, top_k)
    norms = index.ordinal_norms
    if threshold == 0.0 and top_k is not None:
        plan, unread, theta = _cuts(index, query, query_norm, top_k)
        if plan:
            # the documents read by two lists or more, shortest lists first
            lists = sorted((ordinals for _, _, ordinals, _ in plan), key=len)
            seen, shared = set(), set()
            for ordinals in lists[:-1]:
                read = ordinals.tolist()
                shared.update(seen.intersection(read))
                seen.update(read)
            shared.update(seen.intersection(lists[-1].tolist()))
            candidates = list(shared)
            scores = [index.dot(o, weights) / (query_norm * norms[o]) for o in candidates]
            # every other document is read by one list, down which its partial score
            # never rises: each list's first top_k are its best, each value a lower
            # bound of a distinct document's score
            lows = scores.copy()
            for scale, spare, ordinals, ratios in plan:
                read = (scale * r - spare for o, r in zip(ordinals, ratios) if o not in shared)
                lows += islice(read, top_k)
            floor = max(theta, heapq.nlargest(top_k, lows)[-1]) - unread - SLACK
            single = []
            for scale, spare, ordinals, ratios in plan:
                # the list's single documents whose partial score reaches the floor
                depth = bisect_right(ratios, -floor, key=lambda r: -(scale * r - spare))
                single += [o for o in ordinals[:depth] if o not in shared]
            candidates += single
            scores += [index.dot(o, weights) / (query_norm * norms[o]) for o in single]
            bits = 0
            for tid in weights:
                bits |= index.posting_bits(tid)
            return candidates, _clamp(scores), bits.bit_count()
    dots = {}
    get = dots.get
    for tid in sorted(weights):
        query_weight = weights[tid]
        for ordinal, doc_weight in zip(index.postings[tid], index.posting_weights[tid]):
            dots[ordinal] = get(ordinal, 0.0) + query_weight * doc_weight
    candidates = list(dots)
    # dot / (query_norm * norm), clamped to 1.0 as min(score, 1.0) would
    scores = _clamp([dot / (query_norm * norms[o]) for o, dot in dots.items()])
    if scores and min(scores) <= threshold:
        candidates = [o for o, score in zip(candidates, scores) if score > threshold]
        scores = [score for score in scores if score > threshold]
    return candidates, scores, len(scores)


def _count(
    index: Index,
    weights: Mapping[int, float],
    query_norm: float,
    threshold: float,
    top_k: int | None,
) -> tuple[list[int], list[float], int]:
    """:func:`_score` for a set query, by bit-sliced addition over its posting bitmaps.

    A document's dot product is ``m``, the number of the query's lists that
    hold it, and its norm ``sqrt(j)`` for its ``j`` distinct terms. A
    ripple-carry adder over the lists' :meth:`Index.posting_bits` keeps
    ``m`` in binary: ``slices[i]`` holds the documents whose ``m`` has bit
    ``i`` set (O'Neil & Quass's bit-sliced index). The documents of exactly
    ``m`` lists, ANDed with :meth:`Index.length_bits` for ``j``, make one
    cell, whose documents all score ``m / (query_norm * sqrt(j))``, clamped
    as :func:`_clamp` does. A sum of 1.0 per list is the integer ``m``
    exactly, and ``int / float`` converts it exactly, so these are the
    scores of summing 1.0s, bit for bit. Cells of equal scores are merged.

    The match count is the set bits of the OR of the cells above
    *threshold*: one popcount, as the cells are disjoint. Only the cells
    that can rank leave as ordinals, through :func:`_ordinals`: all of
    them without a ``top_k``; with one, those at or above the ``top_k``-th
    best score, whose cell is found by walking the cells in descending
    score, so a query whose best cell holds ``top_k`` documents decodes
    that cell alone.
    """
    slices: list[int] = []
    for tid in weights:
        carry = index.posting_bits(tid)
        for i, bits in enumerate(slices):
            slices[i], carry = bits ^ carry, bits & carry
        if carry:
            slices.append(carry)
    lengths = index.length_bits()
    cells: dict[float, int] = {}  # score -> the bitmap of its documents
    matched = 0  # the documents of every cell kept
    for m in range(1, min(len(weights) + 1, 1 << len(slices))):
        exact = -1  # all ones; m has a set bit, so some slice makes it nonnegative
        for i, bits in enumerate(slices):
            exact &= bits if m >> i & 1 else ~bits
        for j, bits in lengths.items():
            cell = exact & bits
            if cell:
                score = min(m / (query_norm * math.sqrt(j)), 1.0)
                if score > threshold:
                    cells[score] = cells.get(score, 0) | cell
                    matched |= cell
    ordinals: list[int] = []
    scores: list[float] = []
    for score in sorted(cells, reverse=True):
        if top_k is not None and len(ordinals) >= top_k:
            break
        found = _ordinals(cells[score])
        ordinals += found
        scores += [score] * len(found)
    return ordinals, scores, matched.bit_count()


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

    *query* is ``index.vectorize_query(...)`` on this same *index* (see the
    module docstring); nothing else is checked of it, and a query with no
    terms matches nothing. A ``top_k`` that is not an ``int`` (a ``bool``
    included) raises TypeError; one below 1 raises ValueError. Scores lie in
    [0, 1], so a *threshold* below 0, or NaN, raises ValueError too.
    """
    if top_k is not None:
        if isinstance(top_k, bool) or not isinstance(top_k, int):
            raise TypeError(f"top_k must be an int, got {type(top_k).__name__}")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
    if not threshold >= 0.0:  # also true for NaN
        raise ValueError(f"threshold must be a number of at least 0, got {threshold!r}")
    index._derive(query.weights)
    ordinals, scores, total = _score(index, query, _norm(query.weights), threshold, top_k)
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
