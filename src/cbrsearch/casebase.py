"""The query entry point and the retrieve / reuse / revise / retain cycle.

:func:`search` is the one query path: ``CaseBase.retrieve`` and the CLI's
``query`` and ``eval`` all answer queries through it.

A :class:`CaseBase` couples the stored cases with the index built over them;
the two can never drift apart because every mutation (`retain`, `revise`)
returns a *new* CaseBase whose index equals one built from its case list
from scratch. `retain` gets there from the stored count rows: it tokenizes
only the new title and recomputes document frequencies and every weight
once, since the corpus size changed. `revise` keeps the index when the
title does not change and rebuilds it when it does, since an edited title
can reorder the terms' first occurrences.

:class:`RetrievalOutcome` and :class:`ReuseResult` are immutable named
tuples.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence

from .errors import DataError, StateError
from .index import Case, Index, IngestReport, _extend_fields, _fully_derived, build_index
from .preprocess import PreprocessConfig, tokenize
from .similarity import RankedResults, rank


def search(
    index: Index,
    text: str,
    *,
    scorer: str = "cosine",
    threshold: float = 0.0,
    top_k: int | None = None,
) -> RankedResults:
    """Rank *index*'s documents against the query *text*: the one query entry point.

    *text* is tokenized with ``index.config``, vectorized for *scorer* by
    :meth:`Index.vectorize_query` (an unknown scorer raises ValueError) and
    ranked by the internal :func:`~cbrsearch.similarity.rank` with
    *threshold* and *top_k*. A *top_k* that is not an ``int`` raises
    TypeError and one below 1 ValueError; a negative or NaN *threshold*
    raises ValueError. A query whose every token is dropped matches nothing.
    """
    query = index.vectorize_query(tokenize(text, index.config), scorer)
    return rank(index, query, threshold=threshold, top_k=top_k)


class RetrievalOutcome(namedtuple("RetrievalOutcome", "results top_case")):
    """Ranked matches plus the full record of the best one, if any."""

    __slots__ = ()
    results: RankedResults
    top_case: Case | None


class ReuseResult(namedtuple("ReuseResult", "case_id text score title_only")):
    """The reusable part of the best match.

    ``title_only`` is True when the case stored no solution and its title
    stands in for one.
    """

    __slots__ = ()
    case_id: str
    text: str
    score: float
    title_only: bool


class CaseBase:
    """Immutable collection of cases plus the index snapshot built over them.

    ``config`` is the index's own: the one given, or :func:`build_index`'s
    default when none is.

    Reads (`retrieve`) are safe from any number of concurrent callers.
    `retain` and `revise` never touch an existing value; publishing the new
    CaseBase to readers is the embedding application's single-writer job.
    """

    __slots__ = ("cases", "config", "index", "report", "_by_id")

    def __init__(self, cases: Sequence[Case], config: PreprocessConfig | None = None):
        cases = tuple(cases)
        self._fill(cases, *build_index(cases, config))

    def _fill(self, cases: tuple[Case, ...], index: Index, report: IngestReport) -> None:
        self.cases: tuple[Case, ...] = cases
        self.config: PreprocessConfig = index.config
        self.index: Index = index
        self.report: IngestReport = report
        self._by_id = {case.id: case for case in cases}

    def _with(self, cases: tuple[Case, ...], index: Index, report: IngestReport) -> "CaseBase":
        """A new CaseBase over *cases* that takes *index* and *report* as given."""
        base = object.__new__(CaseBase)
        base._fill(cases, index, report)
        return base

    def __len__(self) -> int:
        return len(self.cases)

    def __repr__(self) -> str:
        return f"CaseBase({len(self.cases)} cases, {self.index.corpus_size} indexed)"

    def case(self, case_id: str) -> Case:
        case = self._by_id.get(case_id)
        if case is None:
            raise KeyError(f"unknown case id: {case_id!r}")
        return case

    def retrieve(
        self,
        query_text: str,
        *,
        scorer: str = "cosine",
        threshold: float = 0.0,
        top_k: int | None = None,
    ) -> RetrievalOutcome:
        """Find stored cases similar to *query_text*.

        The matches are :func:`search` over the base's index; the rank-1
        case record rides along for the reuse step.
        """
        results = search(self.index, query_text, scorer=scorer, threshold=threshold, top_k=top_k)
        top_case = self._by_id[results.matches[0].case_id] if results.matches else None
        return RetrievalOutcome(results=results, top_case=top_case)

    def revise(
        self,
        case_id: str,
        *,
        title: str | None = None,
        solution: str | None = None,
        meta: Mapping[str, str] | None = None,
    ) -> "CaseBase":
        """Return a new CaseBase with the named case edited.

        Fields left as None keep their current value. The case keeps
        *case_id*, and the edited title must still produce at least one
        token. An edit that keeps the title keeps the index and report as
        they are.
        """
        current = self.case(case_id)
        edited = Case(
            id=case_id,
            title=current.title if title is None else title,
            solution=current.solution if solution is None else solution,
            meta=current.meta if meta is None else meta,
        )
        if not tokenize(edited.title, self.config):
            raise DataError(f"revised title for case {case_id!r} tokenizes to empty")
        new_cases = tuple(edited if case.id == case_id else case for case in self.cases)
        if edited.title == current.title:
            return self._with(new_cases, self.index, self.report)
        return CaseBase(new_cases, self.config)

    def retain(self, new_case: Case) -> "CaseBase":
        """Return a new CaseBase with *new_case* appended and indexed.

        The new index extends ``index.fields``: the stored count rows plus
        one row for *new_case*, whose title is the only one tokenized;
        document frequencies and every weight are recomputed once, since the
        corpus size changed. It equals a build of the new case list from
        scratch. An id that any stored case holds, skipped cases included,
        is refused first, then a title that tokenizes to empty, each with a
        :class:`DataError`: the order and the messages of ``cbrsearch add``.
        """
        if new_case.id in self._by_id:
            raise DataError(f"duplicate case id: {new_case.id!r}")
        grown = _fully_derived(_extend_fields(self.index.fields, new_case))
        report = IngestReport(
            indexed=grown.corpus_size,
            skipped=self.report.skipped,
            vocabulary_size=len(grown.terms),
        )
        return self._with(self.cases + (new_case,), grown, report)


def reuse(outcome: RetrievalOutcome) -> ReuseResult:
    """Project the best match's reusable part out of a retrieval outcome.

    Returns the top case's solution (or its title, flagged, when no solution
    is stored) together with the score it matched at.
    """
    if outcome.top_case is None:
        raise StateError("nothing to reuse: retrieval returned no matches")
    case = outcome.top_case
    score = outcome.results.matches[0].score
    if case.solution is not None:
        return ReuseResult(case_id=case.id, text=case.solution, score=score, title_only=False)
    return ReuseResult(case_id=case.id, text=case.title, score=score, title_only=True)
