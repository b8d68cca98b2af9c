"""The query entry point and the retrieve / reuse / revise / retain cycle.

:func:`search` is the one query path: ``CaseBase.retrieve`` and the CLI's
``query`` and ``eval`` all answer queries through it.

A :class:`CaseBase` couples the stored cases with the index built over them;
the two can never drift apart because every mutation (`retain`, `revise`)
returns a *new* CaseBase with a freshly rebuilt index. Adding a document
changes the corpus size and with it every term's inverse document frequency,
so a full rebuild is both the simple and the correct move at this scale, and
it guarantees the result is identical to indexing the final case list from
scratch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DataError, StateError
from .index import Case, Index, IngestReport, build_index
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
    """Rank *index*'s documents against the query *text*.

    *text* is tokenized with ``index.config``, vectorized for *scorer* by
    :meth:`Index.vectorize_query` (an unknown scorer raises ValueError) and
    ranked by :func:`rank` with *threshold* and *top_k*.
    """
    query = index.vectorize_query(tokenize(text, index.config), scorer)
    return rank(index, query, threshold=threshold, top_k=top_k)


@dataclass(frozen=True)
class RetrievalOutcome:
    """Ranked matches plus the full record of the best one, if any."""

    results: RankedResults
    top_case: Case | None


@dataclass(frozen=True)
class ReuseResult:
    """The reusable part of the best match.

    ``title_only`` is True when the case stored no solution and its title
    stands in for one.
    """

    case_id: str
    text: str
    score: float
    title_only: bool


class CaseBase:
    """Immutable collection of cases plus the index snapshot built over them.

    Reads (`retrieve`) are safe from any number of concurrent callers.
    `retain` and `revise` never touch an existing value; publishing the new
    CaseBase to readers is the embedding application's single-writer job.
    """

    __slots__ = ("cases", "config", "index", "report", "_by_id")

    def __init__(self, cases: Sequence[Case], config: PreprocessConfig | None = None):
        config = config if config is not None else PreprocessConfig()
        cases = tuple(cases)
        index, report = build_index(cases, config)
        self.cases: tuple[Case, ...] = cases
        self.config = config
        self.index: Index = index
        self.report: IngestReport = report
        self._by_id = {case.id: case for case in cases}

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
        id: str | None = None,
        title: str | None = None,
        solution: str | None = None,
        meta: Mapping[str, str] | None = None,
    ) -> "CaseBase":
        """Return a new CaseBase with the named case edited.

        Fields left as None keep their current value. The id cannot change,
        and the edited title must still produce at least one token.
        """
        current = self.case(case_id)
        if id is not None and id != case_id:
            raise DataError(f"revise cannot change the case id ({case_id!r} -> {id!r})")
        edited = Case(
            id=case_id,
            title=current.title if title is None else title,
            solution=current.solution if solution is None else solution,
            meta=current.meta if meta is None else meta,
        )
        if not tokenize(edited.title, self.config):
            raise DataError(f"revised title for case {case_id!r} tokenizes to empty")
        new_cases = tuple(edited if case.id == case_id else case for case in self.cases)
        return CaseBase(new_cases, self.config)

    def retain(self, new_case: Case) -> "CaseBase":
        """Return a new CaseBase with *new_case* appended and indexed.

        The rebuilt index recomputes document frequencies and every weight,
        since the corpus size changed.
        """
        if new_case.id in self._by_id:
            raise DataError(f"duplicate case id: {new_case.id!r}")
        if not tokenize(new_case.title, self.config):
            raise DataError(f"title of case {new_case.id!r} tokenizes to empty")
        return CaseBase(self.cases + (new_case,), self.config)


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
