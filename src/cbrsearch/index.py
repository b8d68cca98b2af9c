"""TF-IDF vector space over a corpus of cases.

A term's in-document frequency is its count divided by the document's token
total; its corpus weight multiplies that by ``log10(corpus_size / df)`` where
``df`` is the number of documents containing the term. Every document gets a
dense ordinal, its position in corpus order, and one count row: its distinct
term ids, ascending, and their counts. The rows are kept, and saved, as three
flat columns in compressed-sparse-row layout: ``row_lengths`` (term ids per
document), then ``term_ids`` and ``counts``, every row's entries in corpus
order; they are the only per-document record an index keeps. The postings
of a term are two parallel arrays: the ordinals of the documents containing
it, ascending, and their weights for the term; ``Index.doc_ids`` maps an
ordinal back to its case id. A query is one :class:`QueryVector` type for
both scorers (see :meth:`Index.vectorize_query`).

The :class:`Index` is an immutable snapshot: build it once, query it from any
number of readers, and construct a new one to change the corpus. An index is
its stored fields (:data:`Fields`, exactly what an index file holds), and
two indexes are equal when their fields are. ``Index(fields)`` derives df
and idf from them; the postings, weights and norms of a batch of terms come
from one scan of the count rows, on the first query that ranks them.
:func:`build_index` and :func:`extend_index`, which appends a case to the
stored count rows and tokenizes only the new title, each compute the fields
and then derive every term, so a long-lived reader never pays on first use;
a loaded index derives only what its queries rank. A writer that only saves
an index, as the command line's ``index`` and ``add`` do, computes the
fields alone.

The records, :class:`Case`, :class:`IngestReport`, :class:`DocumentVector`
and :class:`QueryVector`, are immutable named tuples. A :class:`Case` checks
its id when it is constructed and when ``_replace`` copies it.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from collections.abc import Container, Iterable, Mapping, Sequence
from itertools import accumulate, pairwise
from operator import truediv
from types import MappingProxyType

from .errors import DataError
from .preprocess import PreprocessConfig, tokenize

SCORERS = ("cosine", "set")

# what an index stores, and its value: config, terms (a term's id is its
# position), doc ids, titles, and the count rows as row lengths, term ids and
# counts
Fields = tuple[PreprocessConfig, list[str], list[str], list[str], list[int], list[int], list[int]]
# the last three fields, the count rows: row lengths, term ids and counts
Columns = tuple[list[int], list[int], list[int]]


class Case(namedtuple("Case", "id title solution meta")):
    """One stored problem: a title plus an optional reusable solution."""

    __slots__ = ()
    id: str
    title: str
    solution: str | None
    meta: Mapping[str, str] | None

    def __new__(
        cls,
        id: str,
        title: str,
        solution: str | None = None,
        meta: Mapping[str, str] | None = None,
    ):
        if not id:
            raise DataError("case id must be non-empty")
        return tuple.__new__(cls, (id, title, solution, meta))

    @classmethod
    def _make(cls, iterable) -> Case:
        # through __new__, so _replace checks the id as construction does
        return cls(*iterable)


class IngestReport(namedtuple("IngestReport", "indexed skipped vocabulary_size")):
    """What an index build did: how many cases went in, which were skipped."""

    __slots__ = ()
    indexed: int
    skipped: tuple[tuple[str, str], ...]  # (case_id, reason)
    vocabulary_size: int


class Vocabulary:
    """Bidirectional term <-> dense-id table with per-term document frequency.

    Ids run 0..len-1 in first-occurrence order over the corpus, so rebuilding
    from the same case sequence always reproduces the same ids.
    """

    __slots__ = ("_terms", "_df", "_ids")

    def __init__(self, terms: Sequence[str], document_frequencies: Sequence[int]):
        if len(terms) != len(document_frequencies):
            raise ValueError("terms and document_frequencies must align")
        self._terms = tuple(terms)
        self._df = tuple(document_frequencies)
        self._ids = {term: tid for tid, term in enumerate(self._terms)}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._terms == other._terms  # df is derived from the count rows

    def __repr__(self) -> str:
        return f"Vocabulary({len(self._terms)} terms)"

    @property
    def terms(self) -> tuple[str, ...]:
        return self._terms

    @property
    def document_frequencies(self) -> tuple[int, ...]:
        return self._df

    def lookup(self, term: str) -> int | None:
        """Term id, or None when the term was never indexed."""
        return self._ids.get(term)

    def term(self, term_id: int) -> str:
        return self._terms[term_id]


class DocumentVector(namedtuple("DocumentVector", "doc_id weights raw_counts token_total")):
    """Sparse weight vector for one document, as seen through ``Index.documents``.

    ``weights`` and ``raw_counts`` are keyed by term id in ascending order;
    ``token_total`` is the document's full token count, the denominator of
    every in-document frequency.
    """

    __slots__ = ()
    doc_id: str
    weights: dict[int, float]
    raw_counts: dict[int, int]
    token_total: int


class QueryVector(
    namedtuple("QueryVector", "weights dropped_terms scorer", defaults=((), "cosine"))
):
    """A query converted into the weight space of one scorer.

    ``weights`` maps term id to query weight; ``scorer`` names the document
    weights it is scored against. Tokens that carry no signal for the scorer
    are reported in ``dropped_terms`` (sorted, deduplicated) instead.
    """

    __slots__ = ()
    weights: dict[int, float]
    dropped_terms: tuple[str, ...]
    scorer: str


class Index:
    """Immutable snapshot of an indexed corpus, derived from its stored fields.

    Attributes:
        fields: the stored fields (:data:`Fields`) the index was constructed
            from; its value, and what equality compares.
        config: preprocessing settings the corpus was tokenized with.
        vocabulary: term table with document frequencies.
        doc_ids: ordinal -> doc_id; ordinals number documents in corpus order.
        titles: doc_id -> original title, for display, in corpus order.
        row_offsets: ordinal -> where the document's count row starts in
            ``term_ids`` and ``counts``; one entry more than documents, so
            a row ends where the next starts.
        term_ids: every count row's term ids, ascending within a row.
        counts: every count row's counts, parallel to ``term_ids``.
        postings: term_id -> ``array('i')`` of document ordinals, ascending;
            None until :meth:`_derive` posts the term.
        posting_weights: term_id -> ``array('d')`` of the documents' weights
            for the term, parallel to ``postings[term_id]``; None until posted.
        ordinal_norms: ordinal -> L2 norm of the document's weight vector;
            None until a term the document holds is posted.
        ordinal_set_norms: ordinal -> L2 norm of the document's 0/1 incidence
            vector, ``sqrt(distinct terms)``.

    ``documents`` and ``norms`` are read-only, id-keyed views derived on
    first access; nothing on the query, load or save path reads them.
    ``norms``, :meth:`term_ratios` (which caches one array per term) and
    :func:`rank` derive the terms they read first, so no underived entry is
    ever read; ``documents`` reads only the count rows.
    """

    __slots__ = (
        "fields",
        "config",
        "vocabulary",
        "doc_ids",
        "titles",
        "row_offsets",
        "term_ids",
        "counts",
        "postings",
        "posting_weights",
        "ordinal_norms",
        "ordinal_set_norms",
        "_idf",
        "_documents",
        "_norms",
        "_ratios",
    )

    def __init__(self, fields: Fields):
        """Derive the cheap tables from *fields*: df, idf and the set norms.

        The document ``doc_ids[ordinal]`` holds the next
        ``row_lengths[ordinal]`` entries of ``term_ids``, ascending, and of
        ``counts``; every term id must occur in some row. Postings, their
        weights and the norms are left to :meth:`_derive`.
        """
        config, id_to_term, doc_ids, titles, row_lengths, term_ids, counts = fields
        df = [0] * len(id_to_term)
        for tid in term_ids:
            df[tid] += 1
        corpus_size = len(row_lengths)
        self.fields = fields
        self.config = config
        self.vocabulary = Vocabulary(id_to_term, df)
        self.doc_ids: tuple[str, ...] = tuple(doc_ids)
        self.titles: dict[str, str] = dict(zip(self.doc_ids, titles))
        self.row_offsets = [0, *accumulate(row_lengths)]
        self.term_ids = term_ids
        self.counts = counts
        self.postings: list[array | None] = [None] * len(id_to_term)
        self.posting_weights: list[array | None] = [None] * len(id_to_term)
        self.ordinal_norms: list[float | None] = [None] * corpus_size
        # roots taken in one pass keep these floats together in memory: a set
        # query reads one per candidate, and scattered among per-document
        # allocations they made set-scorer ranking about 15% slower
        self.ordinal_set_norms = list(map(math.sqrt, row_lengths))
        self._idf = [math.log10(corpus_size / count) for count in df]
        self._documents: Mapping[str, DocumentVector] | None = None
        self._norms: Mapping[str, float] | None = None
        self._ratios: dict[int, array] = {}

    def _derive(self, term_ids: Iterable[int]) -> None:
        """Post the unposted terms of *term_ids*, and norm their documents, in one row scan.

        Postings are appended while walking the rows, so every posting array
        comes out ascending by ordinal without a sort, and every index, built,
        loaded or extended, computes weights through this one floating-point
        path. A term's arrays are published, postings last, only once they
        and its documents' norms are complete, so concurrent readers may
        derive the same term twice but never read half a table.
        """
        postings, idf, norms = self.postings, self._idf, self.ordinal_norms
        wanted = {tid for tid in term_ids if postings[tid] is None}
        if not wanted:
            return
        # term id -> the arrays being filled, None for a term not wanted; two
        # lists, not one of pairs: freed pairs left holes among the arrays
        # and raised peak memory by about 0.4 MB at 100k titles
        ordinal_slots: list[array | None] = [None] * len(postings)
        weight_slots: list[array | None] = [None] * len(postings)
        for tid in wanted:
            ordinal_slots[tid], weight_slots[tid] = array("i"), array("d")
        some = len(wanted) < len(postings)
        all_tids, all_counts = self.term_ids, self.counts
        for ordinal, (start, end) in enumerate(pairwise(self.row_offsets)):
            tids = all_tids[start:end]
            if some and wanted.isdisjoint(tids):
                continue
            counts = all_counts[start:end]
            token_total = sum(counts)
            norm_sq = 0.0
            for tid, count in zip(tids, counts):
                weight = (count / token_total) * idf[tid]
                norm_sq += weight * weight
                ordinals = ordinal_slots[tid]
                if ordinals is not None:
                    ordinals.append(ordinal)
                    weight_slots[tid].append(weight)
            norms[ordinal] = math.sqrt(norm_sq)
        for tid in wanted:
            self.posting_weights[tid] = weight_slots[tid]
            postings[tid] = ordinal_slots[tid]  # last: a posted term is complete

    def __repr__(self) -> str:
        return f"Index({self.corpus_size} documents, {len(self.vocabulary)} terms)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return self.fields == other.fields

    @property
    def corpus_size(self) -> int:
        return len(self.doc_ids)

    @property
    def documents(self) -> Mapping[str, DocumentVector]:
        """doc_id -> DocumentVector, in corpus order (a read-only view).

        Weights are recomputed from the count rows by :meth:`_row_weights`,
        so they equal the posted weights bit for bit.
        """
        if self._documents is None:
            documents = {}
            for ordinal, doc_id in enumerate(self.doc_ids):
                raw = dict(zip(*self._row(ordinal)))
                weights = self._row_weights(ordinal)
                documents[doc_id] = DocumentVector(doc_id, weights, raw, sum(raw.values()))
            self._documents = MappingProxyType(documents)
        return self._documents

    @property
    def norms(self) -> Mapping[str, float]:
        """doc_id -> ``ordinal_norms`` entry (a read-only view)."""
        if self._norms is None:
            self._derive(range(len(self.postings)))
            self._norms = MappingProxyType(dict(zip(self.doc_ids, self.ordinal_norms)))
        return self._norms

    def term_ratios(self, term_id: int) -> array:
        """Every ``weight / norm`` over the postings of *term_id*, descending.

        What a document's normalized vector holds in the term's coordinate,
        so the first entry times the query weight bounds what the term adds
        to any cosine dot product, and the k-th is met or beaten by k
        documents. Computed on first use and cached; defined for terms with
        nonzero idf, whose documents all have nonzero norms.
        """
        ratios = self._ratios.get(term_id)
        if ratios is None:
            self._derive((term_id,))
            norms = map(self.ordinal_norms.__getitem__, self.postings[term_id])
            ratios = map(truediv, self.posting_weights[term_id], norms)
            ratios = array("d", sorted(ratios, reverse=True))
            self._ratios[term_id] = ratios
        return ratios

    def dot(self, ordinal: int, weights: Mapping[int, float]) -> float:
        """Dot product of term-id-keyed *weights* with document *ordinal*.

        Summed from 0.0 in ascending term id over the document's count row,
        weighted by :meth:`_row_weights` and filtered to the terms of
        *weights*, so it equals an accumulation over the postings bit for
        bit. No weight is computed for a row term outside *weights*.
        """
        total = 0.0  # a loop, not sum(), which compensates its rounding from 3.12
        for tid, weight in self._row_weights(ordinal, weights).items():
            total += weights[tid] * weight
        return total

    def _row(self, ordinal: int) -> tuple[list[int], list[int]]:
        """The term ids and the counts of document *ordinal*'s count row."""
        start, end = self.row_offsets[ordinal : ordinal + 2]
        return self.term_ids[start:end], self.counts[start:end]

    def _row_weights(self, ordinal: int, only: Container[int] | None = None) -> dict[int, float]:
        """Term id -> weight over row *ordinal*, by the expression :meth:`_derive` posts.

        With *only*, a container of term ids, the row's other terms are left
        out; the token total, and so every weight, still counts the whole row.
        :attr:`documents` and :meth:`dot` read their weights here.
        """
        tids, counts = self._row(ordinal)
        token_total = sum(counts)
        idf = self._idf
        return {
            tid: (count / token_total) * idf[tid]
            for tid, count in zip(tids, counts)
            if only is None or tid in only
        }

    def term_frequency(self, term: str, doc_id: str) -> float:
        """In-document frequency: count of *term* over the doc's token total.

        Returns 0.0 for a term absent from the document; raises KeyError for
        an unknown document.
        """
        doc = self.documents.get(doc_id)
        if doc is None:
            raise KeyError(f"document not indexed: {doc_id!r}")
        tid = self.vocabulary.lookup(term)
        if tid is None:
            return 0.0
        return doc.raw_counts.get(tid, 0) / doc.token_total

    def vectorize_query(self, tokens: Sequence[str], scorer: str = "cosine") -> QueryVector:
        """Convert query tokens into the weight space of *scorer*.

        For ``"cosine"`` the query's own token count is the frequency
        denominator, mirroring how documents are weighted, and the corpus idf
        table supplies the second factor; unknown and zero-idf tokens go to
        ``dropped_terms``. For ``"set"`` every indexed term weighs 1.0,
        zero-idf terms included, and only unknown tokens are dropped. Any
        other scorer name raises ValueError.
        """
        if scorer not in SCORERS:
            raise ValueError(f"unknown scorer: {scorer!r}")
        counts: dict[int, int] = {}
        dropped: set[str] = set()
        for token in tokens:
            tid = self.vocabulary.lookup(token)
            if tid is None:
                dropped.add(token)
            else:
                counts[tid] = counts.get(tid, 0) + 1
        token_total = len(tokens)
        weights: dict[int, float] = {}
        for tid in sorted(counts):
            if scorer == "set":
                weights[tid] = 1.0
            elif self._idf[tid] == 0.0:
                dropped.add(self.vocabulary.term(tid))
            else:
                weights[tid] = (counts[tid] / token_total) * self._idf[tid]
        return QueryVector(weights, tuple(sorted(dropped)), scorer)


def build_index(
    cases: Iterable[Case], config: PreprocessConfig | None = None
) -> tuple[Index, IngestReport]:
    """Tokenize every case title and build the vector space over the corpus.

    Term ids are assigned in first-occurrence order over cases in input
    order, making the build deterministic. Cases whose titles tokenize to
    nothing are excluded and reported, not fatal; duplicate ids and a corpus
    with zero indexable cases are.
    """
    if config is None:
        config = PreprocessConfig()
    fields, report = _build_fields(cases, config)
    return _fully_derived(fields), report


def _fully_derived(fields: Fields) -> Index:
    """The index of *fields* with every table derived, as a long-lived reader wants it."""
    index = Index(fields)
    index._derive(range(len(index.postings)))
    return index


def _build_fields(cases: Iterable[Case], config: PreprocessConfig) -> tuple[Fields, IngestReport]:
    """The stored fields of :func:`build_index`'s index, and its report.

    Everything the index saves comes from here, so writing these fields
    gives the bytes of the built index without assembling it.
    """
    cases = list(cases)
    _refuse_duplicate_ids(cases)

    id_to_term: list[str] = []
    tid_by_term: dict[str, int] = {}
    doc_ids: list[str] = []
    titles: list[str] = []
    columns: Columns = ([], [], [])
    skipped: list[tuple[str, str]] = []
    for case in cases:
        tokens = tokenize(case.title, config)
        if not tokens:
            skipped.append((case.id, "title tokenizes to empty"))
            continue
        doc_ids.append(case.id)
        titles.append(case.title)
        _append_row(tokens, id_to_term, tid_by_term, columns)

    if not doc_ids:
        raise DataError("no indexable cases: every title tokenized to empty")

    report = IngestReport(
        indexed=len(doc_ids),
        skipped=tuple(skipped),
        vocabulary_size=len(id_to_term),
    )
    return (config, id_to_term, doc_ids, titles, *columns), report


def extend_index(fields: Fields, new_case: Case) -> Index:
    """The index of the stored *fields* with *new_case* appended, tokenizing only it.

    *fields* are an index's stored fields as :func:`build_index` (or the
    loader) gives them; none of them is modified. The new title's unseen
    terms get the next ids in first-occurrence order, so the result equals
    ``build_index`` over the corpus with *new_case* appended. A duplicate id
    or a title that tokenizes to empty is a :class:`DataError`.
    """
    return _fully_derived(_extend_fields(fields, new_case))


def _extend_fields(fields: Fields, new_case: Case) -> Fields:
    """The stored fields of :func:`extend_index`'s index, with its checks."""
    config, terms, doc_ids, titles, *columns = fields
    if new_case.id in doc_ids:
        raise DataError(f"duplicate case id: {new_case.id!r}")
    tokens = tokenize(new_case.title, config)
    if not tokens:
        raise DataError(f"title of case {new_case.id!r} tokenizes to empty")
    id_to_term = list(terms)
    tid_by_term = {term: tid for tid, term in enumerate(id_to_term)}
    columns = tuple(map(list, columns))  # copies, so the stored fields stay as they are
    _append_row(tokens, id_to_term, tid_by_term, columns)
    return (config, id_to_term, [*doc_ids, new_case.id], [*titles, new_case.title], *columns)


def _refuse_duplicate_ids(cases: Iterable[Case]) -> None:
    """Raise :class:`DataError` naming the first id of *cases* that repeats one before it."""
    seen: set[str] = set()
    for case in cases:
        if case.id in seen:
            raise DataError(f"duplicate case id: {case.id!r}")
        seen.add(case.id)


def _append_row(
    tokens: Sequence[str], id_to_term: list[str], tid_by_term: dict[str, int], columns: Columns
) -> None:
    """Append the count row of *tokens* to the row lengths, term ids and counts of *columns*.

    The row holds each distinct term id of *tokens*, ascending, and its
    count. A token not yet in *tid_by_term* becomes the next term id,
    appended to *id_to_term* and entered in *tid_by_term*.
    """
    counts: dict[int, int] = {}
    for token in tokens:
        tid = tid_by_term.get(token)
        if tid is None:
            tid = len(id_to_term)
            tid_by_term[token] = tid
            id_to_term.append(token)
        counts[tid] = counts.get(tid, 0) + 1
    tids = sorted(counts)
    columns[0].append(len(tids))
    columns[1].extend(tids)
    columns[2].extend(map(counts.__getitem__, tids))
