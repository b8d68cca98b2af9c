"""TF-IDF vector space over a corpus of cases.

A term's in-document frequency is its count divided by the document's token
total; its corpus weight multiplies that by ``log10(corpus_size / df)`` where
``df`` is the number of documents containing the term. Every document gets a
dense ordinal, its position in corpus order, and one count row: its distinct
term ids, ascending, and their counts. The rows are kept, and saved, as three
flat columns in compressed-sparse-row layout: ``row_lengths`` (term ids per
document), then ``term_ids`` and ``counts``, every row's entries in corpus
order; they are the only per-document record an index keeps. Each column is
an ``array`` of unsigned ints: 4 bytes wide when built, and as wide as the
file stores it, 1, 2 or 4 bytes, when loaded. The file stores each column
at the narrowest of those widths that holds its largest value
(:func:`_packed`), so a column's width never changes its value. The postings
of a term are two parallel arrays: the ordinals of the documents containing
it, ascending, and their weights for the term; ``Index.doc_ids`` and
``Index.titles``, the stored lists, map an ordinal back to its case id and
its title. No table is keyed by case id: a document's weights and norm are
read by its ordinal, through the postings, the norms and :meth:`Index.dot`.
A query is one :class:`QueryVector` type for both scorers (see
:meth:`Index.vectorize_query`).

The :class:`Index` is an immutable snapshot: build it once, query it from any
number of readers, and construct a new one to change the corpus. An index is
its stored fields (:data:`Fields`, exactly what an index file holds), and
two indexes are equal when their fields are. ``Index(fields)`` keeps the
stored fields themselves, copying none, and derives idf from them; the
postings, weights and norms of a batch of terms come from one scan of the
count rows, on the first query that ranks them.
:func:`build_index` computes the fields and then derives every term, so a
long-lived reader never pays on first use, and ``CaseBase.retain`` derives
every term of the fields that :func:`_extend_fields` gives: the stored count
rows plus one row for the new case, whose title is the only one tokenized.
A loaded index derives only what its queries rank. A writer that only saves
an index, as the command line's ``index`` and ``add`` do, computes the
fields alone.

The records, :class:`Case`, :class:`IngestReport` and :class:`QueryVector`,
are immutable named tuples. A :class:`Case` checks its id when it is
constructed and when ``_replace`` copies it.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, pairwise
from operator import truediv

from .errors import DataError
from .preprocess import PreprocessConfig, tokenize

SCORERS = ("cosine", "set")

# what an index stores, and its value: config, terms (a term's id is its
# position), doc ids and titles (both by ordinal), and the count rows as row
# lengths, term ids and counts, each an unsigned array (see _packed); an Index
# keeps these objects as its attributes, not copies
Fields = tuple[PreprocessConfig, list[str], list[str], list[str], array, array, array]
# the count rows as _append_row builds them: row lengths, term ids and counts
Columns = tuple[list[int], list[int], list[int]]

# the unsigned array typecode of each width a count column is kept at, in
# bytes; C's unsigned int is 4 bytes wide on every platform CPython supports
_TYPECODES = {1: "B", 2: "H", 4: "I"}


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
        terms: term_id -> term; term ids run in first-occurrence order over
            the corpus (the stored list, ``fields[1]``). :meth:`lookup`
            maps a term back to its id.
        doc_ids: ordinal -> doc_id; ordinals number documents in corpus order
            (the stored list, ``fields[2]``).
        titles: ordinal -> original title, for display, parallel to
            ``doc_ids`` (the stored list, ``fields[3]``).
        row_offsets: ordinal -> where the document's count row starts in
            ``term_ids`` and ``counts``; one entry more than documents, so
            a row ends where the next starts. An unsigned ``array`` of 4-byte
            ints: 0.4 MB at 100k titles, where a list took 4 MB.
        term_ids: every count row's term ids, ascending within a row, an
            unsigned ``array`` (the stored column, not a copy).
        counts: every count row's counts, parallel to ``term_ids``, an
            unsigned ``array`` (the stored column).
        postings: term_id -> ``array('i')`` of document ordinals, ascending;
            None until :meth:`_derive` posts the term.
        posting_weights: term_id -> ``array('d')`` of the documents' weights
            for the term, parallel to ``postings[term_id]``; None until posted.
        ordinal_norms: ordinal -> L2 norm of the document's weight vector;
            None until a term the document holds is posted.

    :meth:`impacts` (which caches two arrays per term), :meth:`posting_bits`
    and :func:`rank` derive the terms they read first, so no underived entry
    is ever read; :meth:`dot` and :meth:`length_bits` read only the count
    rows. Three caches grow with use, and none is part of :attr:`fields` or
    of equality. The impacts hold 12 bytes per posting, a 4-byte ordinal and
    an 8-byte ratio, of each term a cosine query with a ``top_k`` reads. Both
    bitmap caches hold :func:`_bitmap` ints of ``corpus_size`` bits, about
    12.5 KB each at 100k titles. The posting bitmaps hold one for each term
    a set query or a cut cosine query counts, but only for a term in at
    least ``corpus_size / 96`` documents, so at worst they hold the bytes of
    the posting arrays they mirror. The length bitmaps, made on the first
    set query, hold one per distinct row length.
    """

    __slots__ = (
        "fields",
        "config",
        "terms",
        "doc_ids",
        "titles",
        "row_offsets",
        "term_ids",
        "counts",
        "postings",
        "posting_weights",
        "ordinal_norms",
        "_ids",
        "_idf",
        "_impacts",
        "_bits",
        "_lengths",
    )

    def __init__(self, fields: Fields):
        """Derive the cheap tables from *fields*: the term ids and idf.

        The document ``doc_ids[ordinal]`` holds the next
        ``row_lengths[ordinal]`` entries of ``term_ids``, ascending, and of
        ``counts``; every term id must occur in some row. Postings, their
        weights and the norms are left to :meth:`_derive`.
        """
        config, terms, doc_ids, titles, row_lengths, term_ids, counts = fields
        df = [0] * len(terms)
        for tid in term_ids:
            df[tid] += 1
        corpus_size = len(row_lengths)
        self.fields = fields
        self.config, self.terms, self.doc_ids, self.titles = config, terms, doc_ids, titles
        self.row_offsets = array(_TYPECODES[4], accumulate(row_lengths, initial=0))
        self.term_ids = term_ids
        self.counts = counts
        self.postings: list[array | None] = [None] * len(terms)
        self.posting_weights: list[array | None] = [None] * len(terms)
        self.ordinal_norms: list[float | None] = [None] * corpus_size
        self._ids = {term: tid for tid, term in enumerate(terms)}
        self._idf = [math.log10(corpus_size / count) for count in df]
        self._impacts: dict[int, tuple[array, array]] = {}
        self._bits: dict[int, int] = {}
        self._lengths: dict[int, int] | None = None

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
        return f"Index({self.corpus_size} documents, {len(self.terms)} terms)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return self.fields == other.fields

    @property
    def corpus_size(self) -> int:
        return len(self.doc_ids)

    def lookup(self, term: str) -> int | None:
        """Term id, or None when the term was never indexed."""
        return self._ids.get(term)

    def impacts(self, term_id: int) -> tuple[array, array]:
        """The postings of *term_id* in impact order: ordinals and their ``weight / norm``.

        Two parallel arrays, ``array('i')`` and ``array('d')``, in descending
        ratio, ties in ascending ordinal. A ratio is what the document's
        normalized vector holds in the term's coordinate, so times the query
        weight it is what the term adds to the document's cosine: the first
        bounds what the term adds to any document, and the k-th is met or
        beaten by k documents. Computed on first use, with one key sort in C,
        and cached; defined for terms with nonzero idf, whose documents all
        have nonzero norms.
        """
        impacts = self._impacts.get(term_id)
        if impacts is None:
            self._derive((term_id,))
            ordinals = self.postings[term_id]
            norms = map(self.ordinal_norms.__getitem__, ordinals)
            ratios = list(map(truediv, self.posting_weights[term_id], norms))
            # stable: equal ratios keep the postings' ascending ordinals
            order = sorted(range(len(ratios)), key=ratios.__getitem__, reverse=True)
            impacts = (
                array("i", map(ordinals.__getitem__, order)),
                array("d", map(ratios.__getitem__, order)),
            )
            self._impacts[term_id] = impacts
        return impacts

    def posting_bits(self, term_id: int) -> int:
        """The postings of *term_id* as a bitmap (:func:`_bitmap`) of ``corpus_size`` bits.

        A term in at least ``corpus_size / 96`` documents, whose
        ``corpus_size / 8`` bytes of bitmap are no more than the 12 bytes per
        posting of its two arrays, is computed on first use and cached, as
        :meth:`impacts` is, and cached only once complete. A rarer term's
        bitmap is built on every call, and not kept.
        """
        bits = self._bits.get(term_id)
        if bits is None:
            self._derive((term_id,))
            ordinals = self.postings[term_id]
            bits = _bitmap(ordinals, self.corpus_size)
            if len(ordinals) * 96 >= self.corpus_size:
                self._bits[term_id] = bits
        return bits

    def length_bits(self) -> dict[int, int]:
        """Row length -> the bitmap (:func:`_bitmap`) of the documents of that many distinct terms.

        One per row length that occurs, all built on first use from one pass
        that groups the ordinals by their stored row length, and cached.
        """
        lengths = self._lengths
        if lengths is None:
            groups: dict[int, list[int]] = {}
            for ordinal, length in enumerate(self.fields[4]):
                groups.setdefault(length, []).append(ordinal)
            lengths = {n: _bitmap(group, self.corpus_size) for n, group in groups.items()}
            self._lengths = lengths
        return lengths

    def dot(self, ordinal: int, weights: Mapping[int, float]) -> float:
        """Dot product of term-id-keyed *weights* with document *ordinal*.

        Summed from 0.0 in ascending term id over the document's count row,
        each row term of *weights* weighted by the expression :meth:`_derive`
        posts, so it equals an accumulation over the postings bit for bit.
        No weight is computed for a row term outside *weights*.
        """
        tids, counts = self._row(ordinal)
        token_total = sum(counts)
        idf = self._idf
        total = 0.0  # a loop, not sum(), which compensates its rounding from 3.12
        for tid, count in zip(tids, counts):
            if tid in weights:
                total += weights[tid] * ((count / token_total) * idf[tid])
        return total

    def _row(self, ordinal: int) -> tuple[array, array]:
        """The term ids and the counts of document *ordinal*'s count row."""
        start, end = self.row_offsets[ordinal : ordinal + 2]
        return self.term_ids[start:end], self.counts[start:end]

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
            tid = self.lookup(token)
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
                dropped.add(self.terms[tid])
            else:
                weights[tid] = (counts[tid] / token_total) * self._idf[tid]
        return QueryVector(weights, tuple(sorted(dropped)), scorer)


# 0 for a zero byte and 1 for any other, as a bytes.translate table
_NONZERO = bytes(1) + bytes([1]) * 255
# each byte value's set bits, the highest first
_BYTE_BITS = [tuple(bit for bit in range(7, -1, -1) if value >> bit & 1) for value in range(256)]


def _bitmap(ordinals: Sequence[int], size: int) -> int:
    """The bitmap of the distinct *ordinals*, each below *size*: bit ``o`` set for ordinal ``o``.

    It holds *size* bits, so ``to_bytes((size + 7) >> 3, "little")`` puts
    ordinal ``o`` at bit ``o & 7`` of byte ``o >> 3``; :func:`_ordinals`
    reads it back. The bits are set one by one in a ``bytearray``. The only
    builder of both bitmap caches of :class:`Index`.
    """
    flags = bytearray((size + 7) >> 3)
    for ordinal in ordinals:
        flags[ordinal >> 3] |= 1 << (ordinal & 7)
    return int.from_bytes(flags, "little")


def _ordinals(bits: int) -> list[int]:
    """The ordinals set in the bitmap *bits* (see :func:`_bitmap`), the highest first.

    The only decoder of a bitmap. Its little-endian bytes are walked from
    the top: one ``translate`` flags the bytes that are not 0, ``rfind``
    finds each in C, and a table gives each such byte's set bits.
    """
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    flags = data.translate(_NONZERO)
    ordinals = []
    at = len(flags)
    while (at := flags.rfind(1, 0, at)) >= 0:
        base = at << 3
        for bit in _BYTE_BITS[data[at]]:
            ordinals.append(base + bit)
    return ordinals


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
    # 4 bytes wide: C fills an array("I") from ints two to three times as fast
    # as a narrower one, and the writer packs each column at its own width
    packed = (array(_TYPECODES[4], column) for column in columns)
    return (config, id_to_term, doc_ids, titles, *packed), report


def _extend_fields(fields: Fields, new_case: Case) -> Fields:
    """The stored *fields* with *new_case* appended, tokenizing only its title.

    The caller has refused an id of *new_case* that the corpus already
    holds, skipped cases included; this function does not check it. A title
    that tokenizes to empty is a :class:`DataError`. None of *fields* is
    modified. The new title's unseen terms get the next ids in
    first-occurrence order, so the result equals the fields of
    :func:`build_index` over the corpus with *new_case* appended.
    """
    config, terms, doc_ids, titles, *columns = fields
    tokens = tokenize(new_case.title, config)
    if not tokens:
        raise DataError(f"title of case {new_case.id!r} tokenizes to empty")
    id_to_term = list(terms)
    tid_by_term = {term: tid for tid, term in enumerate(id_to_term)}
    row: Columns = ([], [], [])
    _append_row(tokens, id_to_term, tid_by_term, row)
    grown = map(_grown, columns, row)  # copies, so the stored fields stay as they are
    return (config, id_to_term, [*doc_ids, new_case.id], [*titles, new_case.title], *grown)


def _packed(values: Iterable[int], largest: int) -> array:
    """*values*, none above *largest*, as unsigned ints of the narrowest width that holds *largest*.

    The width is 1, 2 or 4 bytes (:data:`_TYPECODES`). From an array of the
    same typecode the copy is one ``memcpy``.
    """
    width = 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else 4
    return array(_TYPECODES[width], values)


def _grown(column: array, values: list[int]) -> array:
    """A copy of the unsigned *column* with *values* appended, widened if one does not fit it."""
    grown = _packed(column, max(*values, (1 << 8 * column.itemsize) - 1))
    grown.extend(values)
    return grown


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
