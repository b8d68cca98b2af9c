"""Command-line front end wiring the pipeline end to end.

Subcommands: ``index`` builds an index file from a corpus, ``query`` ranks
matches for a keyword or full-title query, ``add`` retains a new case into a
corpus/index pair, and ``eval`` runs the two-stage word-order experiment
(every title queried verbatim, then with its words deterministically
shuffled; both stages must find the same titles), one loop over the titles
that prints its report once every title is done.

Every command that answers a query (``query``, both stages of ``eval``) calls
:func:`cbrsearch.casebase.search`, the package's one query path, and only
those load an :class:`~cbrsearch.index.Index`, which derives only the
tables of the terms they rank. The commands that write an index file,
``index`` and ``add``, tokenize into its stored fields and write them as
they are: postings, weights and norms serve only a search, so they are
never built there.

Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 search property
violation (``eval`` only).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import random
import sys
from contextlib import contextmanager

from .casebase import search
from .errors import DataError, SearchError
from .index import SCORERS, Case, _build_fields, _extend_fields, _refuse_duplicate_ids
from .preprocess import PreprocessConfig, tokenize
from .store import (
    CORPUS_FORMATS,
    _read_index,
    _read_lines,
    _write_index,
    append_case,
    load_index,
    load_stopwords,
    read_corpus,
    unencodable_field,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPERTY = 3

SCORE_TOLERANCE = 1e-9  # stage-2 top score must sit this close to 1.0


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data/IO
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: refused below
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number: refused below
    if not 0.0 <= value < 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cbrsearch",
        description="TF-IDF title search with a case-based retrieve/reuse/revise/retain cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index file from a corpus")
    p_index.add_argument("--input", required=True, help="corpus file to ingest")
    p_index.add_argument("--format", required=True, choices=CORPUS_FORMATS,
                         help="corpus layout: JSON records or one title per line")
    p_index.add_argument("--output", required=True, help="index file to write")
    p_index.add_argument("--stopwords", help="optional stopword file, one word per line")
    p_index.add_argument("--min-token-len", type=_positive_int, default=1,
                         help="drop tokens shorter than this (default 1)")
    p_index.set_defaults(func=cmd_index)

    p_query = sub.add_parser("query", help="rank matches for a keyword or title query")
    p_query.add_argument("--index", required=True, help="index file to search")
    p_query.add_argument("--query", required=True, help="query text")
    p_query.add_argument("--scorer", choices=SCORERS, default="cosine")
    p_query.add_argument("--threshold", type=_threshold, default=0.0,
                         help="keep matches scoring strictly above this (default 0)")
    p_query.add_argument("--top-k", type=_positive_int, help="print at most this many rows")
    p_query.add_argument("--format", choices=["table", "records"], default="table")
    p_query.set_defaults(func=cmd_query)

    p_add = sub.add_parser("add", help="retain a new case into a corpus/index pair")
    p_add.add_argument("--index", required=True, help="index file to update")
    p_add.add_argument("--corpus", required=True, help="record-mode corpus file to append to")
    p_add.add_argument("--id", required=True, help="new case id")
    p_add.add_argument("--title", required=True, help="new case title")
    p_add.add_argument("--solution", help="optional solution payload")
    p_add.set_defaults(func=cmd_add)

    p_eval = sub.add_parser("eval", help="run the two-stage word-order experiment")
    p_eval.add_argument("--index", required=True, help="index file to search")
    p_eval.add_argument("--titles", required=True, help="file with one query title per line")
    p_eval.add_argument("--seed", required=True, type=int, help="shuffle seed")
    p_eval.add_argument("--scorer", choices=SCORERS, default="cosine")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def cmd_index(args) -> int:
    for option, path in (("--input", args.input), ("--stopwords", args.stopwords)):
        if path and _same_file(path, args.output):
            raise DataError(f"--output {args.output} is the same file as {option} {path}")
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    config = PreprocessConfig(stopwords=stopwords, min_token_length=args.min_token_len)
    # under the corpus lock that `add` holds: a rebuild and an add of the
    # same corpus run one after the other, so neither loses the other's work
    with _locked(args.input):
        cases = read_corpus(args.input, args.format)
        fields, report = _build_fields(cases, config)
        _write_index(args.output, *fields)
    print(f"cases indexed: {report.indexed}")
    print(f"cases skipped: {len(report.skipped)}")
    for case_id, reason in report.skipped:
        print(f"  skipped {case_id}: {reason}")
    print(f"vocabulary size: {report.vocabulary_size}")
    print(f"index written: {args.output}")
    return EXIT_OK


def cmd_query(args) -> int:
    index = load_index(args.index)
    results = search(
        index, args.query, scorer=args.scorer, threshold=args.threshold, top_k=args.top_k
    )
    # case id -> title, for the matches' rows; a query that matches nothing builds none
    titles = dict(zip(index.doc_ids, index.titles)) if results.matches else {}

    if args.format == "records":
        for match in results.matches:
            record = {
                "rank": match.rank,
                "id": match.case_id,
                "title": titles[match.case_id],
                "score": round(match.score, 6),
                "count": results.total_matches,
            }
            print(json.dumps(record, ensure_ascii=False))
        # keep stdout pure JSONL; the summary goes to stderr
        print(f"matches: {results.total_matches}", file=sys.stderr)
        if results.dropped_terms:
            print("dropped terms: " + ", ".join(results.dropped_terms), file=sys.stderr)
        return EXIT_OK

    for match in results.matches:
        print(f"{match.rank:>4}  {match.score:.6f}  {match.case_id}  {titles[match.case_id]}")
    print(f"matches: {results.total_matches}")
    dropped = ", ".join(results.dropped_terms) if results.dropped_terms else "(none)"
    print(f"dropped terms: {dropped}")
    return EXIT_OK


def _same_file(path, other) -> bool:
    """Whether *path* and *other* name one existing file; False if either is missing."""
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


@contextmanager
def _locked(path):
    """Hold an exclusive advisory lock on the file *path* while inside.

    A file that cannot be opened is left unlocked: the read that follows
    reports it, with the message it always had.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        yield
        return
    with handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)  # released when the file closes
        yield


def cmd_add(args) -> int:
    # the corpus is appended to in place, never replaced, so a lock on it
    # serializes concurrent adds from the index load through the append
    with _locked(args.corpus):
        return _add(args)


def _add(args) -> int:
    fields = _read_index(args.index)
    config, _, doc_ids, titles, *_ = fields
    cases = read_corpus(args.corpus, "record")
    new_case = Case(id=args.id, title=args.title, solution=args.solution)
    field = unencodable_field(new_case)
    if field is not None:
        raise DataError(f"--{field} is not encodable as UTF-8")
    # a taken id is refused here, against every corpus id, skipped ones
    # included; once the walk below shows that every indexed id is a corpus
    # id, that is the precondition of _extend_fields
    _refuse_duplicate_ids([*cases, new_case])
    # the corpus must rebuild the stored index, before the new case joins it
    # or, after a crash between the save and the append below, with it
    tail = _index_tail(cases, doc_ids, titles, config)
    del cases  # not needed past the walk: freed before the index is written
    if tail not in ([], [(new_case.id, new_case.title)]):
        raise DataError(
            f"corpus and index disagree: {args.corpus} does not rebuild {args.index}; "
            "rebuild the index with `cbrsearch index`"
        )
    if tail:  # the index already holds the new case: only the append is left
        append_case(args.corpus, new_case)
        print(f"corpus size: {len(doc_ids)}")
        return EXIT_OK
    # index first, so a failed save leaves both files as they were; a failed
    # append puts the old index back. _extend_fields refuses a title that
    # tokenizes to empty before a file is opened
    _write_index(args.index, *_extend_fields(fields, new_case))
    try:
        append_case(args.corpus, new_case)
    except BaseException:
        _write_index(args.index, *fields)
        raise
    print(f"corpus size: {len(doc_ids) + 1}")
    return EXIT_OK


def _index_tail(cases, doc_ids, titles, config) -> list[tuple[str, str]] | None:
    """The stored ``(id, title)`` pairs left over after walking *cases* in order.

    Each corpus case must be either the next stored pair or one that
    ``build_index`` skips, a title that tokenizes to empty; only cases that
    are not the next pair are tokenized. None when some case is neither.
    """
    pairs = zip(doc_ids, titles)
    expected = next(pairs, None)
    for case in cases:
        if (case.id, case.title) == expected:
            expected = next(pairs, None)
        elif tokenize(case.title, config):
            return None
    return [] if expected is None else [expected, *pairs]


def _permute_title(title: str, seed: int, row: int) -> str:
    """Shuffle the whitespace-separated words of a raw title.

    Seeded by (seed, row number) so runs are reproducible; shuffling happens
    before preprocessing, on surface words.
    """
    words = title.split()
    random.Random(f"{seed}:{row}").shuffle(words)
    return " ".join(words)


def cmd_eval(args) -> int:
    """Query each title verbatim, then word-shuffled, and compare the stages.

    A violation is any row where the shuffled query found a different number
    of titles, or where a title stored in the corpus failed to come back with
    a top score of 1.0. The report is printed once every row is done, and
    the violations go to stderr.
    """
    index = load_index(args.index)
    titles = [line for line in _read_lines(args.titles, "titles", DataError) if line.strip()]
    if not titles:
        raise DataError(f"titles file {args.titles} contains no titles")

    stored_titles = set(index.titles)
    # a shuffled title has its title's tokens: one row scan derives every query's terms
    tokens = {token for title in titles for token in tokenize(title, index.config)}
    index._derive({tid for tid in map(index.lookup, tokens) if tid is not None})
    lines = [f"seed: {args.seed}", f"scorer: {args.scorer}"]
    top_scores: list[float] = []
    violations: list[str] = []
    for row_number, title in enumerate(titles, start=1):
        found1 = search(index, title, scorer=args.scorer, top_k=1).total_matches
        permuted = _permute_title(title, args.seed, row_number)
        stage2 = search(index, permuted, scorer=args.scorer, top_k=1)
        found2 = stage2.total_matches
        top2 = stage2.top.score if stage2.top else 0.0
        top_scores.append(top2)
        lines += [
            f"row {row_number}: found_stage1={found1} found_stage2={found2} "
            f"top_score_stage2={top2:.6f}",
            f"  stage1: {title}",
            f"  stage2: {permuted}",
        ]
        if found2 != found1:
            violations.append(
                f"row {row_number}: stage-2 found {found2} titles, stage-1 found {found1}"
            )
        elif title in stored_titles and abs(top2 - 1.0) > SCORE_TOLERANCE:
            violations.append(
                f"row {row_number}: stage-2 top score {top2:.6f} for a stored title"
                " (expected 1.0)"
            )
    for line in lines:
        print(line)
    print(f"mean top score: {sum(top_scores) / len(top_scores):.6f}")
    for violation in violations:
        print(f"violation: {violation}", file=sys.stderr)
    return EXIT_PROPERTY if violations else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its message already
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
