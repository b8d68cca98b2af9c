"""On-disk formats: the index snapshot and the corpus files.

Index file (format version 3)
    A single-line JSON document. It stores the preprocessing configuration
    and its fingerprint, the vocabulary as a plain ``terms`` list (a term's
    id is its position), the documents as parallel ``ids`` and ``titles``
    lists, and one flat ``[tid, count, tid, count, ...]`` row per document
    in ``counts``, ascending by term id. Weights, token totals and document
    frequencies are never written: on load they are recomputed through the
    same code path ``build_index`` uses, so an index is defined by its
    stored counts. Serialization is canonical (sorted keys, fixed
    separators), which makes equal indexes produce byte-identical files.
    The last key, ``weights_sha256``, is the sha256 of the UTF-8 bytes of
    the canonical document without it, so any edit to a stored value, or
    to the file's layout, is rejected. Files of any other format version,
    versions 1 and 2 included, are rejected with a hint to rebuild them
    with ``cbrsearch index``.

    The file holds an index's stored fields (``index.Fields``, its value)
    and nothing else. One serializer writes them, :func:`_write_index`, and
    one reader checks them, :func:`_read_index`. :func:`save_index` writes
    ``index.fields``, and :func:`load_index` constructs an ``Index`` from what
    the reader returns; the command line's ``index`` and ``add`` write fields
    they never construct an index from.

Corpus files
    ``record`` mode: one JSON object per line with fields ``id`` and
    ``title`` (required), ``solution`` and ``meta`` (optional).
    ``plain`` mode: one title per line; ids are 1-based line numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
from operator import floordiv, lt, mod, sub
from pathlib import Path

from .errors import ConfigError, DataError, IndexFormatError
from .index import Case, Fields, Index
from .preprocess import PreprocessConfig

INDEX_FORMAT_VERSION = 3

_FORMAT_NAME = "cbrsearch-index"
_CHECKSUM_KEY = ',"weights_sha256":'

CORPUS_FORMATS = ("record", "plain")


def _seal(body: str) -> str:
    """The file text for *body*, a canonical JSON object: its sha256 spliced in.

    ``weights_sha256`` sorts after every other key, so the result is exactly
    the canonical serialization of the whole document. Encoding is strict,
    so a lone surrogate raises UnicodeEncodeError.
    """
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{body[:-1]}{_CHECKSUM_KEY}"{digest}"}}\n'


def save_index(index: Index, path: str | Path) -> None:
    """Write *index* to *path* as a versioned, checksummed JSON document."""
    _write_index(path, *index.fields)


def _write_index(
    path: str | Path,
    config: PreprocessConfig,
    terms: Sequence[str],
    doc_ids: Sequence[str],
    titles: Sequence[str],
    count_rows: Sequence[list[int]],
) -> None:
    """Write an index's stored fields (see :data:`Fields`) to *path*.

    The one serializer: :func:`save_index` and the command line's writers
    all go through it. The document goes to a temporary file in the same
    directory, is flushed to disk, and then replaces *path* in one step, so
    a failure at any point leaves either the old file or the new one, never
    a partial one.
    """
    document = {
        "format": _FORMAT_NAME,
        "format_version": INDEX_FORMAT_VERSION,
        "preprocess": {
            "casefold": config.casefold,
            "min_token_length": config.min_token_length,
            "stopwords": sorted(config.stopwords),
        },
        "preprocess_fingerprint": config.fingerprint(),
        "terms": terms,
        "ids": doc_ids,
        "titles": titles,
        "counts": count_rows,
    }
    payload = _seal(
        json.dumps(document, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    )
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _corrupt(path, detail: str) -> IndexFormatError:
    return IndexFormatError(f"corrupt index file {path}: {detail}")


def _only(kind: type, values) -> bool:
    """Whether every item of *values* has exactly type *kind* (bool is not int)."""
    return set(map(type, values)) <= {kind}


def _term_ids(count_rows: list, term_count: int) -> list[int] | None:
    """The term ids of all count rows in sequence, or None if a row is bad.

    A good row is a non-empty flat ``[tid, count, ...]`` list of ints with
    term ids in range and strictly ascending, and every count at least 1.
    The checks run over all rows at once.
    """
    if not _only(list, count_rows):
        return None
    lengths = list(map(len, count_rows))
    if 0 in lengths or any(map(mod, lengths, repeat(2))):
        return None
    flat = list(chain.from_iterable(count_rows))
    if not _only(int, flat):
        return None
    tids, counts = flat[0::2], flat[1::2]
    if min(counts) < 1 or min(tids) < 0 or max(tids) >= term_count:
        return None
    # in the term ids of all rows in sequence, a step may fail to ascend only
    # where one row ends and the next begins
    ascends = list(map(lt, tids, tids[1:]))
    row_ends = list(accumulate(map(floordiv, lengths, repeat(2))))
    at_row_ends = list(map(ascends.__getitem__, map(sub, row_ends[:-1], repeat(1))))
    return tids if ascends.count(False) == at_row_ends.count(False) else None


def load_index(path: str | Path) -> Index:
    """Read an index file written by :func:`save_index`.

    Raises :class:`IndexFormatError` with a distinct message for an
    unreadable file, a corrupt file, an unsupported format version, or a
    checksum mismatch. Unsupported versions are rejected, never migrated:
    the message says to rebuild the index with ``cbrsearch index``.
    """
    return Index(_read_index(path))


def _read_index(path: str | Path) -> Fields:
    """The checked fields of an index file: config, terms, ids, titles, count rows.

    Every check :func:`load_index` makes happens here, with its messages;
    only the construction of the :class:`Index` is left to the caller.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # nested too deeply: RecursionError
        raise _corrupt(path, f"not parseable as JSON ({exc})") from exc
    if not isinstance(document, dict) or document.get("format") != _FORMAT_NAME:
        raise _corrupt(path, "unrecognized layout")
    version = document.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format version {version!r} in {path} "
            f"(supported: {INDEX_FORMAT_VERSION}); rebuild it with `cbrsearch index`"
        )

    try:
        pre = document["preprocess"]
        stopwords = pre["stopwords"]
        if not isinstance(stopwords, list) or not all(isinstance(w, str) for w in stopwords):
            raise ValueError("stopwords must be a list of strings")
        casefold, min_token_length = pre["casefold"], pre["min_token_length"]
        if type(casefold) is not bool or type(min_token_length) is not int:
            raise ValueError("casefold must be a bool and min_token_length an int")
        config = PreprocessConfig(
            casefold=casefold,
            stopwords=frozenset(stopwords),
            min_token_length=min_token_length,
        )
        fingerprint = document["preprocess_fingerprint"]
        terms = document["terms"]
        doc_ids = document["ids"]
        titles = document["titles"]
        count_rows = document["counts"]
        if "weights_sha256" not in document:
            raise KeyError("weights_sha256")
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise _corrupt(path, f"missing or malformed field ({exc})") from exc
    if config.fingerprint() != fingerprint:
        raise _corrupt(path, "preprocess fingerprint does not match stored configuration")
    if not _only(list, (terms, doc_ids, titles, count_rows)):
        raise _corrupt(path, "terms, ids, titles and counts must be lists")
    if not _only(str, terms):
        raise _corrupt(path, "a vocabulary term is not a string")
    if len(set(terms)) != len(terms):
        raise _corrupt(path, "vocabulary repeats a term")
    if not doc_ids:
        raise _corrupt(path, "no documents")
    if not len(doc_ids) == len(titles) == len(count_rows):
        raise _corrupt(path, "ids, titles and counts differ in length")
    if not _only(str, doc_ids) or not all(doc_ids):
        bad = next(d for d in doc_ids if type(d) is not str or not d)
        raise _corrupt(path, f"document id {bad!r} is not a non-empty string")
    if len(set(doc_ids)) != len(doc_ids):
        seen: set[str] = set()
        bad = next(d for d in doc_ids if d in seen or seen.add(d))
        raise _corrupt(path, f"duplicate document id {bad!r}")
    if not _only(str, titles):
        bad = next(d for d, title in zip(doc_ids, titles) if type(title) is not str)
        raise _corrupt(path, f"title of document {bad!r} is not a string")
    tids = _term_ids(count_rows, len(terms))
    if tids is None:
        raise _corrupt(
            path,
            "a count row is not a non-empty list of integer [term id, count] pairs "
            "with term ids in range and ascending and counts of at least 1",
        )
    if len(set(tids)) != len(terms):
        raise _corrupt(path, "a vocabulary term occurs in no document")

    try:
        "".join(chain(doc_ids, titles, terms)).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _corrupt(path, f"text not encodable as UTF-8 ({exc})") from exc
    if _seal(raw.rpartition(_CHECKSUM_KEY)[0] + "}") != raw:
        raise IndexFormatError(
            f"index checksum mismatch in {path}: the file was edited or "
            "reformatted after it was saved"
        )
    return config, terms, doc_ids, titles, count_rows


def read_corpus(path: str | Path, corpus_format: str) -> list[Case]:
    """Read a corpus file into cases.

    ``record`` mode parses one JSON object per line (blank lines skipped);
    ``plain`` mode takes every line as a title, ids numbered from 1 so line
    numbers stay stable even when a blank line is later skipped by indexing.
    """
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"corpus format must be one of {CORPUS_FORMATS}, got {corpus_format!r}")
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    lines = raw.splitlines()

    if corpus_format == "plain":
        return [Case(id=str(lineno), title=line) for lineno, line in enumerate(lines, start=1)]

    cases: list[Case] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: not a valid record ({exc})") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: record must be an object")
        case_id = record.get("id")
        title = record.get("title")
        if not isinstance(case_id, str) or not case_id:
            raise DataError(f"{path}:{lineno}: missing or invalid 'id'")
        if not isinstance(title, str) or not title:
            raise DataError(f"{path}:{lineno}: missing or invalid 'title'")
        solution = record.get("solution")
        if solution is not None and not isinstance(solution, str):
            raise DataError(f"{path}:{lineno}: 'solution' must be a string")
        meta = record.get("meta")
        if meta is not None:
            if not isinstance(meta, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
            ):
                raise DataError(f"{path}:{lineno}: 'meta' must be a flat string map")
        case = Case(id=case_id, title=title, solution=solution, meta=meta)
        field = unencodable_field(case)
        if field is not None:
            raise DataError(f"{path}:{lineno}: {field!r} is not encodable as UTF-8")
        cases.append(case)
    return cases


def unencodable_field(case: Case) -> str | None:
    """Name of the first field of *case* that UTF-8 cannot encode, or None.

    A JSON ``\\udcxx`` escape, or a command-line argument decoded with
    surrogateescape, can put a lone surrogate into a str; such text cannot
    be written to an index or corpus file.
    """
    fields = [("id", case.id), ("title", case.title), ("solution", case.solution or "")]
    fields += [("meta", text) for item in (case.meta or {}).items() for text in item]
    for name, text in fields:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return name
    return None


def append_case(path: str | Path, case: Case) -> None:
    """Append one record-mode line for *case* to the corpus file."""
    record: dict = {"id": case.id, "title": case.title}
    if case.solution is not None:
        record["solution"] = case.solution
    if case.meta:
        record["meta"] = dict(case.meta)
    line = json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    target = Path(path)
    prefix = ""
    if target.exists():
        with open(target, "rb") as handle:
            handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
            if handle.read(1) not in (b"", b"\n"):  # keep records line-delimited
                prefix = "\n"
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(prefix + line + "\n")
