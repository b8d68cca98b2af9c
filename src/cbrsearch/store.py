"""On-disk formats: the index snapshot and the line files.

Index file (format version 6)
    A single-line JSON document. It stores the preprocessing configuration
    (``min_token_length`` and the sorted ``stopwords``), the vocabulary as a
    plain ``terms`` list (a term's id is its position), the documents as
    parallel ``ids`` and ``titles`` lists, and the documents' count rows as
    three flat columns of unsigned ints: ``row_lengths`` (distinct terms per
    document), then ``term_ids`` and ``counts``, which hold every row's term
    ids, ascending within a row, and their counts, rows in document order.
    Each column is packed as a two-item list ``[width, "<base64>"]``: the
    base64 text of the column's values as little-endian unsigned integers
    of *width* bytes, 1, 2 or 4, the narrowest that holds the column's
    largest value (so ``[1,"AgI="]`` is the row lengths 2 and 2). Weights,
    token totals and document frequencies are never written: a loaded index
    recomputes them through the same code path ``build_index`` uses, the
    weights of a term when a query first ranks it, so an index is defined by
    its stored counts. Serialization is canonical (sorted keys, fixed
    separators), which makes equal indexes produce byte-identical files.
    The last key, ``weights_sha256``, is the sha256 of the UTF-8 bytes of
    the canonical document without it, so any edit to a stored value, or
    to the file's layout, is rejected: it is the file's one integrity
    value. The file is read with no newline translation, so a final
    ``\\r\\n`` or ``\\r`` in place of the ``\\n`` fails the checksum too.
    Files of any other format version, versions 1 to 5 included, are
    rejected with a hint to rebuild them with ``cbrsearch index``; there is
    one reader, for one format.

    The file holds an index's stored fields (``index.Fields``, its value)
    and nothing else. One serializer writes them, :func:`_write_index`, and
    one reader checks them, :func:`_read_index`. :func:`save_index` writes
    ``index.fields``, and :func:`load_index` constructs an ``Index`` from what
    the reader returns, which derives no postings until a query ranks; the
    command line's ``index`` and ``add`` write fields they never construct
    an index from. Each holds about one copy of the file's text at a time:
    the writer encodes every string list (ids, terms and titles) one chunk
    of items per ``json.dumps``, packs each count column in one
    ``base64`` encoding of its array, and hashes and writes the encoded
    pieces as they are, and the reader decodes each column into an array
    and hashes the one UTF-8 encoding of the text it parsed.

Line files
    The corpus files, the stopword file and the titles file of ``eval``.
    One reader, :func:`_read_lines`, reads them all: UTF-8, a leading
    byte-order mark skipped, ``\\r\\n`` and a lone ``\\r`` read as ``\\n``,
    and only ``\\n`` ends a line, so U+2028, U+2029 and U+0085, which
    :func:`append_case` writes as they are, stay inside one.
    ``record`` corpus: JSON Lines, one JSON object per line with fields
    ``id`` and ``title`` (required), ``solution`` and ``meta`` (optional).
    Most files are parsed one chunk of lines per ``json.loads``
    (:func:`_parse_records`); the per-line reader, :func:`_read_records`,
    makes every error, naming the file and line number.
    ``plain`` corpus: one title per line; ids are 1-based line numbers.
    Stopword file (:func:`load_stopwords`): one word per line.
    Titles file: one query title per line.
"""

from __future__ import annotations

import _thread
import base64
import hashlib
import json
import os
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from itertools import accumulate, chain, repeat
from operator import countOf, ge, sub
from types import NoneType

from .errors import ConfigError, DataError, IndexFormatError
from .index import _TYPECODES, Case, Fields, Index, _packed
from .preprocess import PreprocessConfig

INDEX_FORMAT_VERSION = 6

_FORMAT_NAME = "cbrsearch-index"
_CHECKSUM_KEY = ',"weights_sha256":'
_SEAL_LENGTH = len(_CHECKSUM_KEY) + 68  # the key, the quoted 64-digit digest, "}\n"

# the document keys of the fields after the config (see :data:`Fields`), in
# order: three string lists, then the three count columns
_LIST_KEYS = ("terms", "ids", "titles", "row_lengths", "term_ids", "counts")
_COLUMN_KEYS = _LIST_KEYS[3:]

CORPUS_FORMATS = ("record", "plain")

_CHUNK_LINES = 512  # record lines per json.loads of the fast record reader, and
# list items per json.dumps of the index writer


def _sealed(text: str) -> bool:
    """Whether the checksum that ends the file text *text* holds.

    A sealed file is its canonical body, the closing ``}`` left off, then
    :func:`_seal_tail` of the body's sha256: ``weights_sha256`` sorts after
    every other key, so the file is the canonical serialization of the
    whole document. The one UTF-8 encoding of *text* (which, decoded as
    strict UTF-8, holds no lone surrogate) is hashed through a memoryview
    up to its last :data:`_SEAL_LENGTH` bytes, and only those bytes are
    compared. The tail holds no checksum key after its first bytes, so the
    body ends where the last key in *text* starts.
    """
    data = text.encode("utf-8")
    digest = hashlib.sha256(memoryview(data)[:-_SEAL_LENGTH])
    digest.update(b"}")
    return data[-_SEAL_LENGTH:] == _seal_tail(digest)


def _seal_tail(digest) -> bytes:
    """The last bytes of a sealed file: the checksum key, *digest* in hex, ``"}\\n``."""
    return f'{_CHECKSUM_KEY}"{digest.hexdigest()}"}}\n'.encode("ascii")


def save_index(index: Index, path: str | os.PathLike[str]) -> None:
    """Write *index* to *path* as a versioned, checksummed JSON document."""
    _write_index(path, *index.fields)


def _write_index(path: str | os.PathLike[str], config: PreprocessConfig, *lists: Sequence) -> None:
    """Write an index's stored fields (see :data:`Fields`) to *path*.

    *lists* are the fields after *config*, stored under :data:`_LIST_KEYS`:
    the string lists as they are, the count columns, arrays or lists of
    ints, packed by :func:`_column_pieces`.

    The one serializer: :func:`save_index` and the command line's writers
    all go through it. The document goes to a temporary file in the same
    directory, is flushed to disk, and then replaces *path* in one step, so
    a failure at any point leaves either the old file or the new one, never
    a partial one. The temporary file is named for the writing process and
    thread, so two writers of one path never share it.

    The bytes are those of one canonical ``json.dumps`` of the document,
    sealed, but each string list is encoded a chunk of :data:`_CHUNK_LINES`
    items at a time (:func:`_json_pieces`), so the encoders never hold the
    whole text. The encoded pieces, about one copy of the file, are hashed and
    written in binary mode as they are; the body's closing ``}`` is swapped
    for :func:`_seal_tail`. Every piece is encoded before the temporary file
    is opened, so text UTF-8 cannot encode (a lone surrogate) raises
    UnicodeEncodeError while neither file exists.
    """
    document = {
        "format": _FORMAT_NAME,
        "format_version": INDEX_FORMAT_VERSION,
        "preprocess": {
            "min_token_length": config.min_token_length,
            "stopwords": sorted(config.stopwords),
        },
        **dict(zip(_LIST_KEYS, lists, strict=True)),
    }
    pieces = [b"{"]
    for key in sorted(document):
        value = document[key]
        encoded = _column_pieces(value) if key in _COLUMN_KEYS else _json_pieces(value)
        pieces += f"{_canonical_json(key)}:".encode("utf-8"), *encoded, b","
    pieces[-1] = b"}"
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    pieces[-1] = _seal_tail(digest)  # in place of the body's closing "}"
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.{_thread.get_ident()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.writelines(pieces)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def _canonical_json(value) -> str:
    """*value* as canonical JSON: sorted keys, no spaces, non-ASCII as is."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _json_pieces(value) -> Iterator[bytes | memoryview]:
    """The UTF-8 of :func:`_canonical_json` of *value*, a list in pieces.

    A list (or tuple) is encoded one :data:`_CHUNK_LINES` slice of items per
    ``json.dumps``, so no encoder holds the whole list's text. Encoding is
    strict: a lone surrogate raises UnicodeEncodeError.
    """
    if not isinstance(value, (list, tuple)):
        yield _canonical_json(value).encode("utf-8")
        return
    yield b"["
    for start in range(0, len(value), _CHUNK_LINES):
        if start:
            yield b","
        chunk = _canonical_json(value[start : start + _CHUNK_LINES]).encode("utf-8")
        yield memoryview(chunk)[1:-1]
    yield b"]"


def _column_pieces(column: Sequence[int]) -> tuple[bytes, bytes, bytes]:
    """The UTF-8 of the canonical JSON of the packed *column*: ``[width,"<base64>"]``.

    The values are packed as unsigned little-endian integers at the
    narrowest width that holds the largest (:func:`index._packed`), so a
    column of equal values is packed alike whatever its type; base64 text
    needs no JSON escape.
    """
    packed = _packed(column, max(column, default=0))
    if sys.byteorder == "big":
        packed.byteswap()
    return f'[{packed.itemsize},"'.encode("ascii"), base64.b64encode(packed), b'"]'


def _unpacked(column) -> array:
    """The values of a packed column, the parsed ``[width, "<base64>"]`` pair.

    Raises ValueError, its message naming what is wrong, for anything else:
    a width that is not the int 1, 2 or 4, text that is not strict base64,
    or a decoded length that is not a multiple of the width.
    """
    if len(column) != 2:
        raise ValueError("is not a [width, base64] pair")
    width, text = column
    if type(width) is not int:  # a JSON true is the Python int 1, but not its type
        raise ValueError(f"has width {width!r}, not an integer")
    if width not in _TYPECODES:
        raise ValueError(f"has width {width}, not 1, 2 or 4")
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError("has text that is not base64") from None
    if len(data) % width:
        raise ValueError(f"holds {len(data)} bytes, not a multiple of its width {width}")
    values = array(_TYPECODES[width])
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _corrupt(path, detail: str) -> IndexFormatError:
    return IndexFormatError(f"corrupt index file {path}: {detail}")


def _only(kind: type, values) -> bool:
    """Whether every item of *values* has exactly type *kind* (bool is not int)."""
    return set(map(type, values)) <= {kind}


def _term_ids(
    row_lengths: array, term_ids: array, counts: array, term_count: int
) -> set[int] | None:
    """The distinct term ids of the count rows the three columns hold, or None if they are bad.

    The columns are the unpacked columns of at least one row, unsigned
    arrays, so every entry is an int of at least 0. They are good when every
    row length is at least 1, the lengths sum to the number of term ids and
    counts, every term id is in range and strictly ascends within its row,
    and every count is at least 1. The checks run over whole columns; no row
    is sliced out.
    """
    if min(row_lengths) < 1 or not sum(row_lengths) == len(term_ids) == len(counts):
        return None
    distinct = set(term_ids)
    if min(counts) < 1 or max(distinct) >= term_count:
        return None
    # in the term ids of all rows in sequence, a step may fail to ascend only
    # where one row ends and the next begins
    descents = countOf(map(ge, term_ids, term_ids[1:]), True)
    row_starts = list(accumulate(row_lengths[:-1]))
    row_lasts = map(term_ids.__getitem__, map(sub, row_starts, repeat(1)))
    row_firsts = map(term_ids.__getitem__, row_starts)
    return distinct if descents == countOf(map(ge, row_lasts, row_firsts), True) else None


def _unencodable(text: str, strings: Iterable[str]) -> UnicodeEncodeError | None:
    """The error of encoding *strings*, parsed from the JSON *text*, as UTF-8, or None.

    *text* was decoded as strict UTF-8, so only a ``\\uD800``-``\\uDFFF``
    escape can put a lone surrogate into a parsed string, and an escape
    needs a backslash: when *text* holds none (found by memchr, far faster
    than a search for ``\\ud``), *strings* are not encoded at all.
    """
    if "\\" in text:
        try:
            "".join(strings).encode("utf-8")
        except UnicodeEncodeError as exc:
            return exc
    return None


def load_index(path: str | os.PathLike[str]) -> Index:
    """Read an index file written by :func:`save_index`.

    Raises :class:`IndexFormatError` with a distinct message for an
    unreadable file, a corrupt file, an unsupported format version, or a
    checksum mismatch. Unsupported versions are rejected, never migrated:
    the message says to rebuild the index with ``cbrsearch index``.
    """
    return Index(_read_index(path))


def _read_index(path: str | os.PathLike[str]) -> Fields:
    """The checked fields of an index file (see :data:`Fields`).

    Every check :func:`load_index` makes happens here, with its messages;
    only the construction of the :class:`Index` is left to the caller.

    The text is read with ``newline=""``, so the checksum sees the file's
    own line ending: a final ``\\r\\n`` or ``\\r`` is a mismatch. The
    parse comes first, then the field checks, then the checksum, each
    holding about one copy of the text beside the parsed document:
    :func:`_term_ids` builds no full-length list, and :func:`_sealed`
    hashes one encoding of the text.
    """
    try:
        # not _read_lines: the checksum covers the file's exact bytes, so no
        # newline translation (newline="") and no byte-order mark skipped
        with open(path, encoding="utf-8", newline="") as handle:
            raw = handle.read()
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
        min_token_length = pre["min_token_length"]
        if type(min_token_length) is not int:
            raise ValueError("min_token_length must be an int")
        config = PreprocessConfig(
            stopwords=frozenset(stopwords),
            min_token_length=min_token_length,
        )
        lists = list(map(document.__getitem__, _LIST_KEYS))
        terms, doc_ids, titles = lists[:3]
        if "weights_sha256" not in document:
            raise KeyError("weights_sha256")
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise _corrupt(path, f"missing or malformed field ({exc})") from exc
    if not _only(list, lists):
        raise _corrupt(path, "terms, ids, titles, row_lengths, term_ids and counts must be lists")
    columns = []
    for key, column in zip(_COLUMN_KEYS, lists[3:]):
        try:
            columns.append(_unpacked(column))
        except ValueError as exc:
            raise _corrupt(path, f"{key} {exc}") from exc
    del document, lists  # and with them the base64 text, before the checksum's copy
    if not _only(str, terms):
        raise _corrupt(path, "a vocabulary term is not a string")
    if len(set(terms)) != len(terms):
        raise _corrupt(path, "vocabulary repeats a term")
    if not doc_ids:
        raise _corrupt(path, "no documents")
    if not len(doc_ids) == len(titles) == len(columns[0]):
        raise _corrupt(path, "ids, titles and row_lengths differ in length")
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
    distinct_term_ids = _term_ids(*columns, len(terms))
    if distinct_term_ids is None:
        raise _corrupt(
            path,
            "the count rows are not non-empty runs of integer term ids, in range and "
            "ascending, with as many integer counts of at least 1",
        )
    if len(distinct_term_ids) != len(terms):
        raise _corrupt(path, "a vocabulary term occurs in no document")
    if _unencodable(raw, chain(doc_ids, titles, terms)) is not None:
        fields = map(unencodable_field, map(Case, doc_ids, titles))
        bad = [f"{field} of document {d!r}" for d, field in zip(doc_ids, fields) if field]
        bad += [f"vocabulary term {term!r}" for term in terms if _unencodable(raw, (term,))]
        raise _corrupt(path, f"{bad[0]} is not encodable as UTF-8")
    if not _sealed(raw):
        raise IndexFormatError(
            f"index checksum mismatch in {path}: the file was edited or "
            "reformatted after it was saved"
        )
    return (config, terms, doc_ids, titles, *columns)


def _read_lines(path: str | os.PathLike[str], what: str, error: type[Exception]) -> list[str]:
    """The lines of the line file *path*: a corpus, stopword or titles file.

    The text is UTF-8, and a leading byte-order mark is skipped, not read as
    part of the first line. Newlines are universal, so ``\\r\\n`` and a lone
    ``\\r`` read as ``\\n``, and only ``\\n`` ends a line: U+2028, U+0085, a
    form feed and every other Unicode line boundary stay text inside one.
    The empty piece after a final ``\\n`` is not a line. A file that cannot
    be read or decoded raises *error*, naming *what* and *path*.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    if not lines[-1]:
        lines.pop()
    return lines


def load_stopwords(path: str | os.PathLike[str]) -> set[str]:
    """Read a stopword file, a line file of one word per line.

    Blank lines and lines starting with ``#`` are ignored; entries are
    lowercased and deduplicated.
    """
    words = map(str.strip, _read_lines(path, "stopword", ConfigError))
    return {word.lower() for word in words if word and not word.startswith("#")}


def read_corpus(path: str | os.PathLike[str], corpus_format: str) -> list[Case]:
    """Read a corpus file into cases.

    The file is a line file, read by :func:`_read_lines`. ``record`` mode
    parses one JSON object per line (blank lines skipped); ``plain`` mode
    takes every line as a title, ids numbered from 1 so line numbers stay
    stable even when a blank line is later skipped by indexing.

    A record file whose text holds no ``]`` is parsed by
    :func:`_parse_records`, a chunk of lines at a time; any other file, and
    any file that path rejects, goes through
    :func:`_read_records`, one line at a time, which alone makes the errors.
    """
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"corpus format must be one of {CORPUS_FORMATS}, got {corpus_format!r}")
    lines = _read_lines(path, "corpus", DataError)
    if corpus_format == "plain":
        return [Case(id=str(lineno), title=line) for lineno, line in enumerate(lines, start=1)]
    # one join: a substring search in C, where a scan of each line would be a
    # Python-level step per line
    if "]" not in "".join(lines):
        cases = _parse_records(list(filter(str.strip, lines)))
        if cases is not None:
            return cases
    return _read_records(path, lines)


def _parse_records(lines: list[str]) -> list[Case] | None:
    """The cases of the non-blank record *lines*, or None if one is not valid.

    Each chunk of :data:`_CHUNK_LINES` lines is one ``json.loads`` of the
    lines joined as ``[[line],\\n[line],...]``, and the record checks of
    :func:`_read_records` run over the whole chunk at once. The caller passes
    only text with no ``]``, and under that guard the result is exactly what
    the per-line reader gives:

    - Strict JSON rejects a raw ``\\n`` inside a string (RFC 8259, section
      7), so no string spans a separator, and every bracket the join adds
      is structural.
    - With no ``]`` in the text, the join's ``]`` are the only ones, one
      for each ``[`` it adds. A ``[`` inside a line would leave a list
      unclosed, and an object left open at a line's end would meet a ``]``;
      either fails the parse. So inner list *i* holds exactly the values of
      line *i*, and its one value is what ``json.loads`` gives for that line
      alone.
    - A chunk whose strings UTF-8 cannot encode (a lone surrogate, from a
      ``\\uD800``-``\\uDFFF`` escape) is refused, as the per-line reader
      refuses the line; :func:`_unencodable` checks only a chunk with a
      backslash.

    None sends the whole file to the per-line reader, which finds the first
    bad line and makes its message. Chunks bound the record dicts held at
    once, and each chunk's dicts are freed before its cases are made, so
    the cases reuse their memory rather than leave it in holes.
    """
    cases: list[Case] = []
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start : start + _CHUNK_LINES]
        text = "[[" + "],\n[".join(chunk) + "]]"
        try:
            rows = json.loads(text)
        except (ValueError, RecursionError):
            return None
        if len(rows) != len(chunk) or set(map(len, rows)) != {1}:
            return None
        records = list(chain.from_iterable(rows))
        if not _only(dict, records):
            return None
        ids, titles, solutions, metas = (
            list(map(dict.get, records, repeat(key))) for key in ("id", "title", "solution", "meta")
        )
        del rows, records  # before the cases are made: see the docstring
        valid = (
            _only(str, ids) and all(ids) and _only(str, titles) and all(titles)
            and set(map(type, solutions)) <= {str, NoneType}
            and set(map(type, metas)) <= {dict, NoneType}
            # JSON object keys are strings: a meta map is flat when its values are
            and _only(str, chain.from_iterable(map(dict.values, filter(None, metas))))
            and _unencodable(text, chain(
                ids, titles, filter(None, solutions),
                chain.from_iterable(chain.from_iterable(map(dict.items, filter(None, metas)))),
            )) is None
        )
        if not valid:
            return None
        cases += map(Case, ids, titles, solutions, metas)
    return cases


def _read_records(path: str | os.PathLike[str], lines: list[str]) -> list[Case]:
    """The cases of the record *lines*, one ``json.loads`` per non-blank line.

    The reference reader, and the one that raises: the first bad line is a
    :class:`DataError` naming *path* and its 1-based line number.
    """
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


def append_case(path: str | os.PathLike[str], case: Case) -> None:
    """Append one record-mode line for *case* to the corpus file."""
    record: dict = {"id": case.id, "title": case.title}
    if case.solution is not None:
        record["solution"] = case.solution
    if case.meta:
        record["meta"] = dict(case.meta)
    line = _canonical_json(record)
    prefix = ""
    if os.path.exists(path):
        with open(path, "rb") as handle:
            handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
            if handle.read(1) not in (b"", b"\n"):  # keep records line-delimited
                prefix = "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(prefix + line + "\n")
