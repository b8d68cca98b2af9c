"""On-disk formats: the index snapshot and the corpus files.

Index file
    A single-line JSON document. It stores the preprocessing configuration,
    the vocabulary with document frequencies, and per-document raw term
    counts; weights are never written. On load they are recomputed through
    the same code path the builder uses and cross-checked against a stored
    checksum of the weight table, so a loaded index is bit-identical to the
    one that was saved. Serialization is canonical (sorted keys, fixed
    separators), which makes equal indexes produce byte-identical files.

Corpus files
    ``record`` mode: one JSON object per line with fields ``id`` and
    ``title`` (required), ``solution`` and ``meta`` (optional).
    ``plain`` mode: one title per line; ids are 1-based line numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import ConfigError, DataError, IndexFormatError
from .index import INDEX_FORMAT_VERSION, Case, Index, _assemble
from .preprocess import PreprocessConfig

_FORMAT_NAME = "cbrsearch-index"

CORPUS_FORMATS = ("record", "plain")


def _weights_checksum(index: Index) -> str:
    """Digest of the full weight table, losslessly via float hex."""
    digest = hashlib.sha256()
    for doc_id, doc in index.documents.items():
        for tid, weight in doc.weights.items():  # keys ascend by construction
            digest.update(f"{doc_id}\x00{tid}\x00{weight.hex()}\n".encode("utf-8"))
    return digest.hexdigest()


def save_index(index: Index, path: str | Path) -> None:
    """Write *index* to *path* as a versioned, checksummed JSON document.

    The document goes to a temporary file in the same directory, is flushed
    to disk, and then replaces *path* in one step, so a failure at any point
    leaves either the old file or the new one, never a partial one.
    """
    document = {
        "format": _FORMAT_NAME,
        "format_version": INDEX_FORMAT_VERSION,
        "preprocess": {
            "casefold": index.config.casefold,
            "min_token_length": index.config.min_token_length,
            "stopwords": sorted(index.config.stopwords),
        },
        "preprocess_fingerprint": index.config.fingerprint(),
        "corpus_size": index.corpus_size,
        "vocabulary": [
            [term, tid, df]
            for tid, (term, df) in enumerate(
                zip(index.vocabulary.terms, index.vocabulary.document_frequencies)
            )
        ],
        "documents": [
            {
                "id": doc.doc_id,
                "title": index.titles[doc.doc_id],
                "token_total": doc.token_total,
                "counts": [[tid, count] for tid, count in doc.raw_counts.items()],
            }
            for doc in index.documents.values()
        ],
        "weights_sha256": _weights_checksum(index),
    }
    payload = json.dumps(document, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _corrupt(path, detail: str) -> IndexFormatError:
    return IndexFormatError(f"corrupt index file {path}: {detail}")


def load_index(path: str | Path) -> Index:
    """Read an index file written by :func:`save_index`.

    Raises :class:`IndexFormatError` with a distinct message for an
    unreadable file, a corrupt file, an unsupported format version, or a
    weight-checksum mismatch. Unsupported versions are rejected, never
    migrated silently.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise _corrupt(path, f"not parseable as JSON ({exc})") from exc
    if not isinstance(document, dict) or document.get("format") != _FORMAT_NAME:
        raise _corrupt(path, "unrecognized layout")
    version = document.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format version {version!r} in {path} "
            f"(supported: {INDEX_FORMAT_VERSION})"
        )

    try:
        pre = document["preprocess"]
        stopwords = pre["stopwords"]
        if not isinstance(stopwords, list) or not all(isinstance(w, str) for w in stopwords):
            raise ValueError("stopwords must be a list of strings")
        config = PreprocessConfig(
            casefold=bool(pre["casefold"]),
            stopwords=frozenset(stopwords),
            min_token_length=int(pre["min_token_length"]),
        )
        fingerprint = document["preprocess_fingerprint"]
        corpus_size = document["corpus_size"]
        vocab_rows = document["vocabulary"]
        doc_rows_raw = document["documents"]
        stored_weights = document["weights_sha256"]
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise _corrupt(path, f"missing or malformed field ({exc})") from exc
    if config.fingerprint() != fingerprint:
        raise _corrupt(path, "preprocess fingerprint does not match stored configuration")
    if not isinstance(vocab_rows, list) or not isinstance(doc_rows_raw, list):
        raise _corrupt(path, "vocabulary and documents must be lists")

    id_to_term: list[str] = []
    stored_df: list[int] = []
    for row in vocab_rows:
        try:
            term, tid, df = row
        except (TypeError, ValueError) as exc:
            raise _corrupt(path, f"malformed vocabulary row {row!r}") from exc
        if tid != len(id_to_term) or not isinstance(term, str):
            raise _corrupt(path, "vocabulary ids are not dense and ascending")
        if not isinstance(df, int):
            raise _corrupt(path, f"malformed document frequency for term {term!r}")
        id_to_term.append(term)
        stored_df.append(df)
    if len(set(id_to_term)) != len(id_to_term):
        raise _corrupt(path, "vocabulary repeats a term")

    doc_rows: list[tuple[str, str, dict[int, int]]] = []
    seen_ids: set[str] = set()
    for row in doc_rows_raw:
        try:
            doc_id = row["id"]
            title = row["title"]
            token_total = int(row["token_total"])
            counts = {int(tid): int(count) for tid, count in row["counts"]}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _corrupt(path, f"malformed document row ({exc})") from exc
        if not isinstance(doc_id, str) or not doc_id:
            raise _corrupt(path, f"document id {doc_id!r} is not a non-empty string")
        if not isinstance(title, str):
            raise _corrupt(path, f"title of document {doc_id!r} is not a string")
        if doc_id in seen_ids:
            raise _corrupt(path, f"duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        if not counts:
            raise _corrupt(path, f"document {doc_id!r} has no term counts")
        for tid, count in counts.items():
            if not 0 <= tid < len(id_to_term) or count < 1:
                raise _corrupt(path, f"document {doc_id!r} references invalid term data")
        if token_total != sum(counts.values()):
            raise _corrupt(path, f"token total of document {doc_id!r} disagrees with counts")
        doc_rows.append((doc_id, title, counts))

    if not doc_rows:
        raise _corrupt(path, "no documents")
    if corpus_size != len(doc_rows):
        raise _corrupt(path, "corpus_size disagrees with the document list")
    if len({tid for _, _, counts in doc_rows for tid in counts}) != len(id_to_term):
        raise _corrupt(path, "a vocabulary term occurs in no document")

    index = _assemble(config, id_to_term, doc_rows)
    if list(index.vocabulary.document_frequencies) != stored_df:
        raise _corrupt(path, "stored document frequencies disagree with term counts")
    if _weights_checksum(index) != stored_weights:
        raise IndexFormatError(
            f"index weight checksum mismatch in {path}: recomputed weights "
            "do not match the stored checksum"
        )
    return index


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
        except ValueError as exc:
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
        tail = target.read_bytes()[-1:]
        if tail and tail != b"\n":  # keep records line-delimited
            prefix = "\n"
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(prefix + line + "\n")
