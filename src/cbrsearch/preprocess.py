"""Text normalization for corpus titles and incoming queries.

Titles and queries pass through the same pipeline so query terms land in
exactly the form the index stores: split on non-alphanumeric runs, lowercase
every token, drop stopwords and under-length tokens. No stemming, no n-grams.
ASCII text made only of letters, digits and spaces, as most titles are, is
lowered once and split on its spaces, which yields those same tokens
without a regex or a per-token ``lower``.
The module handles text only: the stopword file is read by
:func:`store.load_stopwords`, and ``store`` alone maps a configuration to
and from an index file.

:class:`PreprocessConfig` is an immutable named tuple. Construction and
``_replace`` alike check its minimum token length and lowercase its
stopwords.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ConfigError

# A token is a maximal run of Unicode letters/digits; \w minus underscore.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class PreprocessConfig(namedtuple("PreprocessConfig", "stopwords min_token_length")):
    """Tokenizer settings shared by indexing and querying.

    Stopword entries are held in lowercase form regardless of how they were
    supplied, since that is the form matched tokens take.
    """

    __slots__ = ()
    stopwords: frozenset[str]
    min_token_length: int

    def __new__(cls, stopwords: frozenset[str] = frozenset(), min_token_length: int = 1):
        if min_token_length < 1:
            raise ConfigError(f"min_token_length must be >= 1, got {min_token_length}")
        stopwords = frozenset(w.lower() for w in stopwords)
        return tuple.__new__(cls, (stopwords, min_token_length))

    @classmethod
    def _make(cls, iterable) -> PreprocessConfig:
        # through __new__, so _replace checks and lowercases as construction does
        return cls(*iterable)


def tokenize(text: str, config: PreprocessConfig | None = None) -> list[str]:
    r"""Split *text* into normalized tokens, preserving surface order.

    Splitting happens on maximal runs of non-alphanumeric characters, so
    punctuation and whitespace never survive into tokens. Empty or
    separator-only input yields an empty list rather than an error.
    Every token is lowercased, after the split: lowering the text first
    would let a character that lowercases to two (``"İ"``) split a token.
    ASCII text of only letters, digits and spaces is the exception (the
    split path): ASCII lowercases one character to one, so its lowered
    words are those same tokens.

    >>> tokenize("Sistem Pakar")
    ['sistem', 'pakar']
    >>> tokenize("TF-IDF, Web")
    ['tf', 'idf', 'web']
    >>> tokenize("İzmir") == ["i\u0307zmir"]  # lowered after the split
    True
    """
    # one unpacking: a field read on a named tuple costs more than a local
    stopwords, min_length = PreprocessConfig() if config is None else config
    # plain lowercase, not full casefolding: keeps Latin-script corpora
    # locale-independent
    # "".isalnum() is False, so empty and space-only text take the regex
    if text.isascii() and text.replace(" ", "").isalnum():
        pieces = text.lower().split()
    else:
        pieces = [piece.lower() for piece in _TOKEN_RE.findall(text)]
    if not stopwords and min_length == 1:
        return pieces  # every piece is non-empty, so the filter would keep all
    return [piece for piece in pieces if len(piece) >= min_length and piece not in stopwords]
