"""Text normalization for corpus titles and incoming queries.

Titles and queries pass through the same pipeline so query terms land in
exactly the form the index stores: split on non-alphanumeric runs, lowercase,
drop stopwords and under-length tokens. No stemming, no n-grams.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

# A token is a maximal run of Unicode letters/digits; \w minus underscore.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class PreprocessConfig:
    """Tokenizer settings shared by indexing and querying.

    Stopword entries are held in lowercase form regardless of how they were
    supplied, since that is the form matched tokens take.
    """

    casefold: bool = True
    stopwords: frozenset[str] = frozenset()
    min_token_length: int = 1

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ConfigError(
                f"min_token_length must be >= 1, got {self.min_token_length}"
            )
        object.__setattr__(self, "stopwords", frozenset(w.lower() for w in self.stopwords))

    def fingerprint(self) -> str:
        """Stable hex digest identifying this configuration."""
        canonical = "casefold={}\nmin_token_length={}\nstopwords={}".format(
            int(self.casefold),
            self.min_token_length,
            ",".join(sorted(self.stopwords)),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def tokenize(text: str, config: PreprocessConfig | None = None) -> list[str]:
    """Split *text* into normalized tokens, preserving surface order.

    Splitting happens on maximal runs of non-alphanumeric characters, so
    punctuation and whitespace never survive into tokens. Empty or
    separator-only input yields an empty list rather than an error.
    """
    if config is None:
        config = PreprocessConfig()
    pieces = _TOKEN_RE.findall(text)
    if config.casefold:
        # plain lowercase, not full casefolding: keeps Latin-script corpora
        # locale-independent
        pieces = [piece.lower() for piece in pieces]
    return [
        piece
        for piece in pieces
        if len(piece) >= config.min_token_length and piece not in config.stopwords
    ]


def load_stopwords(path: str | Path) -> set[str]:
    """Read a stopword file: one word per line, UTF-8.

    Blank lines and lines starting with ``#`` are ignored; entries are
    lowercased and deduplicated.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read stopword file {path}: {exc}") from exc
    words: set[str] = set()
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return words
