"""Case-based title retrieval.

Titles are tokenized into bags of words, weighted by term frequency times
inverse document frequency, and ranked against queries by cosine similarity
(or plain set overlap). Because the representation ignores word order, any
permutation of a query's words retrieves exactly the same titles with the
same scores. On top of the index sits the full case-handling cycle:
retrieve similar cases, reuse the best one's solution, revise a stored case,
retain a new one.

    >>> from cbrsearch import Case, CaseBase, reuse, search
    >>> base = CaseBase([
    ...     Case("1", "Sistem Navigasi Gedung", solution="peta interaktif"),
    ...     Case("2", "Aplikasi Monitoring Jaringan"),
    ... ])
    >>> outcome = base.retrieve("navigasi gedung")
    >>> reuse(outcome).text
    'peta interaktif'
    >>> search(base.index, "navigasi gedung", top_k=1).top.case_id
    '1'
"""

from .casebase import CaseBase, RetrievalOutcome, ReuseResult, reuse, search
from .errors import (
    ConfigError,
    DataError,
    IndexFormatError,
    SearchError,
    StateError,
)
from .index import (
    Case,
    Index,
    IngestReport,
    QueryVector,
    build_index,
)
from .preprocess import PreprocessConfig, tokenize
from .similarity import RankedMatch, RankedResults
from .store import (
    INDEX_FORMAT_VERSION,
    append_case,
    load_index,
    load_stopwords,
    read_corpus,
    save_index,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CaseBase",
    "ConfigError",
    "DataError",
    "INDEX_FORMAT_VERSION",
    "Index",
    "IndexFormatError",
    "IngestReport",
    "PreprocessConfig",
    "QueryVector",
    "RankedMatch",
    "RankedResults",
    "RetrievalOutcome",
    "ReuseResult",
    "SearchError",
    "StateError",
    "append_case",
    "build_index",
    "load_index",
    "load_stopwords",
    "read_corpus",
    "reuse",
    "save_index",
    "search",
    "tokenize",
]
