"""Exception types shared across the package."""


class SearchError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(SearchError):
    """Invalid preprocessing configuration or unreadable stopword file."""


class DataError(SearchError):
    """Bad corpus data: duplicate ids, empty corpora, malformed records."""


class StateError(SearchError):
    """An operation was attempted on a value that cannot support it."""


class IndexFormatError(SearchError):
    """An index file is unreadable, corrupt, or of an unsupported version."""
