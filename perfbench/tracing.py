"""Spans around the package's public functions, recorded from outside.

Each layer function is wrapped at the name its callers look it up by (the
module attribute ``cbrsearch.cli.load_index``, the class attribute
``CaseBase.retrieve``), so the package's own files stay untouched. A span
holds its name, start, end, the span that was open when it began, and the
phase of the run. Spans stay in memory until the run ends; self time is a
span's duration minus the time its child spans cover.

Work counters are read from public state in the same wrapper, after the
span has closed: postings visited from ``Index.postings``, candidates from
``total_matches`` (every workload ranks at threshold 0). The time spent
counting is charged to no layer.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from collections import defaultdict
from time import perf_counter_ns


def _query_term_ids(query):
    weights = getattr(query, "weights", None)
    return weights.keys() if weights is not None else getattr(query, "term_ids", ())


def _count_rank(args, kwargs, result):
    index, query = args[0], args[1]
    visited = sum(len(index.postings[tid]) for tid in _query_term_ids(query))
    return visited, result.total_matches, len(result.matches)


def _count_query(args, kwargs, result):
    return len(_query_term_ids(result)), len(result.dropped_terms)


# span name -> (where callers look the function up, counter or None)
LAYERS = {
    "preprocess.tokenize": (
        [("cbrsearch.index", "tokenize"), ("cbrsearch.casebase", "tokenize"), ("cbrsearch.cli", "tokenize")],
        None,
    ),
    "index.build_index": ([("cbrsearch.casebase", "build_index"), ("cbrsearch.cli", "build_index")], None),
    "index.vectorize_query": ([("cbrsearch.index", "Index.vectorize_query")], _count_query),
    "index.term_set_query": ([("cbrsearch.index", "Index.term_set_query")], _count_query),
    "similarity.rank": ([("cbrsearch.casebase", "rank"), ("cbrsearch.cli", "rank")], _count_rank),
    "casebase.retrieve": ([("cbrsearch.casebase", "CaseBase.retrieve")], None),
    "casebase.retain": ([("cbrsearch.casebase", "CaseBase.retain")], None),
    "store.load_index": ([("cbrsearch.cli", "load_index")], None),
    "store.save_index": ([("cbrsearch.cli", "save_index")], None),
    "store.read_corpus": ([("cbrsearch.cli", "read_corpus")], None),
    "store.append_case": ([("cbrsearch.cli", "append_case")], None),
    "cli.main": ([("cbrsearch.cli", "main")], None),
}


class Tracer:
    """Collects spans while :meth:`installed` has the wrappers in place.

    Spans are columns of plain lists rather than one object each: an add
    records ten thousand tokenize spans, and that many container objects
    would make every garbage collection of the run slower.
    """

    def __init__(self):
        self.phase = ""
        self.names: list[str] = []
        self.phases: list[str] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for none
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.excluded: list[int] = []  # counting time spent inside the span
        self.counts: list[tuple | None] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, counter):
        open_, starts, ends, excluded = self._open, self.starts, self.ends, self.excluded

        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name)
            self.phases.append(self.phase)
            self.parents.append(open_[-1] if open_ else -1)
            starts.append(0)
            ends.append(0)
            excluded.append(0)
            self.counts.append(None)
            open_.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_.pop()
                starts[span] = start
                ends[span] = end
            if counter is not None:
                self.counts[span] = counter(args, kwargs, result)
                if open_:
                    excluded[open_[-1]] += perf_counter_ns() - end
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function that exists; restore them on exit.

        A lookup name the package no longer has is skipped, and the layer
        then reports zero calls rather than breaking the run.
        """
        saved = []
        try:
            for name, (sites, counter) in LAYERS.items():
                for module_name, attribute in sites:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attribute.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__.get(leaf)
                    if original is None:
                        continue
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def summary(self, phase: str) -> dict[str, "LayerStats"]:
        """Per span name: calls, self and total times, counters, for *phase*."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += duration
        stats: dict[str, LayerStats] = defaultdict(LayerStats)
        for span, name in enumerate(self.names):
            if self.phases[span] != phase:
                continue
            entry = stats[name]
            entry.self_ns.append(durations[span] - covered[span] - self.excluded[span])
            entry.total_ns += durations[span]
            if self.counts[span] is not None:
                entry.counts.append(self.counts[span])
        return stats


class LayerStats:
    """Spans of one name in one phase: self times, total time, counters."""

    def __init__(self):
        self.self_ns: list[int] = []
        self.total_ns = 0
        self.counts: list[tuple] = []

    @property
    def calls(self) -> int:
        return len(self.self_ns)

    def self_ms_total(self) -> float:
        return sum(self.self_ns) / 1e6

    def self_mean(self, unit: float) -> float:
        return statistics.fmean(self.self_ns) / unit if self.self_ns else 0.0

    def total_mean_ms(self) -> float:
        return self.total_ns / self.calls / 1e6 if self.calls else 0.0
