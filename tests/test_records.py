"""The package's records: immutable named tuples, cheap to import and build."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import cbrsearch
from cbrsearch import (
    Case,
    ConfigError,
    DataError,
    DocumentVector,
    IngestReport,
    PreprocessConfig,
    QueryVector,
    RankedMatch,
    RankedResults,
    RetrievalOutcome,
    ReuseResult,
)
from cbrsearch.cli import EvalReport, EvalRow

RECORDS = [
    Case,
    IngestReport,
    DocumentVector,
    QueryVector,
    PreprocessConfig,
    RankedMatch,
    RankedResults,
    RetrievalOutcome,
    ReuseResult,
    EvalRow,
    EvalReport,
]


def test_the_command_line_imports_no_dataclasses_inspect_or_typing():
    # -I -S: no site hooks, which may import any of them on their own
    src = str(Path(cbrsearch.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import cbrsearch.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    reply = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert (reply.returncode, reply.stdout, reply.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_the_annotations_name_the_fields_in_order(record):
    assert list(record.__annotations__) == list(record._fields)


class TestReplaceValidates:
    def test_an_empty_case_id_is_refused(self):
        with pytest.raises(DataError, match="case id must be non-empty"):
            Case("1", "t")._replace(id="")

    def test_a_min_token_length_below_one_is_refused(self):
        with pytest.raises(ConfigError, match="min_token_length must be >= 1"):
            PreprocessConfig()._replace(min_token_length=0)

    def test_replaced_stopwords_are_lowercased(self):
        assert PreprocessConfig()._replace(stopwords={"DAN"}).stopwords == frozenset({"dan"})

    def test_make_checks_like_construction(self):
        assert Case._make(["1", "t"]) == Case("1", "t")
        with pytest.raises(DataError):
            Case._make(["", "t", None, None])


class TestImmutable:
    def test_a_case_field_cannot_be_assigned(self):
        case = Case("1", "t")
        with pytest.raises(AttributeError):
            case.title = "u"
        assert case.title == "t"

    def test_a_results_field_cannot_be_assigned(self):
        results = RankedResults((RankedMatch("1", 1.0, 1),), 1, "cosine", 0.0, ())
        with pytest.raises(AttributeError):
            results.total_matches = 2
        with pytest.raises(AttributeError):
            results.extra = 1


class TestTupleBehaviour:
    def test_a_record_unpacks_and_equals_the_tuple_of_its_values(self):
        case_id, title, solution, meta = case = Case("1", "t")
        assert (case_id, title, solution, meta) == ("1", "t", None, None) == case

    def test_results_are_true_only_with_matches(self):
        empty = RankedResults((), 0, "cosine", 0.0, ("x",))
        assert not empty and empty.top is None and len(empty) == 5
        one = empty._replace(matches=(RankedMatch("1", 1.0, 1),), total_matches=1)
        assert one and one.top == RankedMatch("1", 1.0, 1)

    def test_repr_names_the_fields(self):
        assert repr(Case("1", "t")) == "Case(id='1', title='t', solution=None, meta=None)"
