"""The code-line counter, ``tools/code_lines.py``: what counts as a line of code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 10 code lines: the import, the class line, the attribute string, the def
# line, the four lines of the call and the two of the string
SAMPLE = '''"""A module docstring,
over two lines."""

import os  # a comment after code

# a comment on its own line


class Thing:
    """A class docstring."""

    "an attribute string after the docstring"

    def method(self):
        """A function docstring,
        over two lines."""
        return os.path.join(
            "a",
            "b",
        )


TEXT = """one
two"""
'''


def test_the_sample_counts_ten():
    assert code_lines.code_lines(SAMPLE) == 10


def test_the_docstrings_are_the_module_class_and_function_ones():
    assert code_lines.docstring_lines(SAMPLE) == {1, 2, 10, 15, 16}


@pytest.mark.parametrize(
    "source, count",
    [
        ('"""A module docstring."""\n', 0),
        ("# a comment\n\n\n# another\n", 0),
        ('def f():\n    """A docstring,\n    over two lines."""\n', 1),
        ('class C:\n    """A docstring."""\n    "an attribute string"\n', 2),
        ("f(\n    1,\n    2,\n)\n", 4),
        ('x = """a\nb\nc"""\n', 3),
        ('x = 1\n"""Not the first statement, so not a docstring."""\n', 2),
    ],
)
def test_what_counts(source, count):
    assert code_lines.code_lines(source) == count


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["11", "total"],
    ]


def test_main_without_paths_exits_1(capsys):
    assert code_lines.main([]) == 1
    assert capsys.readouterr().err.startswith("usage:")
