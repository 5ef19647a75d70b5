"""tools/linecount.py gives every line of a module exactly one kind."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecount.py"
spec = importlib.util.spec_from_file_location("linecount", TOOL)
linecount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecount)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
x = 1  # code with a comment


def f():
    """Function docstring."""
    return "not a docstring"


def g(): """A docstring on a line with code."""
'''


def test_each_kind_is_counted():
    assert linecount.count(SOURCE) == {
        "docstring": 3,
        "comment": 1,
        "blank": 5,
        "code": 4,
        "total": 13,
    }

