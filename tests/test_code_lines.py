"""``tools/code_lines.py``: all lines as ``wc -l`` counts them, and code
lines without docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, r):
        """Function docstring,

        with a blank line inside.
        """
        text = """a string that is no docstring,
        over two lines"""
        return math.pi * (
            r * r
        )


async def later():
    "A one-line docstring."
    x = 1; "an expression statement later in the body is code"
    return x
'''

# code lines: import, class, sides, def area, text (2 lines), return (3 lines),
# async def, x = 1 ..., return x
CODE_LINES = 12


def test_counts_each_kind_of_line():
    assert _tool().count(SOURCE) == (SOURCE.count("\n"), CODE_LINES)


def test_a_file_of_docstring_and_comments_has_no_code():
    assert _tool().count('"""Only a docstring."""\n\n# and a comment\n') == (3, 0)


def test_paths_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        [str(SOURCE.count("\n")), str(CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", "1", str(tmp_path / "b.py")],
        [str(SOURCE.count("\n") + 1), str(CODE_LINES + 1), "total"],
    ]
