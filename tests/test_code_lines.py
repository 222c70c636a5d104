"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Eight lines hold code: the seven that end in "# code", and the second line
# of the string assigned to y.  The others are docstrings, comments and blank
# lines.
SOURCE = "\n".join([
    '"""Module docstring,',
    'on two lines."""',
    "",
    "import os  # code",
    "",
    "# a comment line",
    "def f(x):  # code",
    "    '''Function docstring.'''",
    '    y = """a string that  # code',
    'is code"""',
    "    return (x +  # code",
    "            y)  # code",
    "",
    "",
    "class C:  # code",
    '    """Class docstring."""',
    "",
    "    z = 1  # code",
    "",
])


def test_counts_lines_of_code_only():
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["8", str(tmp_path / "a.py"),
                                               "1", str(tmp_path / "b.py"), "9", "total"]


def test_counts_a_file_that_two_paths_reach_once(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path), str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.split() == ["8", str(tmp_path / "a.py"),
                                               "1", str(tmp_path / "b.py"), "9", "total"]
