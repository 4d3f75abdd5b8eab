"""``tools/code_lines.py``: code lines, without blanks, comments and
docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(box):
    """Function
    docstring."""
    text = """a string that is no docstring
    counts on every line"""
    return math.prod([box.size] * 2), text


async def wait():
    """Only a docstring, then code."""
    return None
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, size, def, text (2 lines), return, async def, return
    assert _tool().code_lines(FIXTURE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n\n# done\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py 1", "b.py 9", "total 10"]
