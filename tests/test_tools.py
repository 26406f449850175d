"""tools/code_lines.py, the code-line counter, on small sources.

The tool is a script, not part of the package, so it is loaded by path.
Each case pins one of its stated rules: docstrings of a module, class or
function, comments and blank lines do not count; a statement over
several lines counts each line; a string that is not a docstring counts.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, expected", [
    ('"""Module docstring."""\nx = 1\n', 1),
    ('"""Module docstring\nover two lines."""\nx = 1\n', 1),
    ('class A:\n    """Class docstring."""\n    x = 1\n', 2),
    ('def f():\n    """Function docstring."""\n    return 1\n', 2),
    ('async def f():\n    """Function docstring."""\n    return 1\n', 2),
    ("# A comment.\n\nx = 1  # A trailing comment.\n\n    \n# Another.\n", 1),
    ("x = (1 +\n     2)\n", 2),
    ('x = 1\n"Not a docstring."\n', 2),
    ('def f():\n    x = 1\n    """Not a docstring."""\n', 3),
], ids=["module-docstring", "two-line-docstring", "class-docstring", "function-docstring",
        "async-docstring", "comments-and-blanks", "two-line-statement", "late-module-string",
        "late-function-string"])
def test_code_lines(source, expected):
    assert code_lines.code_lines(source) == expected


def test_main_totals_its_module_lines(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {name: int(count) for name, count in rows[:-1]}
    paths = sorted(code_lines.PACKAGE.glob("*.py"))
    assert list(modules) == [path.name for path in paths]
    for path in paths:
        assert modules[path.name] == code_lines.code_lines(path.read_text(encoding="utf-8"))
    assert rows[-1] == ["total", str(sum(modules.values()))]
