"""The scripts in tools/, on small inputs.

The tools are scripts, not part of the package, so they are loaded by
path. Each case of tools/code_lines.py, the code-line counter, pins one
of its stated rules: docstrings of a module, class or function, comments
and blank lines do not count; a statement over several lines counts each
line; a string that is not a docstring counts. tools/golden.py must pass
golden runs whose digests match and name each run that differs from its
digest, or that fails.
"""

import importlib.util
from pathlib import Path

import pytest


def load_tool(name: str):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
golden = load_tool("golden")


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


def test_golden_check_names_only_the_runs_that_differ():
    digests = golden.load()
    labels = ["updown --n 2", "life scene.txt", "theorem --trials 400 --max-len 1"]
    assert golden.check({label: digests[label] for label in labels}) == []
    changed = {label: digests[label] for label in labels}
    changed["life scene.txt"] = "0" * 64
    assert golden.check(changed) == ["life scene.txt"]
    # A failed run differs whatever its digest: exit 2, a line on stderr.
    assert golden.check({"updown --n 1": digests["updown --n 2"]}) == ["updown --n 1"]
