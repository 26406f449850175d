"""Check the golden stdout digests on the running interpreter.

tests/golden.json holds the frozen SHA-256 of the stdout of each golden
run, in groups, each with a note on when its digests were recorded. This
tool runs every labelled command through `lifelens.cli.main` in a fresh
temporary directory, with the pattern files the command reads written
there, and prints the label of each run whose exit code is not 0, whose
stderr is not empty or whose stdout digest differs. It exits 1 when one
does, else 0. tests/test_golden.py runs each golden through `run` here.
Uses only the standard library, so it runs on any interpreter the
package supports:

    python tools/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

from lifelens.ca import GLIDER, CAState, glider_block_scene, render_pattern  # noqa: E402
from lifelens.cli import main as lifelens_main  # noqa: E402


def column_cut() -> CAState:
    """A ladder of still blocks at x 0-1, in rows 3k and 3k + 1 for
    k < 14, a block at x 4000-4001 in its first two rows, and a glider
    below the ladder. The far block shares the ladder's rows, so
    _layout cuts that band by columns."""
    cells = {(x, 3 * k + dy) for k in range(14) for x in (0, 1) for dy in (0, 1)}
    cells |= {(x, y) for x in (4000, 4001) for y in (0, 1)}
    cells |= {(x + 10, y + 45) for x, y in GLIDER.live}
    return CAState(frozenset(cells))


def soup() -> CAState:
    """A 60x60 soup at density 0.35, drawn row by row from one seeded
    generator."""
    rng = random.Random(271828)
    return CAState(frozenset((x, y) for y in range(60) for x in range(60) if rng.random() < 0.35))


# The pattern files a golden `life` run may read, made in its directory.
PATTERNS = {"scene.txt": glider_block_scene, "cut.txt": column_cut, "soup.txt": soup}


def load() -> dict[str, str]:
    """Each golden label with its frozen digest, over all groups."""
    groups = json.loads(DIGESTS.read_text(encoding="ascii"))
    return {label: digest for group in groups for label, digest in group["digests"].items()}


def write_patterns(label: str, directory: Path) -> None:
    """Write the pattern files that `lifelens LABEL` reads into directory."""
    for name in set(label.split()) & set(PATTERNS):
        (directory / name).write_text(render_pattern(PATTERNS[name]()), encoding="ascii")


def run(label: str) -> tuple[int, str, str]:
    """(exit code, stdout digest, stderr) of `lifelens LABEL`, run in a
    fresh temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_patterns(label, Path(directory))
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lifelens_main(label.split())
        finally:
            os.chdir(cwd)
    return code, sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def check(digests: dict[str, str]) -> list[str]:
    """The labels whose run does not exit 0 with empty stderr and its
    frozen stdout digest."""
    return [label for label, digest in digests.items() if run(label) != (0, digest, "")]


def main() -> int:
    digests = load()
    differ = check(digests)
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(digests) - len(differ)} of {len(digests)} golden digests match "
          f"on Python {platform.python_version()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
