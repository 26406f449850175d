"""Freeze the SHA-256 of each command's stdout at the program's default seed.

Writes digests.json next to this file. The benchmark then fails any
operation whose input is fully fixed and whose output no longer matches.
Run it from the repository root only on a commit whose output is meant
to become the reference:

    python3 bench/freeze_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=HERE.parent) as tmp:
        for build in workloads.BUILDERS.values():
            for op in build(workloads.DEFAULT_SEED, Path(tmp)).ops:
                if op.argv:
                    code, out, err = workloads.call_cli(list(op.argv))
                    if code != 0 or err:
                        raise SystemExit(f"{op.label}: exit {code}, stderr {err!r}")
                    digests[op.label] = workloads.sha256(out)
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
