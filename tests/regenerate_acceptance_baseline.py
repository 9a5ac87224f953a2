"""Rewrite ``tests/acceptance_baseline.json`` from a fresh run of the acceptance criteria.

    PYTHONPATH=src python tests/regenerate_acceptance_baseline.py

It runs every criterion of ``tests/test_acceptance.py``, leaving out the
baseline comparison itself, and writes the file only when every criterion
passed.  Run it only for a move in the acceptance values that the change
explains and lists in CHANGES.md, never to absorb one it cannot explain.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py"),
                        "--deselect", "tests/test_acceptance.py::test_acceptance_baseline"])
    if code != 0:
        print("not every acceptance criterion passed; the baseline is left as it is",
              file=sys.stderr)
        return 1
    acceptance = sys.modules["tests.test_acceptance"]
    records = acceptance.session_records()
    acceptance.BASELINE.write_text(json.dumps(records, indent=2, ensure_ascii=False) + "\n",
                                   encoding="utf-8")
    print(f"wrote {acceptance.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
