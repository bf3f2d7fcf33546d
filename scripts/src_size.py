#!/usr/bin/env python3
"""Print the size of the library: lines of code per module and in total.

Run from anywhere:

    python3 scripts/src_size.py

A line counts when it is neither blank nor only a ``#`` comment, so
docstrings count.  Each module of ``src/thermosdp`` gets one line, then the
total and the number of public names in ``thermosdp.__all__``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def code_lines(path: Path) -> int:
    """Lines of ``path`` that are neither blank nor only a ``#`` comment."""
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import thermosdp

    modules = sorted((SRC / "thermosdp").glob("*.py"))
    counts = {path.name: code_lines(path) for path in modules}
    width = max(len(name) for name in counts)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    print(f"{'__all__':<{width}}  {len(thermosdp.__all__):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
