"""Run the ``apio`` console entry point from this checkout's sources.

``python3 perfbench/apio_main.py <apio arguments>`` behaves like the
installed ``apio`` command, with ``src`` put first on the import path.
The benchmark uses it for every command it runs in a process of its own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apio.cli import entrypoint  # noqa: E402

if __name__ == "__main__":
    entrypoint()
