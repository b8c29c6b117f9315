"""``python -m repro.serve`` with every layer wrapped (the traced serve run).

Usage: ``python3 perfbench/servetraced.py DUMP_DIR start [serve start options]``.
The wrappers are installed before the server forks its worker, so the
worker inherits them; each process writes its totals and spans to
``DUMP_DIR`` when it ends.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402


def main() -> int:
    layers.install(serve=True, dump_dir=sys.argv[1])
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        layers.dump(f"server-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
