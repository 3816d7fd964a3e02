"""End-to-end benchmark of the simulator with layer-attributed host time.

``python3 -m perfbench measure`` runs one workload and prints one JSON
result line; ``run``, ``trace``, ``record`` and ``compare`` are the
developer commands around it (see README.md in this directory).

The benchmark always imports the simulator from the ``src/`` tree of
the checkout that holds this package, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``src/`` and this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import repro.

    Raises SystemExit when the checkout has no simulator source, or when
    ``repro`` resolves to a copy outside it: a benchmark of some other
    tree must never be reported as this one.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")
