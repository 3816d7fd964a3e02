"""Regenerate the pipelined-driver golden fixtures.

Run from the repository root **on a known-good driver** (normally the
commit *before* a change to the round loop lands)::

    PYTHONPATH=src python -m tests.goldens.generate_pipelined

Writes ``tests/goldens/goldens_pipelined.json``.  The replay test
(``tests/core/test_pipelined_golden.py``) then pins every later driver
to these recorded values bit-for-bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.goldens.pipelined_cases import (
    all_pipelined_cells,
    pipelined_case_id,
    run_pipelined_case,
)

GOLDEN_PATH = Path(__file__).with_name("goldens_pipelined.json")


def main() -> None:
    records = {}
    for case, op in all_pipelined_cells():
        key = pipelined_case_id(case, op)
        records[key] = run_pipelined_case(case, op)
        print(f"recorded {key}")
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(records)} cases)")


if __name__ == "__main__":
    main()
