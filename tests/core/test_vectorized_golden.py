"""Golden-trace replay for the node-level vectorized driver.

The fixtures in ``tests/goldens/goldens_vectorized.json`` pin two
cells — ``{write, read}`` of the ``remerge`` case (see
:mod:`tests.goldens.vectorized_cases`): the vectorized driver's own
stats and simulated clock, so changes to its multi-message transfer
arithmetic, window staging, or barrier charges are diff-detectable.
The refused path is pinned against the kernel goldens by
``tests/sim/test_vectorized_equivalence.py``.

Regenerate only by deliberate decision via
``python -m tests.goldens.generate_vectorized``.
"""

import json
from pathlib import Path

import pytest

from tests.goldens.vectorized_cases import (
    OPS,
    VEC_CASES,
    run_vectorized_case,
    vectorized_case_id,
)

GOLDEN_PATH = Path(__file__).parents[1] / "goldens" / "goldens_vectorized.json"

with GOLDEN_PATH.open() as fh:
    GOLDENS = json.load(fh)

CELLS = [(case, op) for case in VEC_CASES for op in OPS]


@pytest.mark.parametrize(
    "case,op", CELLS, ids=[vectorized_case_id(c, o) for c, o in CELLS]
)
def test_vectorized_golden_bit_identical(case, op):
    key = vectorized_case_id(case, op)
    assert key in GOLDENS, (
        f"no golden recorded for {key}; run "
        "`python -m tests.goldens.generate_vectorized` on the reference driver"
    )
    expected = GOLDENS[key]
    actual = run_vectorized_case(case, op)

    # compare stats field-by-field first for a readable failure
    for field, want in expected["stats"].items():
        got = actual["stats"][field]
        assert got == want, (
            f"{key}: stats.{field} diverged: got {got!r}, golden {want!r}"
        )
    assert set(actual["stats"]) == set(expected["stats"]), (
        f"{key}: recorded stats fields changed; regenerate deliberately"
    )
    assert actual["final_now_hex"] == expected["final_now_hex"], (
        f"{key}: final simulated clock diverged "
        f"(got {float.fromhex(actual['final_now_hex'])}, "
        f"golden {float.fromhex(expected['final_now_hex'])})"
    )


def test_vectorized_golden_matrix_is_complete():
    """Every vectorized cell has a recorded fixture and vice versa."""
    expected_keys = {vectorized_case_id(c, o) for c, o in CELLS}
    assert expected_keys == set(GOLDENS), (
        "vectorized golden fixture set does not match the case matrix; "
        "regenerate"
    )


def test_goldens_pin_the_vectorized_path():
    """Every recorded cell ran on the node-level driver, unrefused."""
    paths = {
        (rec["stats"]["path"]["driver"], tuple(rec["stats"]["path"]["refusals"]))
        for rec in GOLDENS.values()
    }
    assert paths == {("vectorized", ())}
