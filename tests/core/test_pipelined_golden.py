"""Golden replay for the pipelined driver (persistent ``overlap=True``).

The fixtures in ``tests/goldens/goldens_pipelined.json`` pin six cells —
``{write, read} x {uniform, variance, failure}`` (see
:mod:`tests.goldens.pipelined_cases`): every epoch's stats with floats
as ``float.hex``, the final simulated clock, the datastore digest and
each rank's read-back bytes.  The ``failure`` cells pin the mid-epoch
degradation: the write's drain of in-flight windows, the read's
consumption of already-prefetched windows, and the failover that
finishes the epoch.

Regenerate only by deliberate decision via
``python -m tests.goldens.generate_pipelined``.
"""

import json
from pathlib import Path

import pytest

from tests.goldens.pipelined_cases import (
    OPS,
    PIPELINED_CASES,
    pipelined_case_id,
    run_pipelined_case,
)

GOLDEN_PATH = Path(__file__).parents[1] / "goldens" / "goldens_pipelined.json"

with GOLDEN_PATH.open() as fh:
    GOLDENS = json.load(fh)

CELLS = [(case, op) for case in PIPELINED_CASES for op in OPS]


@pytest.mark.parametrize(
    "case,op", CELLS, ids=[pipelined_case_id(c, o) for c, o in CELLS]
)
def test_pipelined_golden_bit_identical(case, op):
    key = pipelined_case_id(case, op)
    assert key in GOLDENS, (
        f"no golden recorded for {key}; run "
        "`python -m tests.goldens.generate_pipelined` on the reference driver"
    )
    expected = GOLDENS[key]
    actual = run_pipelined_case(case, op)

    assert len(actual["epochs"]) == len(expected["epochs"])
    for i, (got_epoch, want_epoch) in enumerate(
        zip(actual["epochs"], expected["epochs"])
    ):
        assert set(got_epoch) == set(want_epoch), (
            f"{key}: epoch {i}: recorded stats fields changed"
        )
        for field, want in want_epoch.items():
            got = got_epoch[field]
            assert got == want, (
                f"{key}: epoch {i}: stats.{field} diverged: "
                f"got {got!r}, golden {want!r}"
            )
    assert actual["final_now_hex"] == expected["final_now_hex"], (
        f"{key}: final simulated clock diverged "
        f"(got {float.fromhex(actual['final_now_hex'])}, "
        f"golden {float.fromhex(expected['final_now_hex'])})"
    )
    assert actual["datastore_sha256"] == expected["datastore_sha256"], (
        f"{key}: PFS datastore bytes diverged"
    )
    assert actual.get("rank_payload_sha256") == expected.get(
        "rank_payload_sha256"
    ), f"{key}: a rank's read-back payload diverged"


def test_pipelined_golden_matrix_is_complete():
    """Every pipelined cell has a recorded fixture and vice versa."""
    assert {pipelined_case_id(c, o) for c, o in CELLS} == set(GOLDENS)


def test_goldens_pin_overlap_and_degradation():
    """Every cell's first epoch ran pipelined and overlapped a PFS stage;
    the failure cells drained mid-epoch, failed over, and re-planned the
    next epoch onto the lockstep driver."""
    for key, rec in GOLDENS.items():
        first = rec["epochs"][0]
        assert first["path"]["driver"] == "pipelined", key
        assert first["extra"]["pipeline_overlapped"] > 0, key
        if key.startswith("failure/"):
            assert "pipeline_drained_at" in first["extra"], key
            assert first["failovers"] >= 1, key
            assert rec["epochs"][1]["path"] == {
                "driver": "lockstep", "refusals": ["pipelined:failed-nodes"],
            }, key
        else:
            assert "pipeline_drained_at" not in first["extra"], key
