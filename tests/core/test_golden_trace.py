"""Golden-trace equivalence: the optimized engine vs the seed engine.

The fixtures under ``tests/goldens/`` were recorded by running the
pre-optimisation engine over the seeded workload matrix
``{mcio, two-phase} x {read, write} x 3 cluster specs``
(see :mod:`tests.goldens.cases`).  This suite re-runs every cell on the
current engine and asserts the results are **bit-identical**:

* every :class:`~repro.core.metrics.CollectiveStats` field, with the
  elapsed time compared via ``float.hex`` (full precision, no tolerance);
* the final simulated clock;
* the PFS datastore byte image (sha256);
* for reads, every rank's returned payload bytes.

Any simulator optimisation that changes event ordering, cost arithmetic,
or planning output for fault-free runs fails here; regenerate only by
deliberate decision via ``python -m tests.goldens.generate``.
"""

import json
from pathlib import Path

import pytest

from tests.goldens.cases import CLUSTER_CASES, OPS, STRATEGIES, case_id, run_case

GOLDEN_PATH = Path(__file__).parents[1] / "goldens" / "goldens.json"

with GOLDEN_PATH.open() as fh:
    GOLDENS = json.load(fh)


CELLS = [
    (strategy, op, case)
    for case in CLUSTER_CASES
    for strategy in STRATEGIES
    for op in OPS
]


@pytest.mark.parametrize(
    "strategy,op,case",
    CELLS,
    ids=[case_id(s, o, c) for s, o, c in CELLS],
)
def test_golden_trace_bit_identical(strategy, op, case):
    key = case_id(strategy, op, case)
    assert key in GOLDENS, (
        f"no golden recorded for {key}; run `python -m tests.goldens.generate` "
        "on the reference engine"
    )
    expected = GOLDENS[key]
    actual = run_case(strategy, op, case)

    # compare stats field-by-field first for a readable failure
    for field, want in expected["stats"].items():
        got = actual["stats"][field]
        assert got == want, (
            f"{key}: stats.{field} diverged: got {got!r}, golden {want!r}"
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


MCIO_CELLS = [(s, o, c) for s, o, c in CELLS if s == "mcio"]


# the "pressure" case has skewed memory, so hybrid placement genuinely
# borrows there (covered by tests/core/test_borrow.py); the replay below
# asserts the *never-triggered* cells instead
NO_LENDER_CELLS = [(s, o, c) for s, o, c in MCIO_CELLS if c.name != "pressure"]


@pytest.mark.parametrize(
    "strategy,op,case",
    NO_LENDER_CELLS,
    ids=[case_id(s, o, c) + "/hybrid" for s, o, c in NO_LENDER_CELLS],
)
def test_golden_trace_with_hybrid_placement(strategy, op, case):
    """Borrow-*capable* placement must not perturb fault-free goldens.

    These cells are either uniformly memory-rich (no domain ever needs a
    remote buffer) or uniformly tight (adaptive shrinking wins before a
    lender is sought), so ``placement_policy="hybrid"`` takes the exact
    remerge code path: no lease is granted, no ``borrow.*`` event fires,
    and simulated time, stats, and datastore bytes stay bit-identical.
    """
    expected = GOLDENS[case_id(strategy, op, case)]
    actual = run_case(
        strategy, op, case, mcio_overrides={"placement_policy": "hybrid"}
    )
    for field, want in expected["stats"].items():
        assert actual["stats"][field] == want, f"stats.{field} diverged"
    assert actual["final_now_hex"] == expected["final_now_hex"]
    assert actual["datastore_sha256"] == expected["datastore_sha256"]
    assert actual.get("rank_payload_sha256") == expected.get(
        "rank_payload_sha256"
    )


@pytest.mark.parametrize("strategy", ["mcio", "two-phase"])
@pytest.mark.parametrize("op", OPS)
def test_tiny_mem_goldens_pin_paged_aggregators(strategy, op):
    """The tiny-mem case exists to pin paged placements: both collective
    strategies must record a paged aggregator there."""
    stats = GOLDENS[f"tiny-mem/{strategy}/{op}"]["stats"]
    assert stats["paged_aggregators"] > 0
    assert any(stats["agg_overcommit_bytes"].values())


def test_golden_matrix_is_complete():
    """Every matrix cell has a recorded fixture and vice versa."""
    expected_keys = {case_id(s, o, c) for s, o, c in CELLS}
    assert expected_keys == set(GOLDENS), (
        "golden fixture set does not match the case matrix; regenerate"
    )
