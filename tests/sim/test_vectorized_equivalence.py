"""Differential harness: per-rank reference vs node-level vectorized driver.

The equivalence contract (DESIGN.md §11): for fault-free, metadata-only
collectives the vectorized driver must reproduce every deterministic
accounting field of the per-rank reference — bytes, rounds, aggregator
placements, shuffle locality split, groups —
and must feed the byte-conservation auditor an identical
attempt/extent/shuffle record.  Only ``elapsed`` (pinned separately by
the vectorized goldens) and the execution-mode fields themselves may
differ.

The matrix here reuses the golden-trace cluster cases (uniform memory,
skewed pressure with remerges, tiny paged memory) so the differential
coverage tracks the same regimes the bit-exact goldens pin, plus the
fallback cells: a vectorized engine refused by the data plane must
reproduce the recorded per-rank goldens *bit for bit*, timing included.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import MCIOConfig
from repro.core.path import PathDecision
from repro.core.request import AccessPattern, StridedSegment

from tests.goldens.cases import (
    CLUSTER_CASES,
    build_patterns,
    case_id,
    run_case,
)
from tests.helpers import assert_stats_equivalent, run_differential

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens" / "goldens.json"
KIB = 1024

CASES = {c.name: c for c in CLUSTER_CASES}


def case_config(case, **overrides) -> MCIOConfig:
    """The MCIO configuration the golden matrix pins for `case`."""
    kwargs = dict(
        msg_group=16 * 1024,
        msg_ind=2 * 1024,
        mem_min=0,
        nah=2,
        cb_buffer_size=case.cb_buffer_size,
        min_buffer=1,
    )
    kwargs.update(overrides)
    return MCIOConfig(**kwargs)


def run_case_differential(case, op, repeats=1, **config_overrides):
    patterns = build_patterns(case)
    return run_differential(
        patterns,
        case_config(case, **config_overrides),
        op=op,
        repeats=repeats,
        n_ranks=case.n_ranks,
        n_nodes=case.n_nodes,
        cores=case.cores,
        memory_availability=case.memory_availability,
        stripe_size=case.stripe_size,
    ), patterns


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("op", ["write", "read"])
def test_stats_equivalent_on_golden_matrix(case_name, op):
    """Every golden cluster case: field-exact CollectiveStats equality."""
    case = CASES[case_name]
    (ref, vec, _, _), _ = run_case_differential(case, op)
    assert ref.path == PathDecision("lockstep")
    assert vec.path == PathDecision("vectorized")
    assert_stats_equivalent(ref, vec)


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("op", ["write", "read"])
def test_audit_records_equivalent(case_name, op):
    """Both paths feed the conservation auditor the same record."""
    case = CASES[case_name]
    (ref, vec, ref_aud, vec_aud), patterns = run_case_differential(case, op)
    ref_rec = ref_aud.verify(patterns)
    vec_rec = vec_aud.verify(patterns)
    assert ref_rec.attempts == vec_rec.attempts == 1
    assert ref_rec.extents == vec_rec.extents
    assert ref_rec.final_attempt_shuffle == vec_rec.final_attempt_shuffle


@pytest.mark.parametrize("op", ["write", "read"])
def test_back_to_back_parity(op):
    """Two ops per engine: the second replans identically in both modes,
    past the sequence slot the first vectorized op claimed."""
    case = CASES["uniform"]
    (ref, vec, _, _), _ = run_case_differential(case, op, repeats=2)
    assert_stats_equivalent(ref, vec)


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("op", ["write", "read"])
def test_data_plane_fallback_is_bit_identical_to_goldens(case_name, op):
    """A vectorized engine refused by the data plane replays the golden.

    With a datastore attached the driver must fall back to the per-rank
    path — and that fallback has to reproduce the recorded per-rank
    golden exactly: simulated clock, datastore image, and every stats
    field.  The refusal lives in the path decision, outside the golden
    form.
    """
    import hashlib

    import numpy as np

    from repro.core import MemoryConsciousCollectiveIO
    from repro.core.vectorized import run_vectorized_collective

    from tests.goldens.cases import (
        _prefill,
        make_engine,
        stats_to_jsonable,
    )
    from tests.helpers import make_stack, rank_payload

    case = CASES[case_name]
    stored = json.loads(GOLDENS.read_text())[case_id("mcio", op, case)]
    patterns = build_patterns(case)
    stack = make_stack(
        n_ranks=case.n_ranks,
        n_nodes=case.n_nodes,
        cores=case.cores,
        stripe_size=case.stripe_size,
    )
    if case.memory_availability is not None:
        stack.cluster.set_memory_availability(case.memory_availability)
    engine = make_engine(
        "mcio", stack, case, mcio_overrides={"execution_mode": "vectorized"}
    )
    assert isinstance(engine, MemoryConsciousCollectiveIO)
    end = max(p.end for p in patterns if not p.empty)
    if op == "write":
        payloads = [
            rank_payload(r, patterns[r].nbytes).copy()
            for r in range(case.n_ranks)
        ]
    else:
        _prefill(stack.pfs.datastore, end)
        payloads = None

    stats = run_vectorized_collective(engine, patterns, op, payloads=payloads)
    assert stats.path == PathDecision("lockstep", ("vectorized:data-plane",))

    image = np.asarray(stack.pfs.datastore.read(0, end), dtype=np.uint8)
    assert float(stack.env.now).hex() == stored["final_now_hex"]
    assert hashlib.sha256(image.tobytes()).hexdigest() == stored["datastore_sha256"]
    assert stats_to_jsonable(engine.history[0]) == stored["stats"]


#: Multi-group platform: 8 ranks on 4 nodes of 2 cores.
MULTI_GROUP_SHAPE = dict(n_ranks=8, n_nodes=4, cores=2)


def multi_group_setup():
    """One 4 KiB serial tile per rank, group size = two tiles, one
    aggregator per node: four independent aggregation groups on four
    hosts."""
    tile = 4 * KIB
    patterns = [AccessPattern.contiguous(r * tile, tile) for r in range(8)]
    config = MCIOConfig(
        msg_group=2 * tile, msg_ind=tile // 2, mem_min=0, nah=1,
        cb_buffer_size=1024, min_buffer=1,
    )
    return patterns, config


def interleaved_multi_group_setup():
    """Every rank strides across the whole file in 1 KiB chunks, so every
    group receives data from every node (inter-node shuffle);
    msg_ind == msg_group puts one aggregator on each group, on distinct
    hosts (nah=1)."""
    patterns = [
        AccessPattern((StridedSegment(r * KIB, KIB, 8 * KIB, 4),))
        for r in range(8)
    ]
    config = MCIOConfig(
        msg_group=8 * KIB, msg_ind=8 * KIB, mem_min=0, nah=1,
        cb_buffer_size=2 * KIB, min_buffer=1,
    )
    return patterns, config


#: name -> (setup, op, whether the shuffle must cross nodes)
MULTI_GROUP_WORKLOADS = {
    "tiles-write": (multi_group_setup, "write", False),
    "tiles-read": (multi_group_setup, "read", False),
    "interleaved-write": (interleaved_multi_group_setup, "write", True),
}


@pytest.mark.parametrize("name", sorted(MULTI_GROUP_WORKLOADS))
def test_multi_group_workloads_equivalent(name):
    """Several independent aggregation groups vectorize without refusal
    and match the per-rank reference field for field and extent for
    extent."""
    setup, op, inter_node = MULTI_GROUP_WORKLOADS[name]
    patterns, config = setup()
    ref, vec, ref_aud, vec_aud = run_differential(
        patterns, config, op=op, **MULTI_GROUP_SHAPE
    )
    assert vec.path == PathDecision("vectorized")
    assert vec.n_groups >= 2
    assert_stats_equivalent(ref, vec)
    ref_rec = ref_aud.verify(patterns)
    vec_rec = vec_aud.verify(patterns)
    assert ref_rec.extents == vec_rec.extents
    assert ref_rec.final_attempt_shuffle == vec_rec.final_attempt_shuffle
    assert (vec.shuffle_inter_node_bytes > 0) == inter_node


def test_per_rank_mode_never_invokes_driver():
    """execution_mode="per-rank" (the default) is untouched by this PR."""
    cfg = case_config(CASES["uniform"])
    assert cfg.execution_mode == "per-rank"
