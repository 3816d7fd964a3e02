"""Property-based per-rank vs vectorized equivalence (seeded hypothesis).

Satellite of the differential harness: instead of the pinned golden
matrix, hypothesis draws whole configurations — workload shape, rank
and node counts, memory regime, op — and every drawn cell must
satisfy the equivalence contract: identical I/O extents and offsets,
identical shuffle byte split, and freed memory on both paths.

``derandomize=True`` keeps CI deterministic; the example budget (200)
is the issue's floor for generated configurations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCIOConfig
from repro.core.path import PathDecision
from repro.core.request import AccessPattern, StridedSegment

from tests.helpers import assert_stats_equivalent, run_differential

KIB = 1024


@st.composite
def workloads(draw):
    """A small cluster shape plus per-rank file views."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    cores = draw(st.integers(min_value=1, max_value=4))
    n_ranks = draw(st.integers(min_value=1, max_value=n_nodes * cores))
    shape = draw(st.sampled_from(["serial", "interleaved", "sparse"]))
    block = draw(st.sampled_from([96, 256, 700, 2048]))
    if shape == "serial":
        gap = draw(st.integers(min_value=0, max_value=64))
        patterns, pos = [], 0
        for r in range(n_ranks):
            length = block + 17 * (r % 5)
            patterns.append(AccessPattern.contiguous(pos, length))
            pos += length + gap
    elif shape == "interleaved":
        count = draw(st.integers(min_value=2, max_value=6))
        stride = block * n_ranks
        patterns = [
            AccessPattern((StridedSegment(r * block, block, stride, count),))
            for r in range(n_ranks)
        ]
    else:
        # sparse: some ranks have no data at all
        keep_mod = draw(st.integers(min_value=2, max_value=3))
        patterns = [
            AccessPattern.contiguous(r * 2 * block, block)
            if r % keep_mod == 0
            else AccessPattern(())
            for r in range(n_ranks)
        ]
    return n_ranks, n_nodes, cores, patterns


@st.composite
def configs(draw):
    """An MCIOConfig spanning buffers and execution knobs."""
    msg_group = draw(st.sampled_from([2 * KIB, 16 * KIB, 1 << 30]))
    return dict(
        msg_group=msg_group,
        # the config forbids msg_ind > msg_group
        msg_ind=min(draw(st.sampled_from([512, 2 * KIB, 8 * KIB])), msg_group),
        cb_buffer_size=draw(st.sampled_from([256, 1024, 8 * KIB])),
        mem_min=0,
        nah=draw(st.integers(min_value=1, max_value=3)),
        min_buffer=1,
        adaptive_buffer=draw(st.booleans()),
        failover=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    workload=workloads(),
    config=configs(),
    memory_regime=st.sampled_from(["rich", "tight", "skewed"]),
    op=st.sampled_from(["write", "read"]),
)
def test_vectorized_matches_per_rank(workload, config, memory_regime, op):
    n_ranks, n_nodes, cores, patterns = workload
    memory = {
        "rich": None,
        "tight": tuple(3 * KIB for _ in range(n_nodes)),
        "skewed": tuple(
            10**9 if n % 2 == 0 else 2 * KIB for n in range(n_nodes)
        ),
    }[memory_regime]

    ref, vec, ref_aud, vec_aud = run_differential(
        patterns,
        MCIOConfig(**config),
        op=op,
        n_ranks=n_ranks,
        n_nodes=n_nodes,
        cores=cores,
        memory_availability=memory,
    )

    # stats contract: every deterministic accounting field agrees —
    # including offsets/extents (via total_bytes + the audit records),
    # and shuffle byte split
    assert_stats_equivalent(ref, vec)

    # a fault-free metadata-only run is never refused
    assert vec.path == PathDecision("vectorized")

    # byte-conservation audit (coverage, shuffle, freed memory) on both
    # paths, with identical records
    active = [p for p in patterns if not p.empty]
    if active:
        ref_rec = ref_aud.verify(patterns)
        vec_rec = vec_aud.verify(patterns)
        assert ref_rec.extents == vec_rec.extents
        assert ref_rec.final_attempt_shuffle == vec_rec.final_attempt_shuffle
        assert ref_rec.attempts == vec_rec.attempts
