"""Cross-engine equivalence: every strategy moves the same bytes.

Property-based: for arbitrary non-overlapping rank workloads, a
collective write followed by a collective read must be byte-exact under
*either* strategy (two-phase, MCIO), at any buffer size — and both
strategies must leave the file in the identical state.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.engine import execute_collective
from repro.core.request import AccessPattern, Extent
from repro.experiments.figures import FigureConfig
from repro.experiments.harness import run_memory_sweep

from tests.helpers import make_stack, rank_payload


@st.composite
def rank_workloads(draw):
    """Disjoint per-rank piece lists over a small shared file."""
    n_ranks = draw(st.integers(2, 6))
    n_pieces = draw(st.integers(1, 10))
    # carve the file into pieces and deal them to ranks round-robin-ish
    cursor = 0
    pieces = []
    for _ in range(n_pieces):
        cursor += draw(st.integers(0, 40))  # gap
        length = draw(st.integers(1, 120))
        pieces.append(Extent(cursor, length))
        cursor += length
    owners = [draw(st.integers(0, n_ranks - 1)) for _ in pieces]
    patterns = []
    for r in range(n_ranks):
        mine = [p for p, o in zip(pieces, owners) if o == r]
        patterns.append(AccessPattern.from_extents(mine))
    return patterns


def engines(stack, buffer_size):
    yield TwoPhaseCollectiveIO(
        stack.comm, stack.pfs, TwoPhaseConfig(cb_buffer_size=buffer_size)
    )
    yield MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(msg_group=512, msg_ind=128, mem_min=0, nah=2,
                   cb_buffer_size=buffer_size, min_buffer=1),
    )


@given(
    patterns=rank_workloads(),
    buffer_size=st.sampled_from([32, 128, 1024]),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_all_strategies_agree_byte_for_byte(patterns, buffer_size):
    n_ranks = len(patterns)
    payloads = {r: rank_payload(r, patterns[r].nbytes) for r in range(n_ranks)}
    file_images = {}
    readbacks = {}

    stack0 = make_stack(n_ranks=n_ranks, n_nodes=2, cores=4)
    for engine in engines(stack0, buffer_size):
        stack = make_stack(n_ranks=n_ranks, n_nodes=2, cores=4)
        engine.comm = stack.comm
        engine.pfs = stack.pfs

        def main(ctx):
            yield from engine.write(ctx, patterns[ctx.rank],
                                    payloads[ctx.rank].copy())
            data = yield from engine.read(ctx, patterns[ctx.rank])
            return data

        results = stack.run_spmd(main)
        for r in range(n_ranks):
            got = results[r]
            if patterns[r].empty:
                continue
            assert (got == payloads[r]).all(), (
                f"{engine.name}: rank {r} read back wrong bytes"
            )
        end = max((p.end for p in patterns if not p.empty), default=0)
        file_images[engine.name] = bytes(stack.pfs.datastore.read(0, end))
        readbacks[engine.name] = results

    images = set(file_images.values())
    assert len(images) <= 1, (
        f"strategies disagree on file contents: {list(file_images)}"
    )


def test_strategies_same_bytes_written_metric():
    """total_bytes accounting matches the workload for every strategy."""
    patterns = [AccessPattern.contiguous(r * 300, 300) for r in range(4)]
    for factory in (
        lambda s: TwoPhaseCollectiveIO(s.comm, s.pfs),
        lambda s: MemoryConsciousCollectiveIO(
            s.comm, s.pfs,
            MCIOConfig(msg_group=600, msg_ind=300, mem_min=0, nah=2,
                       min_buffer=1, cb_buffer_size=512),
        ),
    ):
        stack = make_stack(n_ranks=4, n_nodes=2)
        engine = factory(stack)

        def main(ctx):
            yield from engine.write(ctx, patterns[ctx.rank],
                                    rank_payload(ctx.rank, 300))

        stack.run_spmd(main)
        assert engine.history[0].total_bytes == 4 * 300, engine.name


def test_retired_config_fields_rejected():
    """Knobs no caller ever moved off their defaults are fixed now (stripe
    alignment always on; ``borrow.LEASE_*``/``LEND_HEADROOM`` constants;
    the paged placement is the one last resort of planning); passing one
    is an error, not a silent no-op."""
    with pytest.raises(TypeError):
        TwoPhaseConfig(stripe_align=False)
    for field in (
        "stripe_align", "lease_retry_limit", "lease_backoff_base",
        "lease_backoff_cap", "lend_headroom", "lease_term",
        "allow_paged_fallback", "fallback_chain",
    ):
        with pytest.raises(TypeError):
            MCIOConfig(**{field: 1})


def test_bad_granularity_rejected():
    """Per-rank collectives have one shuffle timing model (lockstep
    rounds), so no layer takes a granularity knob any more."""
    for granularity in ("round", "domain"):
        with pytest.raises(TypeError):
            TwoPhaseConfig(shuffle_granularity=granularity)
        with pytest.raises(TypeError):
            MCIOConfig(shuffle_granularity=granularity)
        with pytest.raises(TypeError):
            execute_collective(
                None, None, None, None, (), None, "write", 0,
                granularity=granularity,
            )
        with pytest.raises(TypeError):
            FigureConfig(
                figure_id="f", description="d", spec=None, workload=None,
                buffer_sizes=(), sigma_bytes=0.0, mcio=MCIOConfig(),
                granularity=granularity,
            )
    # the sweep keeps the keyword for existing callers, single-valued
    with pytest.raises(ValueError, match="granularity"):
        run_memory_sweep(
            spec=None, patterns=(), buffer_sizes=(), sigma_bytes=0.0,
            granularity="domain",
        )
    # node-level shuffle aggregation is not a per-rank engine option
    with pytest.raises(TypeError):
        TwoPhaseConfig(intra_node_aggregation=True)
    with pytest.raises(TypeError):
        MCIOConfig(intra_node_aggregation=True)
