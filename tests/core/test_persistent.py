"""Persistent collectives: replay equivalence, invalidation, refusal seams.

``write_all_init``/``read_all_init`` freeze the MCIO plan after the first
``start()`` and replay it each timestep.  The contract under test:

* overlap-off replay matches a fresh blocking collective per timestep on
  every planned quantity (EQUIVALENT_FIELDS) and lands identical bytes;
* overlap-on replay keeps the same planned quantities and bytes while
  never being slower than blocking in the concentrated-aggregator regime;
* the plan really is frozen — exactly one planning pass across N epochs;
* seams that cannot compose record their reason: the vectorized
  driver refuses ("persistent-collective"), and hook-less engines
  delegate whole epochs to the blocking path.
"""

import math

import numpy as np
import pytest

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
)
from repro.core.path import PathDecision
from repro.core.persistent import PersistentCollective
from repro.mpi import SimFile, contiguous_view

from tests.helpers import (
    EQUIVALENT_FIELDS,
    assert_stats_equivalent,
    make_stack,
    rank_payload,
)

KIB = 1024
N_RANKS = 8
BLOCK = 1200
STEPS = 3


def small_config(**overrides):
    base = dict(
        msg_group=16 * KIB,
        msg_ind=2 * KIB,
        mem_min=0,
        nah=2,
        cb_buffer_size=1024,
        min_buffer=1,
    )
    base.update(overrides)
    return MCIOConfig(**base)


def make_file(config=None, n_ranks=N_RANKS, n_nodes=2):
    stack = make_stack(n_ranks=n_ranks, n_nodes=n_nodes, cores=4)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs, config or small_config()
    )
    return stack, engine, SimFile.open(stack.comm, engine)


def step_bytes(rank, step, nbytes=BLOCK):
    idx = np.arange(nbytes, dtype=np.int64)
    return ((idx * 31 + rank * 97 + step * 7) % 251).astype(np.uint8)


def run_write_loop(stack, fh, mode, steps=STEPS, block=BLOCK):
    """`mode`: "blocking" | "persistent" | "persistent+overlap"."""

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * block, block))
        pc = None
        if mode != "blocking":
            pc = fh.write_all_init(ctx, overlap=(mode == "persistent+overlap"))
        for step in range(steps):
            payload = step_bytes(ctx.rank, step, block)
            if pc is None:
                yield from fh.write_all(ctx, payload)
            else:
                pc.start(ctx, payload)
                yield from pc.wait(ctx)
        return pc

    results = stack.run_spmd(main)
    return results[0]


# ---------------------------------------------------------------------------
# per-timestep equivalence with fresh blocking collectives
# ---------------------------------------------------------------------------
def test_overlap_off_matches_blocking_per_timestep():
    s_blk, e_blk, f_blk = make_file()
    run_write_loop(s_blk, f_blk, "blocking")
    s_per, e_per, f_per = make_file()
    pc = run_write_loop(s_per, f_per, "persistent")

    assert len(e_blk.history) == len(e_per.history) == STEPS
    for blk, per in zip(e_blk.history, e_per.history):
        assert_stats_equivalent(blk, per)
    # frozen epochs skip both allgathers: the loop cannot be slower
    assert s_per.env.now <= s_blk.env.now
    # first epoch pays the same preamble as a blocking call
    assert math.isclose(
        e_per.history[0].elapsed, e_blk.history[0].elapsed, rel_tol=1e-9
    )
    end = N_RANKS * BLOCK
    assert np.array_equal(
        s_per.pfs.datastore.read(0, end), s_blk.pfs.datastore.read(0, end)
    )
    assert pc.replans == 1
    assert pc.delegations == 0
    assert [s.extra["persistent_replanned"] for s in e_per.history] == [
        True, False, False,
    ]


def test_persistent_read_returns_fresh_bytes_each_epoch():
    stack, engine, fh = make_file()

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        pc = fh.read_all_init(ctx, overlap=False)
        seen = []
        for step in range(STEPS):
            if ctx.rank == 0:
                # mutate the file between epochs (out-of-band)
                for r in range(N_RANKS):
                    stack.pfs.datastore.write(r * BLOCK, step_bytes(r, step))
            yield from stack.comm.barrier(ctx)
            pc.start(ctx)
            data = yield from pc.wait(ctx)
            seen.append(bool((data == step_bytes(ctx.rank, step)).all()))
        return seen

    results = stack.run_spmd(main)
    for r in range(N_RANKS):
        assert results[r] == [True] * STEPS


# ---------------------------------------------------------------------------
# overlap on the concentrated-aggregator (memory-variance) platform
# ---------------------------------------------------------------------------
def variance_file():
    stack = make_stack(
        n_ranks=16, n_nodes=16, cores=1,
        nic_bandwidth=1e6, server_bandwidth=1e6, servers=4,
    )
    stack.cluster.set_memory_availability((3_000_000, 3_000_000) + (100_000,) * 14)
    engine = MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(
            msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
            min_buffer=1, cb_buffer_size=64 * KIB,
        ),
    )
    return stack, engine, SimFile.open(stack.comm, engine)


def test_overlap_on_same_plan_same_bytes_not_slower():
    block, steps = 500_000, 2
    s_blk, e_blk, f_blk = variance_file()
    run_write_loop(s_blk, f_blk, "blocking", steps=steps, block=block)
    s_ov, e_ov, f_ov = variance_file()
    pc = run_write_loop(s_ov, f_ov, "persistent+overlap", steps=steps, block=block)

    for blk, ov in zip(e_blk.history, e_ov.history):
        assert_stats_equivalent(blk, ov)
        assert ov.elapsed <= blk.elapsed
    end = 16 * block
    assert np.array_equal(
        s_ov.pfs.datastore.read(0, end), s_blk.pfs.datastore.read(0, end)
    )
    # shuffle really ran over the PFS drain on the frozen epochs
    assert sum(s.extra.get("pipeline_overlapped", 0) for s in e_ov.history) > 0
    assert pc.replans == 1
    assert s_ov.env.now < s_blk.env.now


# ---------------------------------------------------------------------------
# refusal and delegation seams
# ---------------------------------------------------------------------------
def test_execution_mode_refusal_recorded():
    stack, engine, fh = make_file(small_config(execution_mode="vectorized"))
    run_write_loop(stack, fh, "persistent")
    for stats in engine.history:
        assert stats.path == PathDecision(
            "lockstep", ("vectorized:persistent-collective",)
        )
    # the refusal must not leak into later blocking operations
    payloads = {r: rank_payload(r, 64) for r in range(N_RANKS)}

    def main(ctx):
        fh.set_view(ctx, contiguous_view(N_RANKS * BLOCK + ctx.rank * 64, 64))
        yield from fh.write_all(ctx, payloads[ctx.rank].copy())

    stack.run_spmd(main)
    assert engine.history[-1].path == PathDecision("lockstep")


def test_two_phase_engine_delegates_every_epoch():
    stack = make_stack(n_ranks=N_RANKS, n_nodes=2, cores=4)
    engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)
    fh = SimFile.open(stack.comm, engine)
    pc = run_write_loop(stack, fh, "persistent")
    assert not pc.managed
    assert pc.replans == 0
    assert pc.delegations == STEPS
    assert len(engine.history) == STEPS
    for stats in engine.history:
        assert stats.path == PathDecision(
            "lockstep", ("persistent:engine-unsupported",)
        )
    for r in range(N_RANKS):
        got = stack.pfs.datastore.read(r * BLOCK, BLOCK)
        assert np.array_equal(got, step_bytes(r, STEPS - 1))


# ---------------------------------------------------------------------------
# handle lifecycle errors
# ---------------------------------------------------------------------------
def test_init_op_mismatch_raises():
    stack, engine, fh = make_file()

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        if ctx.rank == 0:
            fh.write_all_init(ctx)
        yield from stack.comm.barrier(ctx)
        if ctx.rank != 0:
            with pytest.raises(ValueError, match="mismatches"):
                fh.read_all_init(ctx)

    stack.run_spmd(main)


def test_double_start_and_bare_wait_raise():
    stack, engine, fh = make_file()

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        pc = fh.write_all_init(ctx, overlap=False)
        with pytest.raises(RuntimeError, match="without start"):
            yield from pc.wait(ctx)
        pc.start(ctx, step_bytes(ctx.rank, 0))
        with pytest.raises(RuntimeError, match="still in flight"):
            pc.start(ctx, step_bytes(ctx.rank, 0))
        with pytest.raises(RuntimeError, match="in flight"):
            pc.free()
        yield from pc.wait(ctx)
        return pc

    results = stack.run_spmd(main)
    pc = results[0]
    assert pc._on_invalidate in engine._invalidation_listeners
    pc.free()  # idle handle frees cleanly and unsubscribes
    assert pc._on_invalidate not in engine._invalidation_listeners


def test_bad_op_rejected():
    stack, engine, fh = make_file()
    with pytest.raises(ValueError, match="bad op"):
        PersistentCollective(fh, "append")


def test_handle_id_does_not_depend_on_earlier_cells():
    """``stats.extra["persistent"]`` numbers handles per engine, so a
    pipeline cell records the same value however many handles the
    process built before it."""
    from repro.experiments import pipeline

    cell = ("variance", "persistent+overlap", "write", 2, 0)
    first = pipeline._pipeline_cell(cell).stats.extra["persistent"]
    pipeline._pipeline_cell(("uniform", "persistent", "read", 2, 0, 2))
    again = pipeline._pipeline_cell(cell).stats.extra["persistent"]
    assert first == again == 0
