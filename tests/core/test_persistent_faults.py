"""Persistent collectives under faults: invalidation and mid-pipeline drain.

A frozen plan names concrete hosts and buffer sizes, so memory and
host faults must (a) never perturb the epoch already in flight and
(b) force a re-plan at the *next* ``start()``.  A failure noticed in the
middle of a pipelined epoch drains the in-flight PFS windows, finishes
the epoch at blocking fidelity behind the failover machinery, and keeps
the byte-conservation ledger green throughout.
"""

import numpy as np

from repro.core import (
    ConservationAuditor,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
)
from repro.core.path import PathDecision
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mpi import SimFile, contiguous_view

from tests.helpers import make_stack

KIB = 1024


def step_bytes(rank, step, nbytes):
    idx = np.arange(nbytes, dtype=np.int64)
    return ((idx * 31 + rank * 97 + step * 7) % 251).astype(np.uint8)


# ---------------------------------------------------------------------------
# fault events between start() and wait()
# ---------------------------------------------------------------------------
def test_fault_event_in_flight_replans_next_epoch():
    stack = make_stack(n_ranks=8, n_nodes=2, cores=4)
    engine = MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(msg_group=16 * KIB, msg_ind=2 * KIB, mem_min=0, nah=2,
                   cb_buffer_size=1024, min_buffer=1),
    )
    fh = SimFile.open(stack.comm, engine)
    block, steps = 1200, 3
    # fires while epoch 0 is between start() and wait(): a memory shock
    # on node 0, applied and reverted before the epoch ends
    schedule = FaultSchedule(
        [FaultEvent(time=1e-6, kind="memory_shock", target=0,
                    duration=1e-6, magnitude=4 * KIB)]
    )
    injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
    engine.watch_faults(injector)
    fired = []
    injector.add_listener(lambda event, phase: fired.append(stack.env.now))
    injector.start()
    epoch0_done = []

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * block, block))
        pc = fh.write_all_init(ctx, overlap=False)
        for step in range(steps):
            pc.start(ctx, step_bytes(ctx.rank, step, block))
            yield from pc.wait(ctx)
            if step == 0:
                epoch0_done.append(ctx.env.now)
        return pc

    pc = stack.run_spmd(main)[0]
    injector.stop()
    assert injector.applied == {"memory_shock": 1}
    assert stack.cluster.nodes[0].memory.shock_bytes == 0
    # both events landed while every rank was still inside epoch 0
    assert len(fired) == 2 and max(fired) < min(epoch0_done)
    # epoch 0 planned; the in-flight fault events staled the handle, so
    # epoch 1 re-planned; epoch 2 replayed frozen
    assert pc.replans == 2
    assert pc.invalidations == ["fault-apply", "fault-revert"]
    assert [s.extra["persistent_replanned"] for s in engine.history] == [
        True, True, False,
    ]
    # the in-flight epoch itself was never perturbed
    assert engine.history[0].failovers == 0
    for r in range(8):
        got = stack.pfs.datastore.read(r * block, block)
        assert np.array_equal(got, step_bytes(r, steps - 1, block))


# ---------------------------------------------------------------------------
# host failure in the middle of a pipelined epoch
# ---------------------------------------------------------------------------
def test_node_failure_mid_pipeline_drains_then_fails_over():
    block, steps = 500_000, 2
    stack = make_stack(
        n_ranks=16, n_nodes=16, cores=1,
        nic_bandwidth=1e6, server_bandwidth=1e6, servers=4,
    )
    stack.cluster.set_memory_availability(
        (3_000_000, 3_000_000) + (100_000,) * 14
    )
    engine = MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(
            msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
            min_buffer=1, cb_buffer_size=64 * KIB, failover=True,
        ),
    )
    auditor = ConservationAuditor().attach(engine)
    fh = SimFile.open(stack.comm, engine)
    # node 0 hosts half the aggregation buffers; it dies mid-epoch-0
    schedule = FaultSchedule(
        [FaultEvent(time=5.0, kind="node_failure", target=0,
                    duration=None, magnitude=4.0)]
    )
    injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
    engine.watch_faults(injector)
    injector.start()

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * block, block))
        pc = fh.write_all_init(ctx, overlap=True)
        for step in range(steps):
            pc.start(ctx, step_bytes(ctx.rank, step, block))
            yield from pc.wait(ctx)
        return pc

    pc = stack.run_spmd(main)[0]
    injector.stop()
    e0, e1 = engine.history

    # epoch 0: in-flight windows drained, then failover carried it home
    assert "pipeline_drained_at" in e0.extra
    assert e0.failovers >= 1
    # the fault (and the failover itself) staled the handle: epoch 1
    # re-planned around the dead host and refused to pipeline over it
    assert pc.replans == 2
    assert any(r.startswith("fault-") for r in pc.invalidations)
    assert e1.extra["persistent_replanned"] is True
    assert e1.path == PathDecision("lockstep", ("pipelined:failed-nodes",))
    assert 0 not in {
        stack.comm.placement[a] for a in e1.aggregator_ranks
    }

    # no bytes lost in either epoch, memory clean
    patterns = [contiguous_view(r * block, block) for r in range(16)]
    assert len(auditor.records) == steps
    for rec in auditor.records:
        auditor.verify(patterns, record=rec)
    for r in range(16):
        got = stack.pfs.datastore.read(r * block, block)
        assert np.array_equal(got, step_bytes(r, steps - 1, block))
