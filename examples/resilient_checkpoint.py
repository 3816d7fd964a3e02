#!/usr/bin/env python
"""A checkpoint that survives faults injected mid-write.

A 12-rank application dumps an interleaved checkpoint while the platform
misbehaves underneath it:

* one I/O server goes dark for a window (``server_outage``) — the PFS
  client's :class:`~repro.pfs.RetryPolicy` absorbs the rejections with
  capped exponential backoff;
* the host of a live aggregator fails (``node_failure``) — between
  collective-buffer rounds the engine re-places the orphaned file domain
  on a healthy node and carries on.

The checkpoint is then read back and verified byte-for-byte, and the
operation's degraded-mode counters (retries, failovers, tier) are
printed.  The same seed always replays the same storm.

Run:  python examples/resilient_checkpoint.py   (a few seconds)
"""

import numpy as np

from repro import (
    Cluster,
    ClusterSpec,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    NodeSpec,
    ParallelFileSystem,
    RetryPolicy,
    SimComm,
    SparseFile,
    StorageSpec,
    StridedSegment,
    block_placement,
)
from repro.core.request import AccessPattern
from repro.sim import Environment, RngFactory

KIB = 1024
MIB = 1024 * 1024

N_RANKS = 12
N_NODES = 3
CHUNK = 64 * KIB
PER_RANK = 1 * MIB  # checkpoint bytes per rank


def build(seed=0):
    """A deliberately memory-tight platform: multi-round collectives."""
    spec = ClusterSpec(
        nodes=N_NODES,
        node=NodeSpec(
            cores=4,
            memory_bytes=4 * MIB,
            memory_bandwidth=10**8,
            memory_channels=2,
            nic_bandwidth=10**7,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=4,
            server_bandwidth=10**6,
            request_overhead=1e-3,
            stripe_size=256,
        ),
        paging_penalty=4.0,
    )
    env = Environment()
    cluster = Cluster(env, spec, RngFactory(seed))
    comm = SimComm(env, cluster, block_placement(N_RANKS, N_NODES, 4))
    pfs = ParallelFileSystem(env, spec.storage, datastore=SparseFile())
    # degraded-mode client policy: absorb outage windows instead of
    # crashing the collective
    pfs.retry = RetryPolicy(
        request_timeout=30.0, backoff_base=0.01, backoff_cap=0.2,
        max_retries=25,
    )
    return env, cluster, comm, pfs


def storm():
    """The injected faults: a server outage, then an aggregator host dies."""
    return FaultSchedule(
        [
            FaultEvent(time=0.4, kind="server_outage", target=0, duration=0.3),
            FaultEvent(time=0.8, kind="node_failure", target=0, magnitude=16.0),
        ]
    )


def checkpoint_pattern(rank):
    """Interleaved (coll_perf-style) checkpoint layout."""
    return AccessPattern(
        (StridedSegment(rank * CHUNK, CHUNK, N_RANKS * CHUNK,
                        PER_RANK // CHUNK),)
    )


def payload_for(rank):
    idx = np.arange(PER_RANK, dtype=np.int64)
    return ((idx * 31 + rank * 97 + 13) % 251).astype(np.uint8)


def main():
    env, cluster, comm, pfs = build(seed=0)
    engine = MemoryConsciousCollectiveIO(
        comm, pfs,
        MCIOConfig(
            cb_buffer_size=64 * KIB, msg_ind=4 * MIB, mem_min=0, nah=4,
            failover=True,
        ),
    )
    injector = FaultInjector(env, cluster, pfs, storm())
    injector.start()
    payloads = {r: payload_for(r) for r in range(N_RANKS)}

    def writer(ctx):
        yield from engine.write(
            ctx, checkpoint_pattern(ctx.rank), payloads[ctx.rank].copy()
        )

    comm.run_spmd(writer)
    injector.stop()
    write_stats = engine.history[-1]

    print("checkpoint written under:")
    for ev in storm():
        window = "permanent" if ev.duration is None else f"{ev.duration}s"
        print(f"  t={ev.time}s  {ev.kind} on #{ev.target} ({window})")
    print(f"\n  {write_stats.summary()}")
    targets = write_stats.extra.get("failover_targets", [])
    if targets:
        hosts = sorted({comm.placement[r] for r in targets})
        print(f"  orphaned domains re-placed onto node(s) {hosts}")

    # restart: read the checkpoint back — node 0 is still limping, so the
    # planner soft-excludes it — and verify every byte
    def reader(ctx):
        data = yield from engine.read(ctx, checkpoint_pattern(ctx.rank))
        return data

    results = comm.run_spmd(reader)
    for rank in range(N_RANKS):
        np.testing.assert_array_equal(
            results[rank], payloads[rank],
            err_msg=f"rank {rank} restart data corrupt",
        )
    print(f"\n  restart verified: {N_RANKS} ranks x {PER_RANK // MIB} MiB, "
          "every byte intact")
    assert write_stats.io_retries > 0, "expected outage-window retries"
    assert write_stats.failovers > 0, "expected an aggregator failover"


if __name__ == "__main__":
    main()
