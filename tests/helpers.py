"""Shared builders for integration tests: full simulated stacks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    StorageSpec,
    block_placement,
)
from repro.mpi import SimComm
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, RngFactory
from repro.workloads import pattern_bytes


@dataclass
class Stack:
    """A complete simulated platform for one test."""

    env: Environment
    cluster: Cluster
    comm: SimComm
    pfs: ParallelFileSystem

    def run_spmd(self, main):
        return self.comm.run_spmd(main)


def make_stack(
    n_ranks: int = 12,
    n_nodes: int = 3,
    cores: int = 4,
    memory_bytes: int = 10**9,
    servers: int = 4,
    server_bandwidth: float = 1e6,
    request_overhead: float = 1e-3,
    stripe_size: int = 256,
    nic_bandwidth: float = 1e7,
    memory_bandwidth: float = 1e8,
    with_data: bool = True,
    seed: int = 42,
    paging_penalty: float = 4.0,
) -> Stack:
    """Build a small, fast cluster + comm + PFS stack."""
    env = Environment()
    spec = ClusterSpec(
        nodes=n_nodes,
        node=NodeSpec(
            cores=cores,
            memory_bytes=memory_bytes,
            memory_bandwidth=memory_bandwidth,
            memory_channels=2,
            nic_bandwidth=nic_bandwidth,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=servers,
            server_bandwidth=server_bandwidth,
            request_overhead=request_overhead,
            stripe_size=stripe_size,
        ),
        paging_penalty=paging_penalty,
    )
    cluster = Cluster(env, spec, RngFactory(seed))
    placement = block_placement(n_ranks, n_nodes, cores)
    comm = SimComm(env, cluster, placement)
    store = SparseFile() if with_data else None
    pfs = ParallelFileSystem(env, spec.storage, datastore=store)
    return Stack(env=env, cluster=cluster, comm=comm, pfs=pfs)


def rank_payload(rank: int, nbytes: int) -> np.ndarray:
    """Deterministic per-rank byte pattern (verifiable after a roundtrip)."""
    return pattern_bytes(nbytes, rank * 97 + 13)


# ---------------------------------------------------------------------------
# differential harness: per-rank reference vs vectorized driver
# ---------------------------------------------------------------------------

#: CollectiveStats fields the vectorized driver must reproduce exactly.
#: Excluded by design: ``elapsed`` (node-level timing is pinned by its
#: own goldens, not by per-rank equality) and the execution-mode fields
#: themselves.
EQUIVALENT_FIELDS = (
    "strategy",
    "op",
    "total_bytes",
    "n_ranks",
    "n_aggregators",
    "aggregator_ranks",
    "agg_buffer_bytes",
    "agg_overcommit_bytes",
    "paged_aggregators",
    "rounds_total",
    "shuffle_intra_node_bytes",
    "shuffle_inter_node_bytes",
    "n_groups",
    "degraded_tier",
    "io_retries",
    "io_abandons",
    "failovers",
)


def assert_stats_equivalent(reference, candidate, fields=EQUIVALENT_FIELDS):
    """Field-by-field equality of two CollectiveStats (see EQUIVALENT_FIELDS)."""
    diffs = []
    for name in fields:
        a, b = getattr(reference, name), getattr(candidate, name)
        if a != b:
            diffs.append(f"{name}: reference={a!r} candidate={b!r}")
    assert not diffs, "stats diverge:\n  " + "\n  ".join(diffs)


def run_differential(
    patterns,
    mcio_config,
    op: str = "write",
    n_ranks: int = 12,
    n_nodes: int = 3,
    cores: int = 4,
    memory_bytes: int = 10**9,
    audit: bool = True,
    memory_availability=None,
    repeats: int = 1,
    **stack_kwargs,
):
    """Run one workload per-rank and vectorized on twin stacks.

    Returns ``(reference_stats, candidate_stats, ref_auditor, cand_auditor)``.
    Both stacks are built identically (metadata-only: the vectorized
    driver refuses a data plane); the reference runs the classic SPMD
    path, the candidate the node-level vectorized driver.
    `memory_availability` (a per-node byte tuple) pins each node's
    available memory before planning, like the golden cases do.
    `repeats` runs the operation back to back on each engine; the
    returned stats are the last operation's.
    """
    from dataclasses import replace

    from repro.core import MemoryConsciousCollectiveIO
    from repro.core.audit import ConservationAuditor
    from repro.core.vectorized import run_vectorized_collective

    results = []
    for mode in ("per-rank", "vectorized"):
        stack = make_stack(
            n_ranks=n_ranks,
            n_nodes=n_nodes,
            cores=cores,
            memory_bytes=memory_bytes,
            with_data=False,
            **stack_kwargs,
        )
        if memory_availability is not None:
            stack.cluster.set_memory_availability(memory_availability)
        engine = MemoryConsciousCollectiveIO(
            stack.comm,
            stack.pfs,
            replace(mcio_config, execution_mode=mode),
        )
        auditor = ConservationAuditor() if audit else None
        if auditor is not None:
            auditor.attach(engine)
        if mode == "vectorized":
            for _ in range(repeats):
                run_vectorized_collective(engine, patterns, op)
        else:
            def main(ctx):
                fn = engine.write if op == "write" else engine.read
                for _ in range(repeats):
                    yield from fn(ctx, patterns[ctx.rank])

            stack.run_spmd(main)
        assert len(engine.history) == repeats
        results.append((engine.history[-1], auditor))
    (ref, ref_aud), (cand, cand_aud) = results
    return ref, cand, ref_aud, cand_aud
