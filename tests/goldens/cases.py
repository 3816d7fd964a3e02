"""The golden-trace workload matrix.

Each case is a fully deterministic simulated collective:
``{mcio, two-phase} x {read, write} x 3 cluster specs``.
The generator (:mod:`tests.goldens.generate`) records each case's
:class:`~repro.core.metrics.CollectiveStats` at **full float precision**
(``float.hex``), the final simulated clock, and a digest of the PFS
datastore bytes.  The replay test asserts the current engine reproduces
every recorded quantity bit-for-bit, which is what licenses kernel-level
optimisation of the simulator: any change to event ordering, cost
arithmetic, or planning output shows up as a golden mismatch.

Only *fault-free* runs are pinned (no fault schedules, no failovers);
degraded-mode behaviour is covered by the dedicated fault tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.metrics import CollectiveStats
from repro.core.request import AccessPattern, StridedSegment

from tests.helpers import make_stack, rank_payload

MIB = 1024 * 1024

STRATEGIES = ("two-phase", "mcio")
OPS = ("write", "read")


@dataclass(frozen=True)
class ClusterCase:
    """One deterministic cluster + workload configuration."""

    name: str
    n_ranks: int
    n_nodes: int
    cores: int
    #: per-node available memory pinned before planning (None = default)
    memory_availability: Optional[tuple[int, ...]]
    workload: str  # "serial" | "interleaved" | "mixed"
    cb_buffer_size: int
    stripe_size: int = 256


CLUSTER_CASES = (
    # uniform memory, serial per-rank chunks: the common happy path
    ClusterCase(
        name="uniform",
        n_ranks=12,
        n_nodes=3,
        cores=4,
        memory_availability=None,
        workload="serial",
        cb_buffer_size=1024,
    ),
    # skewed memory, interleaved IOR-style stride: exercises group
    # division's interleaved path, remerging, and adaptive buffers
    ClusterCase(
        name="pressure",
        n_ranks=16,
        n_nodes=4,
        cores=4,
        memory_availability=(64 * 1024, 2048, 64 * 1024, 1024),
        workload="interleaved",
        cb_buffer_size=2048,
    ),
    # no memory available anywhere: paged placements.  No host can
    # take any MCIO leaf, so the leaves remerge down to one, placed by
    # the paged fallback; two-phase pages both per-node aggregators
    ClusterCase(
        name="tiny-mem",
        n_ranks=8,
        n_nodes=2,
        cores=4,
        memory_availability=(0, 0),
        workload="mixed",
        cb_buffer_size=512,
    ),
)


def build_patterns(case: ClusterCase) -> list[AccessPattern]:
    """Deterministic per-rank file views for `case` (disjoint bytes)."""
    n = case.n_ranks
    if case.workload == "serial":
        # contiguous per-rank chunks with small gaps
        out = []
        pos = 0
        for r in range(n):
            length = 700 + 37 * r
            out.append(AccessPattern.contiguous(pos, length))
            pos += length + (r % 3) * 16
        return out
    if case.workload == "interleaved":
        # IOR-style interleave: rank r owns block r of every stride
        block = 192
        stride = block * n
        count = 6
        return [
            AccessPattern((StridedSegment(r * block, block, stride, count),))
            for r in range(n)
        ]
    if case.workload == "mixed":
        # half the ranks strided, half contiguous after the strided region
        block, count = 128, 5
        half = n // 2
        stride = block * half
        out = [
            AccessPattern((StridedSegment(r * block, block, stride, count),))
            for r in range(half)
        ]
        base = stride * count
        for i in range(n - half):
            length = 600 + 41 * i
            out.append(AccessPattern.contiguous(base, length))
            base += length + 24
        return out
    raise ValueError(f"unknown workload {case.workload!r}")


def make_engine(
    strategy: str, stack, case: ClusterCase, mcio_overrides: Optional[dict] = None
):
    """The strategy under test, configured for `case`.

    `mcio_overrides` patches extra :class:`MCIOConfig` knobs on top of
    the case's pinned configuration (e.g. ``{"placement_policy": "hybrid"}``) so
    opt-in features can be replayed against the recorded goldens.
    """
    if strategy == "two-phase":
        return TwoPhaseCollectiveIO(
            stack.comm,
            stack.pfs,
            TwoPhaseConfig(cb_buffer_size=case.cb_buffer_size),
        )
    if strategy == "mcio":
        kwargs = dict(
            msg_group=16 * 1024,
            msg_ind=2 * 1024,
            mem_min=0,
            nah=2,
            cb_buffer_size=case.cb_buffer_size,
            min_buffer=1,
        )
        if mcio_overrides:
            kwargs.update(mcio_overrides)
        return MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, MCIOConfig(**kwargs)
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def _prefill(datastore, end: int) -> None:
    """Deterministic initial file image for read cases."""
    idx = np.arange(end, dtype=np.int64)
    datastore.write(0, ((idx * 31 + 7) % 251).astype(np.uint8))


def stats_to_jsonable(stats: CollectiveStats) -> dict:
    """Lossless, order-stable JSON form of a stats record.

    Floats are serialized with ``float.hex`` so the comparison is exact
    at full precision, never within a tolerance.
    """
    return {
        "strategy": stats.strategy,
        "op": stats.op,
        "total_bytes": stats.total_bytes,
        "elapsed_hex": float(stats.elapsed).hex(),
        "n_ranks": stats.n_ranks,
        "n_aggregators": stats.n_aggregators,
        "aggregator_ranks": list(stats.aggregator_ranks),
        "agg_buffer_bytes": {
            str(k): stats.agg_buffer_bytes[k] for k in sorted(stats.agg_buffer_bytes)
        },
        "agg_overcommit_bytes": {
            str(k): stats.agg_overcommit_bytes[k]
            for k in sorted(stats.agg_overcommit_bytes)
        },
        "paged_aggregators": stats.paged_aggregators,
        "rounds_total": stats.rounds_total,
        "shuffle_intra_node_bytes": stats.shuffle_intra_node_bytes,
        "shuffle_inter_node_bytes": stats.shuffle_inter_node_bytes,
        "n_groups": stats.n_groups,
        "degraded_tier": stats.degraded_tier,
        "io_retries": stats.io_retries,
        "io_abandons": stats.io_abandons,
        "failovers": stats.failovers,
        "extra": {k: stats.extra[k] for k in sorted(map(str, stats.extra))},
    }


def run_case(
    strategy: str,
    op: str,
    case: ClusterCase,
    mcio_overrides: Optional[dict] = None,
    tracer=None,
) -> dict:
    """Execute one matrix cell and return its full golden record.

    Passing a :class:`repro.obs.Tracer` installs it on the case's
    environment before the run — the no-perturbation suite uses this to
    show traced runs reproduce the recorded goldens bit-for-bit.
    """
    patterns = build_patterns(case)
    stack = make_stack(
        n_ranks=case.n_ranks,
        n_nodes=case.n_nodes,
        cores=case.cores,
        stripe_size=case.stripe_size,
    )
    if tracer is not None:
        tracer.install(stack.env)
    if case.memory_availability is not None:
        stack.cluster.set_memory_availability(case.memory_availability)
    engine = make_engine(strategy, stack, case, mcio_overrides=mcio_overrides)
    end = max(p.end for p in patterns if not p.empty)

    if op == "write":
        payloads = {
            r: rank_payload(r, patterns[r].nbytes) for r in range(case.n_ranks)
        }

        def main(ctx):
            yield from engine.write(
                ctx, patterns[ctx.rank], payloads[ctx.rank].copy()
            )

        stack.run_spmd(main)
        rank_digests = None
    else:
        _prefill(stack.pfs.datastore, end)

        def main(ctx):
            data = yield from engine.read(ctx, patterns[ctx.rank])
            return data

        results = stack.run_spmd(main)
        rank_digests = [
            hashlib.sha256(np.asarray(results[r], dtype=np.uint8).tobytes())
            .hexdigest()
            for r in range(case.n_ranks)
        ]

    image = np.asarray(stack.pfs.datastore.read(0, end), dtype=np.uint8)
    record = {
        "case": case.name,
        "strategy": strategy,
        "op": op,
        "final_now_hex": float(stack.env.now).hex(),
        "datastore_sha256": hashlib.sha256(image.tobytes()).hexdigest(),
        "stats": stats_to_jsonable(engine.history[0]),
    }
    if rank_digests is not None:
        record["rank_payload_sha256"] = rank_digests
    return record


def case_id(strategy: str, op: str, case: ClusterCase) -> str:
    """Stable key for one matrix cell."""
    return f"{case.name}/{strategy}/{op}"


def all_cells():
    """Iterate every (strategy, op, case) cell of the golden matrix."""
    for case in CLUSTER_CASES:
        for strategy in STRATEGIES:
            for op in OPS:
                yield strategy, op, case
