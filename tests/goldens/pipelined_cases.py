"""The pipelined-driver golden matrix (persistent replays, ``overlap=True``).

The kernel goldens (:mod:`tests.goldens.cases`) pin one blocking
collective per cell, so they never run the pipelined driver: half-sized
windows, write drains and read prefetches behind the round barrier, the
tail wait, and the drain-then-failover degradation when a host dies
mid-epoch.  These cells pin exactly that, bit for bit:

* ``{write, read} x {uniform, variance}`` fault-free: two persistent
  epochs each (epoch 0 plans, epoch 1 replays the frozen plan), in the
  two memory regimes of :mod:`repro.experiments.pipeline` — aggregators
  spread over every node, or concentrated on the two rich ones;
* ``{write, read} x failure``: the variance regime with node 0 (an
  aggregator host) failing in the middle of epoch 0, so the write drains
  its in-flight windows and the read consumes windows it already
  prefetched before both finish behind failover; epoch 1 re-plans
  around the dead host and runs lockstep.

Each record holds every epoch's stats (``float.hex`` for floats), the
final simulated clock, the datastore digest and, for reads, the digest
of every rank's returned bytes.  Regenerate only by deliberate decision
via ``python -m tests.goldens.generate_pipelined``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.metrics import CollectiveStats
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mpi import SimFile, contiguous_view

from tests.goldens.cases import stats_to_jsonable
from tests.helpers import make_stack, rank_payload

KIB = 1024

OPS = ("write", "read")
N_RANKS = 16
BLOCK = 200_000
STEPS = 2
RICH = 3_000_000
POOR = 100_000


@dataclass(frozen=True)
class PipelinedCase:
    """One deterministic pipelined-replay scenario."""

    name: str
    memory_availability: tuple[int, ...]
    #: simulated time at which node 0 fails for good, or None
    fail_at: Optional[float] = None


PIPELINED_CASES = (
    PipelinedCase("uniform", (RICH,) * N_RANKS),
    PipelinedCase("variance", (RICH, RICH) + (POOR,) * (N_RANKS - 2)),
    PipelinedCase(
        "failure", (RICH, RICH) + (POOR,) * (N_RANKS - 2), fail_at=1.0
    ),
)


def _stats_record(stats: CollectiveStats) -> dict:
    """``stats_to_jsonable`` minus the process-global handle id, which
    depends on how many handles the process built before this one."""
    record = stats_to_jsonable(stats)
    record["extra"].pop("persistent")
    record["path"] = {
        "driver": stats.path.driver, "refusals": list(stats.path.refusals),
    }
    return record


def run_pipelined_case(case: PipelinedCase, op: str) -> dict:
    """Run `case`'s persistent ``overlap=True`` loop; return its record."""
    stack = make_stack(
        n_ranks=N_RANKS, n_nodes=N_RANKS, cores=1,
        nic_bandwidth=1e6, server_bandwidth=1e6, servers=4,
    )
    stack.cluster.set_memory_availability(case.memory_availability)
    engine = MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(
            msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
            min_buffer=1, cb_buffer_size=64 * KIB, failover=True,
        ),
    )
    injector = None
    if case.fail_at is not None:
        schedule = FaultSchedule(
            [FaultEvent(time=case.fail_at, kind="node_failure", target=0,
                        duration=None, magnitude=4.0)]
        )
        injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
        engine.watch_faults(injector)
        injector.start()
    end = N_RANKS * BLOCK
    if op == "read":
        idx = np.arange(end, dtype=np.int64)
        stack.pfs.datastore.write(0, ((idx * 31 + 7) % 251).astype(np.uint8))
    fh = SimFile.open(stack.comm, engine)

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        init = fh.write_all_init if op == "write" else fh.read_all_init
        pc = init(ctx, overlap=True)
        out = []
        for step in range(STEPS):
            payload = None
            if op == "write":
                payload = rank_payload(ctx.rank * STEPS + step, BLOCK)
            pc.start(ctx, payload)
            out.append((yield from pc.wait(ctx)))
        return out

    results = stack.run_spmd(main)
    if injector is not None:
        injector.stop()
    image = np.asarray(stack.pfs.datastore.read(0, end), dtype=np.uint8)
    record = {
        "case": case.name,
        "op": op,
        "final_now_hex": float(stack.env.now).hex(),
        "datastore_sha256": hashlib.sha256(image.tobytes()).hexdigest(),
        "epochs": [_stats_record(s) for s in engine.history],
    }
    if op == "read":
        record["rank_payload_sha256"] = [
            hashlib.sha256(
                b"".join(np.asarray(d, dtype=np.uint8).tobytes() for d in results[r])
            ).hexdigest()
            for r in range(N_RANKS)
        ]
    return record


def pipelined_case_id(case: PipelinedCase, op: str) -> str:
    """Stable key for one matrix cell."""
    return f"{case.name}/{op}"


def all_pipelined_cells():
    """Iterate every (case, op) cell of the pipelined matrix."""
    for case in PIPELINED_CASES:
        for op in OPS:
            yield case, op
