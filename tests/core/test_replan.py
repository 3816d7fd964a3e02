"""Blocking collectives replan from the exact memory snapshot.

MCIO sizes each aggregation buffer from the memory available when the
collective runs (``available // nah``), so two identical blocking
collectives must produce different timelines when memory moved between
them — even by a few hundred bytes, well inside one ``Msg_ind`` step.
Only persistent handles (DESIGN.md §13) reuse a plan across calls.
"""

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.request import AccessPattern, StridedSegment

from tests.helpers import make_stack, rank_payload

KIB = 1024

#: Per-node available bytes before each of three identical writes, and
#: the rounds and full-precision elapsed each write must reproduce.
AVAILABLE = (3000, 2500, 2200)
EXPECTED = (
    (6, "0.009628240000000008"),
    (7, "0.010603240000000026"),
    (8, "0.01135424000000003"),
)


def test_blocking_writes_replan_from_exact_snapshot():
    stack = make_stack(n_ranks=16, n_nodes=4, cores=4)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(msg_group=16 * KIB, msg_ind=8 * KIB, mem_min=0, nah=2,
                   cb_buffer_size=1 * KIB, min_buffer=1, failover=False),
    )

    def main(ctx):
        pattern = AccessPattern((StridedSegment(ctx.rank * 64, 64, 1024, 8),))
        yield from engine.write(
            ctx, pattern, rank_payload(ctx.rank, pattern.nbytes)
        )

    for available in AVAILABLE:
        for node in stack.cluster.nodes:
            node.memory.set_available(available)
        stack.run_spmd(main)

    assert [
        (h.rounds_total, repr(h.elapsed)) for h in engine.history
    ] == list(EXPECTED)
