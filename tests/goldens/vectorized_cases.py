"""The vectorized-mode golden matrix (DESIGN.md §11).

Four cells — ``{write, read} x {remerge, borrow}`` — pin the node-level
vectorized driver the same way :mod:`tests.goldens.cases` pins the
per-rank kernel:

* ``remerge``: a uniform, memory-rich cluster where vectorization is
  accepted.  The golden records the *vectorized* driver's own stats and
  final simulated clock, so any later change to the node-level cost
  arithmetic (batched transfers, window staging, barrier charges) is
  diff-detectable bit-for-bit.
* ``borrow``: a memory-skewed cluster under ``placement_policy="borrow"``
  whose plan needs lender-backed buffers.  The driver must refuse
  (``lender-domains``) and fall back to per-rank coroutines running the
  real borrow protocol; the golden pins the path decision and the
  fallback's timing, so the refusal/fallback seam cannot silently drift.

Runs are metadata-only (``with_data=False``) — the data plane itself is
a refusal condition, pinned by the ``data-plane`` fallback test in
``tests/sim/test_vectorized_equivalence.py`` against the kernel goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.metrics import CollectiveStats
from repro.core.path import PathDecision
from repro.core.request import AccessPattern
from repro.core.vectorized import run_vectorized_collective

from tests.goldens.cases import CLUSTER_CASES, build_patterns, stats_to_jsonable
from tests.helpers import make_stack

OPS = ("write", "read")


@dataclass(frozen=True)
class VectorizedCase:
    """One deterministic vectorized-driver scenario."""

    name: str  # "remerge" | "borrow"
    #: per-node available memory pinned before planning (None = default)
    memory_availability: tuple[int, ...] | None
    placement_policy: str
    #: the path the recorded run must have taken — checked at generation
    #: time
    expect_path: PathDecision


VEC_CASES = (
    VectorizedCase(
        name="remerge",
        memory_availability=None,
        placement_policy="remerge",
        expect_path=PathDecision("vectorized"),
    ),
    VectorizedCase(
        name="borrow",
        memory_availability=(6000, 6000, 10**9),
        placement_policy="borrow",
        expect_path=PathDecision("lockstep", ("vectorized:lender-domains",)),
    ),
)

#: the workload is the kernel goldens' "uniform" cluster: 12 ranks on
#: 3 nodes, serial per-rank chunks — shared so the two golden sets stay
#: comparable cell-for-cell
_UNIFORM = CLUSTER_CASES[0]


def make_vectorized_engine(stack, case: VectorizedCase):
    return MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(
            msg_group=1 << 30 if case.name == "borrow" else 16 * 1024,
            msg_ind=4 * 1024 if case.name == "borrow" else 2 * 1024,
            mem_min=0,
            nah=2,
            cb_buffer_size=8 * 1024 if case.name == "borrow" else 1024,
            min_buffer=1,
            adaptive_buffer=case.name != "borrow",
            placement_policy=case.placement_policy,
            execution_mode="vectorized",
        ),
    )


def vec_stats_to_jsonable(stats: CollectiveStats) -> dict:
    """The kernel-golden stats form plus the path decision."""
    out = stats_to_jsonable(stats)
    out["path"] = {
        "driver": stats.path.driver,
        "refusals": list(stats.path.refusals),
    }
    # the borrow cell's fallback runs the real lease protocol — pin it
    out["leases_granted"] = stats.leases_granted
    out["leases_renewed"] = stats.leases_renewed
    out["borrow_bytes"] = stats.borrow_bytes
    out["borrow_fallbacks"] = stats.borrow_fallbacks
    return out


def case_patterns(case: VectorizedCase) -> list[AccessPattern]:
    """Deterministic per-rank file views for `case`.

    The remerge cell reuses the kernel goldens' uniform serial workload;
    the borrow cell needs per-rank extents large enough that an
    unshrinkable 8 KiB buffer cannot fit on the poor hosts, forcing the
    placer to a lender-backed domain.
    """
    if case.name == "borrow":
        return [
            AccessPattern.contiguous(r * 4096, 4096)
            for r in range(_UNIFORM.n_ranks)
        ]
    return build_patterns(_UNIFORM)


def run_vectorized_case(case: VectorizedCase, op: str) -> dict:
    """Execute one vectorized golden cell and return its record."""
    patterns = case_patterns(case)
    stack = make_stack(
        n_ranks=_UNIFORM.n_ranks,
        n_nodes=_UNIFORM.n_nodes,
        cores=_UNIFORM.cores,
        stripe_size=_UNIFORM.stripe_size,
        with_data=False,
    )
    if case.memory_availability is not None:
        stack.cluster.set_memory_availability(case.memory_availability)
    engine = make_vectorized_engine(stack, case)
    stats = run_vectorized_collective(engine, patterns, op)
    assert stats.path == case.expect_path, (
        f"{case.name}/{op}: recorded run took {stats.path}, "
        f"scenario expects {case.expect_path}"
    )
    if case.name == "borrow":
        assert stats.leases_granted > 0, "borrow fallback never borrowed"
    return {
        "case": case.name,
        "op": op,
        "final_now_hex": float(stack.env.now).hex(),
        "stats": vec_stats_to_jsonable(stats),
    }


def vectorized_case_id(case: VectorizedCase, op: str) -> str:
    """Stable key for one vectorized golden cell."""
    return f"vectorized/{case.name}/{op}"


def all_vectorized_cells():
    """Iterate every (case, op) cell of the vectorized golden matrix."""
    for case in VEC_CASES:
        for op in OPS:
            yield case, op
