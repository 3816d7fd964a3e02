"""The vectorized-mode golden matrix (DESIGN.md §11).

Two cells — ``{write, read}`` on the ``remerge`` case — pin the
node-level vectorized driver the same way :mod:`tests.goldens.cases`
pins the per-rank kernel: a uniform, memory-rich cluster where
vectorization is accepted.  The golden records the *vectorized*
driver's own stats and final simulated clock, so any later change to
the node-level cost arithmetic (multi-message transfers, window
staging, barrier charges) is diff-detectable bit-for-bit.

Runs are metadata-only (``with_data=False``).  The refused path — the
data plane is a refusal condition — is pinned by the ``data-plane``
fallback test in ``tests/sim/test_vectorized_equivalence.py`` against
the kernel goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.metrics import CollectiveStats
from repro.core.path import PathDecision
from repro.core.vectorized import run_vectorized_collective

from tests.goldens.cases import CLUSTER_CASES, build_patterns, stats_to_jsonable
from tests.helpers import make_stack

OPS = ("write", "read")


@dataclass(frozen=True)
class VectorizedCase:
    """One deterministic vectorized-driver scenario."""

    name: str
    #: the path the recorded run must have taken — checked at generation
    #: time
    expect_path: PathDecision


VEC_CASES = (
    VectorizedCase(
        name="remerge",
        expect_path=PathDecision("vectorized"),
    ),
)

#: the workload is the kernel goldens' "uniform" cluster: 12 ranks on
#: 3 nodes, serial per-rank chunks — shared so the two golden sets stay
#: comparable cell-for-cell
_UNIFORM = CLUSTER_CASES[0]


def make_vectorized_engine(stack):
    return MemoryConsciousCollectiveIO(
        stack.comm,
        stack.pfs,
        MCIOConfig(
            msg_group=16 * 1024,
            msg_ind=2 * 1024,
            mem_min=0,
            nah=2,
            cb_buffer_size=1024,
            min_buffer=1,
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
    return out


def run_vectorized_case(case: VectorizedCase, op: str) -> dict:
    """Execute one vectorized golden cell and return its record."""
    patterns = build_patterns(_UNIFORM)
    stack = make_stack(
        n_ranks=_UNIFORM.n_ranks,
        n_nodes=_UNIFORM.n_nodes,
        cores=_UNIFORM.cores,
        stripe_size=_UNIFORM.stripe_size,
        with_data=False,
    )
    engine = make_vectorized_engine(stack)
    stats = run_vectorized_collective(engine, patterns, op)
    assert stats.path == case.expect_path, (
        f"{case.name}/{op}: recorded run took {stats.path}, "
        f"scenario expects {case.expect_path}"
    )
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
