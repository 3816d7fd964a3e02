"""One path decision per collective: the rules of ``resolve_path``.

Each rule is checked on a live platform, in the order the resolver
applies it, and the decision is followed through to the record every
collective carries (``CollectiveStats.path``) and to the
``collective.*`` span's ``path`` argument.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO, TwoPhaseCollectiveIO
from repro.core.metrics import CollectiveStats
from repro.core.path import UNPLANNED, PathDecision, resolve_path
from repro.core.vectorized import run_vectorized_collective
from repro.mpi import SimFile, contiguous_view
from repro.obs import Tracer

from tests.helpers import make_stack

N_RANKS = 8
BLOCK = 512
#: A stand-in plan: only a replay's decision reads whether it is planned.
LOCAL_PLAN = SimpleNamespace(domains=())


def engine_on(stack, **overrides) -> MemoryConsciousCollectiveIO:
    config = MCIOConfig(
        msg_group=16 * 1024, msg_ind=2 * 1024, mem_min=0, nah=2,
        cb_buffer_size=1024, min_buffer=1, **overrides,
    )
    return MemoryConsciousCollectiveIO(stack.comm, stack.pfs, config)


def test_blocking_collectives_run_lockstep_or_independent():
    engine = engine_on(make_stack(n_ranks=N_RANKS, with_data=False))
    assert resolve_path(engine, LOCAL_PLAN) == PathDecision("lockstep")


class TestVectorized:
    def test_granted_provisionally_then_with_the_plan(self):
        engine = engine_on(make_stack(n_ranks=N_RANKS, with_data=False))
        assert resolve_path(engine, vectorize=True) == PathDecision("vectorized")
        assert resolve_path(engine, LOCAL_PLAN, vectorize=True) == PathDecision(
            "vectorized"
        )

    def test_first_failing_check_is_the_only_refusal(self):
        """A data plane and a failed host at once: the decision names
        the first check, as the checks run in order."""
        stack = make_stack(n_ranks=N_RANKS, with_data=True)
        engine = engine_on(stack)
        stack.cluster.nodes[1].fail()
        want = PathDecision("lockstep", ("vectorized:data-plane",))
        assert resolve_path(engine, vectorize=True) == want
        assert resolve_path(engine, LOCAL_PLAN, vectorize=True) == want

    def test_failed_host_refuses_with_or_without_the_plan(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = engine_on(stack)
        stack.cluster.nodes[1].fail()
        want = PathDecision("lockstep", ("vectorized:failed-nodes",))
        assert resolve_path(engine, vectorize=True) == want
        assert resolve_path(engine, LOCAL_PLAN, vectorize=True) == want


class TestReplay:
    def test_engine_without_planning_hooks_delegates(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)
        decision = resolve_path(engine, UNPLANNED, replay=True, overlap=True)
        assert decision == PathDecision(
            "lockstep", ("persistent:engine-unsupported",)
        )
        assert decision.delegated

    def test_overlap_over_a_failed_host_runs_lockstep(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = engine_on(stack, execution_mode="vectorized")
        assert resolve_path(
            engine, LOCAL_PLAN, replay=True, overlap=True
        ) == PathDecision("pipelined", ("vectorized:persistent-collective",))
        stack.cluster.nodes[1].fail()
        decision = resolve_path(engine, LOCAL_PLAN, replay=True, overlap=True)
        assert decision == PathDecision(
            "lockstep",
            ("vectorized:persistent-collective", "pipelined:failed-nodes"),
        )
        assert not decision.delegated
        assert decision.reasons("pipelined") == ("failed-nodes",)


def test_pre_decision_documents_keep_their_mode():
    """Stats written before the decision record carried only
    ``execution_mode``; a vectorized one still loads as vectorized."""
    stack = make_stack(n_ranks=N_RANKS, with_data=False)
    engine = engine_on(stack, execution_mode="vectorized")
    patterns = [contiguous_view(r * BLOCK, BLOCK) for r in range(N_RANKS)]
    d = run_vectorized_collective(engine, patterns, "write").to_json()
    for mode, driver in (("vectorized", "vectorized"), ("per-rank", "lockstep")):
        old = {k: v for k, v in d.items() if k != "path"}
        old["execution_mode"] = mode
        old["vectorized_refusals"] = 0
        stats = CollectiveStats.from_json(old)
        assert stats.path == PathDecision(driver)
        assert stats.execution_mode == mode


@pytest.mark.parametrize(
    "mode,driver",
    [
        ("blocking", "lockstep"),
        ("persistent", "lockstep"),
        ("persistent+overlap", "pipelined"),
    ],
)
def test_collective_span_names_the_driver(mode, driver):
    stack = make_stack(n_ranks=N_RANKS, n_nodes=2, cores=4)
    tracer = Tracer().install(stack.env)
    engine = engine_on(stack)
    fh = SimFile.open(stack.comm, engine)

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        payload = np.zeros(BLOCK, dtype=np.uint8)
        if mode == "blocking":
            yield from fh.write_all(ctx, payload)
            return
        pc = fh.write_all_init(ctx, overlap=mode == "persistent+overlap")
        pc.start(ctx, payload)
        yield from pc.wait(ctx)

    stack.run_spmd(main)
    spans = [
        ev for ev in tracer.events()
        if ev.ph == "B" and ev.name == "collective.write"
    ]
    assert len(spans) == N_RANKS
    assert {ev.args["path"] for ev in spans} == {driver}
    assert "granularity" not in spans[0].args
    assert engine.history[-1].path == PathDecision(driver)
