"""One path decision per collective: which driver runs it, and why.

The drivers: ``"vectorized"`` (node level, DESIGN.md §11), ``"lockstep"``
(per-rank coroutines walking ROMIO's rounds, the reference) and
``"pipelined"`` (lockstep with the PFS stage overlapped: a persistent
replay's ``overlap=True``, §13).  :func:`resolve_path` is the only place
that chooses among them.  Refusals read ``"<refused>:<reason>"`` in
check order; ``<refused>`` is a driver, or ``"persistent"`` when a
replay hands its epoch to the blocking entry point.  Mid-run events
(failover, pipeline drain) are not path decisions and stay where they
happen.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PathDecision", "UNPLANNED", "hand_over", "resolve_path",
    "vectorization_requested",
]

#: ``plan`` before planning ran: only the pre-plan rules apply, and a
#: request that passes them is granted until asked again with the plan.
UNPLANNED = object()

#: Engine attributes a persistent replay drives (MCIO's planning surface).
_REPLAY_HOOKS = ("plan", "_make_collector", "add_invalidation_listener")


@dataclass(frozen=True)
class PathDecision:
    """The driver that runs one collective, and every refusal on the way."""

    driver: str = "lockstep"
    refusals: tuple[str, ...] = ()

    def reasons(self, refused: str) -> tuple[str, ...]:
        """Why `refused` (a driver, or ``"persistent"``) was refused."""
        prefix = refused + ":"
        return tuple(r[len(prefix):] for r in self.refusals if r.startswith(prefix))

    @property
    def delegated(self) -> bool:
        """Whether a persistent replay hands this epoch to the blocking path."""
        return bool(self.reasons("persistent"))


def vectorization_requested(engine) -> bool:
    """Whether `engine`'s config asks for the node-level driver."""
    config = getattr(engine, "config", None)
    return getattr(config, "execution_mode", "per-rank") == "vectorized"


def resolve_path(
    engine, plan=UNPLANNED, *, vectorize=False, replay=False, overlap=False,
    payloads=None,
) -> PathDecision:
    """Decide, from `engine`'s platform state, which driver runs a collective.

    `plan` is the plan to run, or :data:`UNPLANNED`; only a replay's
    decision reads it.  The node-level driver asks with `vectorize` (and
    its `payloads`), a persistent handle with `replay` (and `overlap` for
    the pipelined executor); a blocking per-rank collective asks with
    neither.  Reads state, never changes it.
    """
    if replay:
        return _replay_path(engine, plan, overlap)
    if vectorize:
        return _vectorized_path(engine, payloads)
    return PathDecision("lockstep")


def _vectorized_path(engine, payloads) -> PathDecision:
    """Per-rank coroutines stay wherever per-rank behaviour could diverge."""
    cluster = engine.comm.cluster
    if engine.pfs.datastore is not None or payloads is not None:
        reason = "data-plane"
    elif any(len(inj.schedule) > 0 for inj in engine._fault_injectors):
        reason = "fault-schedule"
    elif cluster.any_failed:
        # degraded-mode timing and failover live in rank coroutines
        reason = "failed-nodes"
    else:
        return PathDecision("vectorized")
    return PathDecision("lockstep", (f"vectorized:{reason}",))


def _replay_path(engine, plan, overlap: bool) -> PathDecision:
    """A frozen replay runs per-rank, pipelined unless it cannot start so."""
    if not all(hasattr(engine, hook) for hook in _REPLAY_HOOKS):
        return PathDecision("lockstep", ("persistent:engine-unsupported",))
    if plan is UNPLANNED:
        return PathDecision("pipelined" if overlap else "lockstep")
    refusals = ()
    if vectorization_requested(engine):
        refusals += ("vectorized:persistent-collective",)
    if overlap and engine.comm.cluster.any_failed:
        # the overlapped path handles failures arising mid-run (drain,
        # then lockstep + failover) but never starts degraded
        return PathDecision("lockstep", refusals + ("pipelined:failed-nodes",))
    return PathDecision("pipelined" if overlap else "lockstep", refusals)


def hand_over(stats, decision: PathDecision) -> None:
    """Record `decision`'s refusals on the stats of the run it handed the
    collective to; that run's own driver stands."""
    stats.path = PathDecision(
        stats.path.driver, decision.refusals + stats.path.refusals
    )
