"""Remote-memory borrowing: lease-backed aggregation buffers.

When the placer tags a file domain with ``lender_node`` (placement
policy ``"borrow"``/``"hybrid"``), the domain's aggregation buffer does
not live on the aggregator's host — it is *leased* from the lender's
:class:`~repro.cluster.memory.MemoryModel` through the cluster's shared
:class:`~repro.cluster.memory.LeaseLedger`, and buffer staging crosses
the fabric at α–β cost instead of the local memory bus.

This module is the lease protocol the engine drives:

* **acquisition** — before round 0, each borrowing aggregator tries to
  grant its lease with capped exponential backoff under contention; a
  post-acquisition barrier makes the grant outcome common knowledge, so
  every rank takes the same branch;
* **round-boundary checks** — at every lockstep round start (before the
  failover check), all ranks evaluate every lease against the same
  pinned verdict: lender death, a memory squeeze on the lender, term
  expiry, or the *borrower's* host dying.  Any unsound lease aborts the
  in-flight collective on every rank via :class:`BorrowDegraded`;
* **renewal** — a healthy lease inside its renewal window (less than
  half a term remaining) is extended by its borrower;
* **teardown** — on abort the borrower revokes unsound leases and
  releases healthy ones; on success all leases are released before the
  final barrier.  Either way the ledger ends the collective with zero
  outstanding leases.

Determinism: the barrier preceding every round puts all ranks at the
same sim instant; the first rank to reach a round computes the verdict
from shared state and *pins* it on the session, so later ranks at the
same instant reuse it even though the borrower's own teardown mutates
the ledger mid-instant.  Fault-free borrow runs add one extra barrier
(post-acquisition) and otherwise follow the normal lockstep schedule.
"""

from __future__ import annotations

__all__ = ["BorrowDegraded", "BorrowSession"]

#: Grant attempts beyond the first before a borrower gives up and the
#: collective degrades (acquisition under contention).
LEASE_RETRY_LIMIT = 4
#: Exponential backoff between grant retries, sim-seconds:
#: ``min(LEASE_BACKOFF_CAP, LEASE_BACKOFF_BASE * 2**attempt)``.
LEASE_BACKOFF_BASE = 1e-4
LEASE_BACKOFF_CAP = 5e-3
#: Sim-seconds a granted lease stays valid before it must be renewed;
#: the borrower renews at a round boundary once less than half remains.
LEASE_TERM = 1.0
#: Bytes of uncommitted memory a lender must keep *beyond* the leased
#: amount (the ledger's ``headroom``); 0 lends everything uncommitted.
LEND_HEADROOM = 0


class BorrowDegraded(RuntimeError):
    """The collective must abandon its borrowed plan and re-run degraded.

    Raised on *every* rank at the same round boundary (or before round 0
    when acquisition fails), after lease teardown.  The engine's caller
    catches it and re-plans with borrowing disabled.

    Attributes
    ----------
    round_index:
        Lockstep round at whose boundary the abort happened; ``-1`` for
        an acquisition failure (no round ran).
    reasons:
        Tuple of ``(domain_id, reason)`` pairs, e.g.
        ``(3, "lender-failed")``.
    """

    def __init__(self, round_index: int, reasons):
        self.round_index = round_index
        self.reasons = tuple(reasons)
        detail = ", ".join(f"domain {d}: {r}" for d, r in self.reasons)
        super().__init__(
            f"borrowed collective degraded at round {round_index} ({detail})"
        )


class BorrowSession:
    """Shared per-collective lease state (one instance across all ranks)."""

    def __init__(self, ledger, tenant=None):
        self.ledger = ledger
        #: Owning job's identity (stamped on every lease this session
        #: grants) in a multi-tenant environment; None otherwise.
        self.tenant = tenant
        #: domain id -> Lease, filled by the borrowing aggregators.
        self.leases: dict = {}
        #: domain id -> grant attempts, for domains whose acquisition
        #: exhausted its retries.
        self.failed_acquire: dict = {}
        #: round -> pinned verdict tuple; the first rank to reach a round
        #: computes it, later ranks at the same instant reuse it.
        self.round_verdicts: dict = {}
        #: (round, reasons) once degradation was decided.
        self.aborted = None

    def lease_for(self, did):
        """The domain's active lease, or None."""
        lease = self.leases.get(did)
        return lease if lease is not None and lease.active else None


# ---------------------------------------------------------------------------
# engine-facing protocol steps (run against the engine's _RunContext)
# ---------------------------------------------------------------------------
def acquire_leases(run, session: BorrowSession):
    """Process generator: this rank grants its borrowed domains' leases.

    Retries with capped exponential backoff
    (``min(LEASE_BACKOFF_CAP, LEASE_BACKOFF_BASE * 2**attempt)``) up to
    :data:`LEASE_RETRY_LIMIT` extra attempts; exhaustion is recorded on
    the shared session and resolved collectively after the
    post-acquisition barrier.
    """
    ctx = run.ctx
    env = ctx.env
    tracer = env.tracer
    pid = run.comm.placement[ctx.rank]
    for did, domain in enumerate(run.domains):
        if domain.lender_node is None or domain.aggregator_rank != ctx.rank:
            continue
        if tracer.enabled:
            tracer.begin(
                "borrow", "borrow.acquire", pid, ctx.rank,
                domain=did, lender=domain.lender_node,
                bytes=domain.buffer_bytes,
            )
        attempts = 0
        lease = None
        while True:
            lease = session.ledger.grant(
                domain.lender_node, ctx.rank, domain.buffer_bytes,
                now=env.now, term=LEASE_TERM,
                headroom=LEND_HEADROOM, tenant=session.tenant,
            )
            if lease is not None or attempts >= LEASE_RETRY_LIMIT:
                break
            delay = min(LEASE_BACKOFF_CAP, LEASE_BACKOFF_BASE * (2 ** attempts))
            attempts += 1
            yield env.sleep(delay)
        if tracer.enabled:
            tracer.end(pid, ctx.rank, granted=lease is not None, attempts=attempts)
        if lease is None:
            session.failed_acquire[did] = attempts
            continue
        session.leases[did] = lease
        run.stats.record_lease("granted")
        run.stats.record_aggregator(
            ctx.rank, domain.buffer_bytes, paged=False, overcommit_bytes=0
        )


def check_acquisition(run, session: BorrowSession) -> None:
    """Post-barrier resolution of the acquisition phase.

    Every rank reads the same shared ``failed_acquire`` map at the same
    instant: either all proceed into round 0, or all tear down and raise
    :class:`BorrowDegraded` before any byte moved.
    """
    if not session.failed_acquire:
        return
    reasons = tuple(
        (did, "acquire-exhausted") for did in sorted(session.failed_acquire)
    )
    _abort(run, session, -1, reasons)


def borrow_round_check(run, session: BorrowSession, t: int):
    """Round-boundary lease health check + renewal (deterministic).

    Runs on every rank before the failover check.  The verdict for round
    `t` is pinned by the first arriving rank so later ranks ignore the
    ledger mutations the borrower's own teardown performs mid-instant.
    """
    if not session.leases:
        return
    ctx, comm = run.ctx, run.comm
    now = ctx.env.now
    ledger = session.ledger
    reasons = session.round_verdicts.get(t)
    if reasons is None:
        found = []
        for did, lease in sorted(session.leases.items()):
            verdict = ledger.soundness(lease, now)
            if verdict is None and comm.node_of_rank(
                run.domains[did].aggregator_rank
            ).failed:
                # the *borrower's* host died: the borrowed domain cannot
                # be failed over (its buffer is remote); abort instead
                verdict = "borrower-host-failed"
            if verdict is not None:
                found.append((did, verdict))
        reasons = session.round_verdicts[t] = tuple(found)
    if reasons:
        _abort(run, session, t, reasons)
    # renewal: the borrower extends any of its leases inside the
    # renewal window (less than half a term remaining)
    for did, lease in sorted(session.leases.items()):
        if lease.borrower_rank != ctx.rank:
            continue
        if lease.active and lease.expires_at - now <= LEASE_TERM / 2:
            if ledger.renew(lease, now, LEASE_TERM):
                run.stats.record_lease("renewed")
                tracer = ctx.env.tracer
                if tracer.enabled:
                    tracer.instant(
                        "borrow", "borrow.renew",
                        comm.placement[ctx.rank], ctx.rank,
                        domain=did, round=t,
                    )


def release_leases(run, session: BorrowSession) -> None:
    """Normal end-of-collective teardown: each borrower releases its own."""
    ctx = run.ctx
    now = ctx.env.now
    tracer = ctx.env.tracer
    for did, lease in sorted(session.leases.items()):
        if lease.borrower_rank != ctx.rank or not lease.active:
            continue
        session.ledger.release(lease, now)
        run.stats.record_lease("released")
        if tracer.enabled:
            tracer.instant(
                "borrow", "borrow.release",
                run.comm.placement[ctx.rank], ctx.rank,
                domain=did, lease=lease.lease_id,
            )


def _abort(run, session: BorrowSession, t: int, reasons) -> None:
    """Tear down this rank's leases and raise on every rank.

    Unsound leases are revoked (counted revoked or expired per reason),
    healthy ones released; the root rank records the fallback event.
    """
    ctx = run.ctx
    now = ctx.env.now
    unsound = dict(reasons)
    ledger = session.ledger
    for did, lease in sorted(session.leases.items()):
        if lease.borrower_rank != ctx.rank or not lease.active:
            continue
        reason = unsound.get(did)
        if reason is not None and reason != "acquire-exhausted":
            ledger.revoke(lease, now, reason=reason)
            run.stats.record_lease(
                "expired" if reason == "expired" else "revoked"
            )
        else:
            ledger.release(lease, now)
            run.stats.record_lease("released")
    if ctx.rank == 0:
        run.stats.record_borrow_fallback()
        run.stats.extra["borrow_fallback_round"] = t
        run.stats.extra["borrow_fallback_reason"] = ";".join(
            f"{did}:{r}" for did, r in reasons
        )
    tracer = ctx.env.tracer
    if tracer.enabled:
        tracer.instant(
            "borrow", "borrow.abort",
            run.comm.placement[ctx.rank], ctx.rank,
            round=t, reasons=len(reasons),
        )
    session.aborted = (t, reasons)
    raise BorrowDegraded(t, reasons)
