"""Simulated MPI communicator over the cluster model.

Ranks are discrete-event processes; :class:`SimComm` gives them the MPI
surface that ROMIO-style collective I/O is written against:

* point-to-point ``send``/``recv``/``isend`` with tag matching, charged on
  the cluster network (NIC contention, intra-node shared-memory path);
* ``barrier`` and ``allgather`` over the world, with value semantics
  identical to MPI and a binomial-tree time charge
  (:meth:`SimComm.collective_time`) — these carry *metadata* (offset
  lists, memory snapshots); bulk shuffle data always moves through
  explicit p2p so contention and memory effects are simulated per
  message;
* :meth:`SimComm.counted_barrier`, which lets a rank with nothing to do
  pass several barriers in one call, on the schedule of one call each.

All calls taking a ``ctx`` are generators and must be ``yield from``-ed
inside the calling rank's process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Optional, Sequence

import numpy as np

from repro.cluster import Cluster, Node
from repro.sim import Environment, Event, Process

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "RankContext", "SimComm"]

#: Effective bytes/second of collective metadata in
#: :meth:`SimComm.collective_time`.
METADATA_BANDWIDTH = 1e9


class _AnySentinel:
    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._label


#: Wildcard source for :meth:`SimComm.recv`.
ANY_SOURCE = _AnySentinel("ANY_SOURCE")
#: Wildcard tag for :meth:`SimComm.recv`.
ANY_TAG = _AnySentinel("ANY_TAG")


@dataclass(frozen=True)
class Message:
    """A delivered point-to-point message."""

    source: int
    tag: int
    nbytes: int
    payload: Any = None


@dataclass
class RankContext:
    """Per-rank handle passed to SPMD process functions."""

    comm: "SimComm"
    rank: int

    @property
    def env(self) -> Environment:
        """The simulation environment."""
        return self.comm.env

    @property
    def node(self) -> Node:
        """The node this rank runs on."""
        return self.comm.node_of_rank(self.rank)

    @property
    def size(self) -> int:
        """World size."""
        return self.comm.size

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run `generator` as a concurrent sub-process of this rank."""
        return self.comm.env.process(generator, name=name or f"rank{self.rank}.sub")


class _LazyDequeMap(dict):
    """``{rank: deque}`` materialising entries on first touch.

    Mailboxes and receive-post queues used to be dense
    ``list[deque]``s; at 10^6 ranks that is a million deques allocated
    up front even though the vectorized execution path never runs a
    single rank coroutine.  Indexing semantics are unchanged — every
    access site indexes a specific rank, nothing iterates the map.
    """

    __slots__ = ()

    def __missing__(self, rank):
        value = self[rank] = deque()
        return value


@dataclass
class _CollectiveState:
    event: Event
    values: dict[int, Any] = field(default_factory=dict)
    nbytes_max: int = 0
    #: How many of `values` are idle ranks' arrivals made through
    #: :meth:`SimComm.counted_barrier`.
    early: int = 0


class _Sleeper:
    """A rank sleeping through barriers ``first..first+len(events)-1``.

    The rank waits on `token`.  Its :meth:`released` stands in each of
    those barriers' callback lists where the rank's own arrival would
    be, so the rank resumes exactly where a rank waiting on the barrier
    would: at the last one, or at an earlier one after a host failure.
    """

    __slots__ = ("comm", "rank", "first", "events", "token")

    def __init__(self, comm, rank, first, events, token):
        self.comm = comm
        self.rank = rank
        self.first = first
        self.events = events
        self.token = token

    def released(self, event: Event) -> None:
        """One of the barriers slept through released."""
        if event is self.events[-1]:
            self.token.succeed_now(len(self.events))
        elif self.comm.cluster.any_failed:
            passed = self.events.index(event) + 1
            self.comm._withdraw(self, passed)
            self.token.succeed_now(passed)


class SimComm:
    """MPI-like runtime binding ranks to cluster nodes.

    Parameters
    ----------
    env:
        Simulation environment.
    cluster:
        The simulated platform.
    placement:
        ``placement[rank]`` = node id, e.g. from
        :func:`repro.cluster.block_placement`.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        placement: Sequence[int],
    ):
        from repro.cluster.placement import validate_placement

        #: ``placement[rank]`` = node id, as a read-only int64 array for
        #: the planner's and the vectorized driver's array passes.
        self.placement_array = np.array(placement, dtype=np.int64)
        self.placement_array.flags.writeable = False
        validate_placement(
            self.placement_array, len(cluster.nodes), cluster.spec.node.cores
        )
        self.env = env
        self.cluster = cluster
        #: The same placement as a tuple, for per-rank lookups.
        self.placement = tuple(placement)
        self.size = len(placement)
        self._mail: Mapping[int, deque[Message]] = _LazyDequeMap()
        self._recv_posts: Mapping[int, deque[tuple[Event, Any, Any]]] = (
            _LazyDequeMap()
        )
        self._coll_state: dict[tuple[str, int], _CollectiveState] = {}
        self._coll_seq: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def node_of_rank(self, rank: int) -> Node:
        """The node object hosting `rank`."""
        return self.cluster.nodes[self.placement[rank]]

    def node_id_of_rank(self, rank: int) -> int:
        """The node id hosting `rank`."""
        return self.placement[rank]

    def ranks_on_node(self, node_id: int) -> list[int]:
        """All ranks placed on `node_id`, in rank order."""
        return [r for r in range(self.size) if self.placement[r] == node_id]

    # ------------------------------------------------------------------
    # SPMD launch
    # ------------------------------------------------------------------
    def launch(
        self, main: Callable[[RankContext], Generator], ranks: Optional[Sequence[int]] = None
    ) -> list[Process]:
        """Start ``main(ctx)`` as a process on every rank (or on `ranks`)."""
        targets = range(self.size) if ranks is None else ranks
        procs = []
        for rank in targets:
            ctx = RankContext(self, rank)
            procs.append(self.env.process(main(ctx), name=f"rank{rank}"))
        return procs

    def run_spmd(self, main: Callable[[RankContext], Generator]) -> list[Any]:
        """Launch `main` on all ranks, run to completion, return rank results."""
        procs = self.launch(main)
        done = self.env.all_of(procs)
        self.env.run(until=done)
        return [p.value for p in procs]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(
        self,
        ctx: RankContext,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        paged_dst: bool = False,
    ):
        """Process generator: blocking send of `nbytes` to `dest`.

        Completion means the data has crossed the network (eager protocol);
        matching order at the receiver is arrival order.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid dest rank {dest}")
        src_node = self.node_of_rank(ctx.rank)
        dst_node = self.node_of_rank(dest)
        tracer = self.env.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        yield from self.cluster.network.transfer(
            src_node, dst_node, nbytes, paged_dst=paged_dst
        )
        self._deliver(dest, Message(ctx.rank, tag, nbytes, payload))
        if tracer.enabled:
            tracer.complete(
                "comm", "comm.send",
                self.placement[ctx.rank], ctx.rank,
                t0, tracer.now() - t0,
                dest=dest, bytes=nbytes, tag=tag,
            )

    def isend(
        self,
        ctx: RankContext,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        paged_dst: bool = False,
    ) -> Process:
        """Non-blocking send; returns a joinable :class:`Process`."""
        return ctx.spawn(
            self.send(ctx, dest, nbytes, tag=tag, payload=payload, paged_dst=paged_dst),
            name=f"rank{ctx.rank}.isend->{dest}",
        )

    def recv(self, ctx: RankContext, source: Any = ANY_SOURCE, tag: Any = ANY_TAG):
        """Process generator: blocking receive; returns a :class:`Message`."""
        mail = self._mail[ctx.rank]
        for i, msg in enumerate(mail):
            if self._matches(msg, source, tag):
                del mail[i]
                return msg
        ev = self.env.event()
        self._recv_posts[ctx.rank].append((ev, source, tag))
        tracer = self.env.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        msg = yield ev
        if tracer.enabled:
            tracer.complete(
                "comm", "comm.recv.wait",
                self.placement[ctx.rank], ctx.rank,
                t0, tracer.now() - t0,
                source=msg.source, bytes=msg.nbytes, tag=msg.tag,
            )
        return msg

    def _deliver(self, dest: int, msg: Message) -> None:
        posts = self._recv_posts[dest]
        for i, (ev, source, tag) in enumerate(posts):
            if self._matches(msg, source, tag):
                del posts[i]
                ev.succeed(msg)
                return
        self._mail[dest].append(msg)

    @staticmethod
    def _matches(msg: Message, source: Any, tag: Any) -> bool:
        if source is not ANY_SOURCE and msg.source != source:
            return False
        if tag is not ANY_TAG and msg.tag != tag:
            return False
        return True

    # ------------------------------------------------------------------
    # collectives (metadata plane)
    # ------------------------------------------------------------------
    def collective_time(self, nbytes_max: int) -> float:
        """Binomial-tree charge of one collective over the world.

        One NIC latency plus the largest contribution at
        :data:`METADATA_BANDWIDTH` per tree level.  Both drivers charge
        their metadata collectives through this one formula.
        """
        hops = (self.size - 1).bit_length()
        latency = self.cluster.spec.node.nic_latency
        return hops * (latency + nbytes_max / METADATA_BANDWIDTH)

    def _collective(
        self,
        ctx: RankContext,
        op: str,
        value: Any,
        nbytes: int,
        ordered: bool = False,
    ):
        """Shared rendezvous machinery for all collectives.

        Returns the dict of all participants' deposited values (keyed by
        rank), after charging :meth:`collective_time`.  With `ordered`,
        returns them instead as one list in rank order, built once per
        rendezvous and shared by every participant.
        """
        seq_key = (ctx.rank, op)
        seq = self._coll_seq.get(seq_key, 0)
        self._coll_seq[seq_key] = seq + 1

        state_key = (op, seq)
        state = self._coll_state.get(state_key)
        if state is None:
            state = _CollectiveState(event=self.env.event())
            self._coll_state[state_key] = state
        if ctx.rank in state.values:
            raise RuntimeError(f"rank {ctx.rank} re-entered collective {state_key}")
        state.values[ctx.rank] = value
        state.nbytes_max = max(state.nbytes_max, nbytes)

        if len(state.values) == self.size:
            del self._coll_state[state_key]
            t = self.collective_time(state.nbytes_max)
            values = state.values
            if ordered:
                values = [values[r] for r in range(self.size)]

            def _complete(env, event, result, delay):
                yield env.sleep(delay)
                event.succeed(result)

            self.env.process(
                _complete(self.env, state.event, values, t),
                name=f"coll.{op}.{seq}",
            )
        tracer = self.env.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        values = yield state.event
        if tracer.enabled:
            tracer.complete(
                "comm", f"coll.{op}",
                self.placement[ctx.rank], ctx.rank,
                t0, tracer.now() - t0,
                size=self.size,
            )
        return values

    def barrier(self, ctx: RankContext):
        """Process generator: synchronize all ranks."""
        yield from self._collective(ctx, "barrier", None, 0)

    def counted_barrier(self, ctx: RankContext, count: int):
        """Process generator: this rank's next `count` barriers in one call.

        For a rank with nothing to exchange until after the `count`-th
        barrier: it records its arrival at all of them now and waits only
        for the release of the last, so the barriers in between cost it
        nothing.  Returns how many barriers it passed.

        The schedule is the one of `count` plain :meth:`barrier` calls.
        Ranks waiting at a barrier resume in arrival order, and a rank
        with nothing to do between barriers arrives at the next one as
        soon as the previous releases, so its place among the waiters of
        every later barrier is the one it takes at the first.  The
        sleeper holds that place in each of them.  That reasoning needs
        the ranks that went idle to arrive before any rank that worked, so
        a call that finds a rank already waiting at its first barrier by
        itself takes that one barrier plainly.

        A host can fail while ranks sleep, and a rank awake at a round
        boundary would see it, so each barrier slept through checks
        ``cluster.any_failed`` when its release is processed; on a
        failure the sleeper wakes there and its later arrivals are
        withdrawn.

        An idle arrival never completes a barrier — some rank must still
        arrive by itself, as the aggregator with work does in every round
        of a collective — and raises if it would.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        seq_key = (ctx.rank, "barrier")
        first = self._coll_seq.get(seq_key, 0)
        state = self._coll_state.get(("barrier", first))
        if state is not None and len(state.values) > state.early:
            yield from self._collective(ctx, "barrier", None, 0)
            return 1
        self._coll_seq[seq_key] = first + count
        events = []
        for seq in range(first, first + count):
            key = ("barrier", seq)
            state = self._coll_state.get(key)
            if state is None:
                state = _CollectiveState(event=self.env.event())
                self._coll_state[key] = state
            if ctx.rank in state.values:
                raise RuntimeError(f"rank {ctx.rank} re-entered collective {key}")
            state.values[ctx.rank] = None
            state.early += 1
            if len(state.values) == self.size:
                raise RuntimeError(
                    f"idle arrival of rank {ctx.rank} would complete {key}"
                )
            events.append(state.event)
        tracer = self.env.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        if count == 1:
            yield events[0]
            passed = 1
        else:
            sleeper = _Sleeper(self, ctx.rank, first, events, self.env.event())
            released = sleeper.released
            for event in events:
                event.callbacks.append(released)
            passed = yield sleeper.token
        if tracer.enabled:
            tracer.complete(
                "comm", "coll.barrier",
                self.placement[ctx.rank], ctx.rank,
                t0, tracer.now() - t0,
                size=self.size, barriers=passed,
            )
        return passed

    def _withdraw(self, sleeper: _Sleeper, passed: int) -> None:
        """Take back `sleeper`'s arrivals after its first `passed`."""
        released = sleeper.released
        first = sleeper.first
        for seq in range(first + passed, first + len(sleeper.events)):
            key = ("barrier", seq)
            state = self._coll_state[key]
            del state.values[sleeper.rank]
            state.early -= 1
            state.event.callbacks.remove(released)
            if not state.values:
                del self._coll_state[key]
        self._coll_seq[(sleeper.rank, "barrier")] = first + passed

    def allgather(self, ctx: RankContext, value: Any, nbytes: int = 64):
        """Process generator: every rank returns the list of all values.

        The list (rank order) is built once per rendezvous and is the same
        object on every rank: read it, never mutate it.
        """
        return (
            yield from self._collective(
                ctx, "allgather", value, nbytes, ordered=True
            )
        )
