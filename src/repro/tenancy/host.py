"""The tenancy host: N concurrent jobs on one sim clock.

One :class:`TenancyHost` owns the shared platform — environment,
cluster, parallel file system — and
drives every submitted :class:`~repro.tenancy.job.TenantJob` through
the same lifecycle:

1. **arrival** — the job's process sleeps until its arrival time, then
   joins the admission queue;
2. **admission** — the scheduler policy is consulted about the queue
   head whenever the queue could move (an arrival or a completion);
   admitted jobs leave the queue strictly in arrival order;
3. **run** — the job gets its *own* communicator on the shared cluster,
   its own engine, and its own file handle, and its rank processes
   execute concurrently with every other admitted job's — shuffle
   traffic and PFS requests all contend on the shared resources;
4. **completion** — the lifecycle is recorded and the queue is pumped
   again.

Determinism: every decision is a function of the submission set and the
sim clock.  Jobs are submitted in a fixed order, their processes are
created in that order (tie-breaking same-instant arrivals), and the
queue never reorders — so a fixed seed replays byte-identical
:class:`~repro.tenancy.job.JobRecord` streams.

With a tracer installed, each job lays its lifecycle on its own
synthetic Perfetto track (``pid = PID_JOB_BASE - index``): an arrival
instant, a ``job.wait`` span while queued, and a ``job.run`` span while
executing — next to the shared node/PFS tracks, which is what makes
cross-job interference directly visible.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cluster import Cluster, ClusterSpec
from repro.core import MemoryConsciousCollectiveIO
from repro.mpi import SimComm, SimFile, contiguous_view
from repro.obs import Tracer
from repro.obs.tracer import PID_JOB_BASE
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, RngFactory

from .job import JobRecord, TenantJob
from .scheduler import FreeForAll, SchedulerPolicy, SchedulerState

__all__ = ["TenancyHost", "run_isolated"]


class TenancyHost:
    """Host N concurrent tenant jobs on one shared simulated platform.

    Parameters
    ----------
    spec:
        Hardware description of the shared cluster + PFS.
    seed:
        Platform RNG seed (memory-availability draws etc.).
    policy:
        Admission policy (default :class:`FreeForAll`).
    with_data:
        Back the PFS with a real datastore so payload bytes land.
    tracer:
        Optional tracer, installed with a timeline offset like
        :meth:`repro.experiments.harness.Platform.build`.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        seed: int = 0,
        policy: Optional[SchedulerPolicy] = None,
        with_data: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        self.spec = spec
        self.env = Environment()
        if tracer is not None:
            tracer.install(self.env, offset=tracer.max_ts())
        self.cluster = Cluster(self.env, spec, RngFactory(seed))
        store = SparseFile() if with_data else None
        self.pfs = ParallelFileSystem(self.env, spec.storage, datastore=store)
        self.policy = policy if policy is not None else FreeForAll()
        #: Submitted jobs, submission order.
        self.jobs: list[TenantJob] = []
        #: ``job name -> engine`` of every job that started.
        self.engines: dict[str, MemoryConsciousCollectiveIO] = {}
        #: ``job name -> SimFile`` of every job that started.
        self.files: dict[str, SimFile] = {}
        #: ``job name -> JobRecord`` of every completed job.
        self.records: dict[str, JobRecord] = {}
        self._waiting: list[TenantJob] = []
        self._running: list[TenantJob] = []
        self._admission: dict[str, object] = {}
        self._ran = False

    @property
    def pfs_bandwidth(self) -> float:
        """Aggregate server bandwidth of the shared PFS, bytes/s."""
        return self.spec.storage.servers * self.spec.storage.server_bandwidth

    # ------------------------------------------------------------------
    def submit(self, job: TenantJob) -> TenantJob:
        """Queue `job` for the next :meth:`run` (submission order)."""
        if self._ran:
            raise RuntimeError("host already ran; build a fresh one")
        if any(j.name == job.name for j in self.jobs):
            raise ValueError(f"duplicate job name {job.name!r}")
        self.jobs.append(job)
        return job

    def run(self) -> list[JobRecord]:
        """Drive every submitted job to completion on one sim clock.

        Returns the per-job records in submission order.  Read jobs'
        file regions are prefilled with their deterministic payload
        bytes first (host-side, no simulated time).
        """
        if self._ran:
            raise RuntimeError("host already ran; build a fresh one")
        self._ran = True
        store = self.pfs.datastore
        if store is not None:
            for job in self.jobs:
                if job.op == "read" and job.main_fn is None:
                    for r in range(job.n_ranks):
                        store.write(
                            job.offset + r * job.block, job.payload(r)
                        )
        procs = [
            self.env.process(
                self._job_proc(job, index), name=f"tenancy.{job.name}"
            )
            for index, job in enumerate(self.jobs)
        ]
        if procs:
            self.env.run(until=self.env.all_of(procs))
        return [self.records[job.name] for job in self.jobs]

    # ------------------------------------------------------------------
    def _state(self) -> SchedulerState:
        return SchedulerState(
            now=self.env.now,
            running=tuple(j.name for j in self._running),
            waiting=tuple(j.name for j in self._waiting),
            n_servers=self.spec.storage.servers,
        )

    def _pump(self) -> None:
        """Admit queue heads while the policy allows (no overtaking)."""
        while self._waiting:
            job = self._waiting[0]
            if not self.policy.admit(job, self._state()):
                break
            self._waiting.pop(0)
            self._running.append(job)
            self._admission[job.name].succeed()

    def _job_proc(self, job: TenantJob, index: int):
        env = self.env
        tracer = env.tracer
        pid = PID_JOB_BASE - index
        if job.arrival > env.now:
            yield env.sleep(job.arrival - env.now)
        arrived = env.now
        if tracer.enabled:
            tracer.instant(
                "tenancy", "job.arrive", pid, 0,
                job=job.name, op=job.op, ranks=job.n_ranks,
            )
        ev = env.event()
        self._admission[job.name] = ev
        self._waiting.append(job)
        self._pump()
        if not ev.triggered:
            yield ev
        admitted = env.now
        if tracer.enabled and admitted > arrived:
            tracer.complete(
                "tenancy", "job.wait", pid, 0, arrived, admitted - arrived,
                job=job.name, policy=self.policy.name,
            )
        comm = SimComm(env, self.cluster, list(job.placement))
        engine = MemoryConsciousCollectiveIO(comm, self.pfs, job.config)
        self.engines[job.name] = engine
        fh = SimFile.open(comm, engine)
        self.files[job.name] = fh
        rank_procs = comm.launch(
            lambda ctx, _fh=fh, _job=job: self._rank_body(ctx, _fh, _job)
        )
        yield env.all_of(rank_procs)
        finished = env.now
        if tracer.enabled:
            tracer.complete(
                "tenancy", "job.run", pid, 0, admitted, finished - admitted,
                job=job.name, op=job.op, steps=job.steps,
            )
        self._running.remove(job)
        self.records[job.name] = JobRecord(
            name=job.name,
            op=job.op,
            mode=job.mode,
            steps=job.steps,
            n_ranks=job.n_ranks,
            total_bytes=job.total_bytes,
            arrived=arrived,
            admitted=admitted,
            finished=finished,
            collectives=len(engine.history),
            replans=sum(pc.replans for pc in fh._pcs),
        )
        self._pump()

    def _rank_body(self, ctx, fh: SimFile, job: TenantJob):
        if job.main_fn is not None:
            return (yield from job.main_fn(ctx, fh, job))
        fh.set_view(
            ctx, contiguous_view(job.offset + ctx.rank * job.block, job.block)
        )
        payload = job.payload(ctx.rank) if job.op == "write" else None
        if job.mode == "blocking":
            for _ in range(job.steps):
                if job.op == "write":
                    yield from fh.write_all(ctx, payload)
                else:
                    yield from fh.read_all(ctx)
            return
        init = fh.write_all_init if job.op == "write" else fh.read_all_init
        pc = init(ctx, overlap=(job.mode == "persistent+overlap"))
        for _ in range(job.steps):
            pc.start(ctx, payload)
            yield from pc.wait(ctx)


def run_isolated(
    spec: ClusterSpec,
    job: TenantJob,
    seed: int = 0,
    availability=None,
    with_data: bool = True,
) -> JobRecord:
    """Run `job` alone on a fresh, identical platform (the baseline).

    The job's arrival is zeroed (it never queues) and everything else —
    placement, size, mode, config — is preserved, so
    ``shared.elapsed / isolated.elapsed`` is the pure contention
    slowdown.  `availability` (per-node bytes) pins the same memory
    regime the shared run used.
    """
    host = TenancyHost(spec, seed=seed, with_data=with_data)
    if availability is not None:
        host.cluster.set_memory_availability(availability)
    host.submit(replace(job, arrival=0.0))
    return host.run()[0]
