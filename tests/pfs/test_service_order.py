"""Storage service order: who is served when, pinned to the last float.

Every value below was recorded with one simulation process per server
request and per NIC hold, joined by an ``AllOf`` per client I/O.  Any
reimplementation of the storage path must reproduce them exactly:
finish times (``repr``), the order in which same-instant completions
resume their clients, per-server byte/request totals, the queues'
busy-time integrals, outage rejections, retry counters and the
``pfs.*`` spans of a traced run.

Timing uses binary fractions (1024 B/s servers, 1/8 s per request,
2048 B/s NICs) so that many completions tie exactly: the tie-breaking
order is what these tests guard.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, StorageSpec
from repro.core.request import AccessPattern, Extent, StridedSegment
from repro.obs import Tracer
from repro.pfs import ParallelFileSystem, RetryPolicy
from repro.sim import Environment, RngFactory

PFS_SPANS = ("pfs.queue_wait", "pfs.serve")


def platform(retry=None):
    """3 nodes, 4 servers of 1024 B/s at 1/8 s per request, 256 B stripes."""
    env = Environment()
    spec = ClusterSpec(
        nodes=3,
        node=NodeSpec(
            cores=4,
            memory_bytes=10**9,
            memory_bandwidth=1e9,
            memory_channels=2,
            nic_bandwidth=2048.0,
            nic_latency=0.0,
        ),
        storage=StorageSpec(
            servers=4,
            server_bandwidth=1024.0,
            request_overhead=0.125,
            stripe_size=256,
        ),
    )
    cluster = Cluster(env, spec, RngFactory(0))
    pfs = ParallelFileSystem(env, spec.storage, retry=retry)
    return env, cluster, pfs


def io(pfs, node, op, target):
    """The generator of one client I/O."""
    if op == "w":
        if isinstance(target, Extent):
            return pfs.write_extent(node, target)
        return pfs.write_pattern(node, target)
    if isinstance(target, Extent):
        return pfs.read_extent(node, target)
    return pfs.read_pattern(node, target)


def spawn(env, cluster, pfs, log, name, node, ops, start=0.0):
    """A client running `ops` back to back from `start`; each completion
    (or raised exception) is appended to `log` as it happens."""

    def client():
        if start:
            yield env.timeout(start)
        for i, (op, target) in enumerate(ops):
            try:
                yield from io(pfs, cluster.nodes[node], op, target)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                log.append((name, i, type(exc).__name__, repr(env.now)))
                return
            log.append((name, i, "ok", repr(env.now)))

    env.process(client(), name=name)


def summary(env, cluster, pfs, log):
    return {
        "log": log,
        "now": repr(env.now),
        "server_stats": pfs.server_stats(),
        "bytes": (pfs.bytes_written, pfs.bytes_read),
        "busy": [repr(s.queue.utilization()) for s in pfs.servers],
        "peak_queue": [s.queue.peak_queue_length for s in pfs.servers],
        "nic_busy": [
            (repr(n.nic_tx.utilization()), repr(n.nic_rx.utilization()))
            for n in cluster.nodes
        ],
        "rejections": [s.outage_rejections for s in pfs.servers],
        "retries": (pfs.io_retries, pfs.io_abandons),
    }


def pfs_spans(tracer):
    """One line per ``pfs.*`` span in recording order: name, server,
    ``repr`` of start and duration, then the arguments."""
    return [
        " ".join(
            [ev.name[4:], f"s{ev.tid}", repr(ev.ts), repr(ev.dur)]
            + [f"{k}={v!r}" for k, v in sorted((ev.args or {}).items())]
        )
        for ev in tracer.events()
        if ev.name in PFS_SPANS
    ]


def run(scenario, traced=False):
    env, cluster, pfs = platform(retry=scenario.retry)
    tracer = Tracer(capacity=10**5).install(env) if traced else None
    log: list = []
    scenario(env, cluster, pfs, log)
    env.run()
    out = summary(env, cluster, pfs, log)
    if traced:
        out["spans"] = pfs_spans(tracer)
    return out


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def same_instant(env, cluster, pfs, log):
    """Seven clients on three nodes issue at t=0 (one at t=0.5) against
    shared servers: contiguous writes and reads, strided patterns, a
    single-server extent, and two clients sharing one NIC."""
    strided = AccessPattern((StridedSegment(0, 64, 256, 8),))
    sparse = AccessPattern((StridedSegment(128, 128, 512, 4),))
    spawn(env, cluster, pfs, log, "c0", 0,
          [("w", Extent(0, 1024)), ("r", Extent(256, 512))])
    spawn(env, cluster, pfs, log, "c1", 0, [("w", Extent(512, 1024))])
    spawn(env, cluster, pfs, log, "c2", 1, [("r", Extent(0, 2048))])
    spawn(env, cluster, pfs, log, "c3", 1,
          [("w", strided), ("r", Extent(768, 256))])
    spawn(env, cluster, pfs, log, "c4", 2, [("w", Extent(300, 100))])
    spawn(env, cluster, pfs, log, "c5", 2, [("r", sparse)])
    spawn(env, cluster, pfs, log, "c6", 2, [("w", Extent(1024, 256))],
          start=0.5)


same_instant.retry = None


def degradation_mid_service(env, cluster, pfs, log):
    """Server 1 starts degraded 2x; server 0 degrades 4x at t=0.25 while
    requests are in service and queued, and heals at t=1.5."""
    pfs.servers[1].set_degradation(2.0)

    def controller():
        yield env.timeout(0.25)
        pfs.servers[0].set_degradation(4.0)
        yield env.timeout(1.25)
        pfs.servers[0].set_degradation(1.0)

    env.process(controller(), name="controller")
    for i in range(4):
        spawn(env, cluster, pfs, log, f"c{i}", i % 3,
              [("w", Extent(0, 512)), ("r", Extent(0, 512))])


degradation_mid_service.retry = None


def outage_while_queued(env, cluster, pfs, log):
    """Four single-server writes queue on server 0; its outage opens at
    t=0.375, the instant the first one finishes, so the next is rejected
    at its grant and the two still queued are failed.  A four-server
    write queued behind them fails while its other holds run on.  Writes
    issued inside the window, and at the instant it closes (their timer
    was scheduled before the closing one), are rejected at issue; one
    issued just after goes through."""
    for i in range(4):
        spawn(env, cluster, pfs, log, f"q{i}", i % 3, [("w", Extent(0, 256))])
    spawn(env, cluster, pfs, log, "wide", 2, [("w", Extent(0, 1024))],
          start=0.25)
    spawn(env, cluster, pfs, log, "during", 1, [("w", Extent(1024, 256))],
          start=0.5)
    spawn(env, cluster, pfs, log, "closing", 0, [("w", Extent(2048, 256))],
          start=1.0)
    spawn(env, cluster, pfs, log, "after", 1, [("w", Extent(2048, 256))],
          start=1.0625)

    def outage():
        yield env.timeout(0.125)
        yield env.timeout(0.25)
        pfs.servers[0].begin_outage()
        yield env.timeout(0.625)
        pfs.servers[0].end_outage()

    env.process(outage(), name="outage")


outage_while_queued.retry = None


def retry_timeout(env, cluster, pfs, log):
    """Server 0 runs 16x slow until t=2.5, so its requests time out both
    in service and in the queue and retry with backoff; server 1 is out
    until t=0.625, so its first attempts are rejected at issue.  After a
    second slowdown at t=5, the requests still bound for server 0 run out
    of retries and abandon."""
    pfs.servers[0].set_degradation(16.0)
    pfs.servers[1].begin_outage()

    def controller():
        yield env.timeout(0.625)
        pfs.servers[1].end_outage()
        yield env.timeout(1.875)
        pfs.servers[0].set_degradation(1.0)
        yield env.timeout(2.5)
        pfs.servers[0].set_degradation(64.0)

    env.process(controller(), name="controller")
    for i in range(3):
        spawn(env, cluster, pfs, log, f"c{i}", i,
              [("w", Extent(0, 512)), ("r", Extent(0, 256))])
    spawn(env, cluster, pfs, log, "late", 1, [("w", Extent(0, 256))],
          start=5.25)


retry_timeout.retry = RetryPolicy(
    request_timeout=1.0, backoff_base=0.25, backoff_cap=1.0, max_retries=3
)


SCENARIOS = {
    "same_instant": same_instant,
    "degradation_mid_service": degradation_mid_service,
    "outage_while_queued": outage_while_queued,
    "retry_timeout": retry_timeout,
}


def test_scenario_names_cover_the_record():
    assert list(SCENARIOS) == list(EXPECTED)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_untraced_run_reproduces_the_record(name):
    expected = {k: v for k, v in EXPECTED[name].items() if k != "spans"}
    assert run(SCENARIOS[name]) == expected


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_traced_run_reproduces_the_record_and_its_spans(name):
    assert run(SCENARIOS[name], traced=True) == EXPECTED[name]


# Recorded with one process per server request and per NIC hold.
EXPECTED = {'same_instant': {'log': [('c0', 0, 'ok', '0.5'),
                          ('c1', 0, 'ok', '1.0'),
                          ('c2', 0, 'ok', '1.375'),
                          ('c3', 0, 'ok', '1.75'),
                          ('c4', 0, 'ok', '1.97265625'),
                          ('c3', 1, 'ok', '2.125'),
                          ('c5', 0, 'ok', '2.25'),
                          ('c6', 0, 'ok', '2.625'),
                          ('c0', 1, 'ok', '2.625')],
                  'now': '2.625',
                  'server_stats': [(0, 1664, 8),
                                   (1, 1508, 7),
                                   (2, 1664, 8),
                                   (3, 1408, 6)],
                  'bytes': (2916, 3328),
                  'busy': ['1.0',
                           '0.8943452380952381',
                           '1.0',
                           '0.8095238095238095'],
                  'peak_queue': [4, 4, 4, 3],
                  'nic_busy': [('0.38095238095238093', '0.09523809523809523'),
                               ('0.09523809523809523', '0.42857142857142855'),
                               ('0.0662202380952381', '0.09523809523809523')],
                  'rejections': [0, 0, 0, 0],
                  'retries': (0, 0),
                  'spans': ['serve s0 0.0 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s1 0.0 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s2 0.0 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s3 0.0 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'queue_wait s0 0.0 0.375',
                            'queue_wait s1 0.0 0.375',
                            'queue_wait s2 0.0 0.375',
                            'queue_wait s3 0.0 0.375',
                            'serve s0 0.375 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s1 0.375 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s2 0.375 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s3 0.375 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'queue_wait s0 0.0 0.75',
                            'queue_wait s1 0.0 0.75',
                            'queue_wait s2 0.0 0.75',
                            'queue_wait s3 0.0 0.75',
                            'serve s0 0.75 0.625 bytes=512 degradation=1.0 '
                            'requests=1 write=False',
                            'serve s1 0.75 0.625 bytes=512 degradation=1.0 '
                            'requests=1 write=False',
                            'serve s2 0.75 0.625 bytes=512 degradation=1.0 '
                            'requests=1 write=False',
                            'serve s3 0.75 0.625 bytes=512 degradation=1.0 '
                            'requests=1 write=False',
                            'queue_wait s0 0.0 1.375',
                            'queue_wait s1 0.0 1.375',
                            'queue_wait s2 0.0 1.375',
                            'queue_wait s3 0.0 1.375',
                            'serve s0 1.375 0.375 bytes=128 degradation=1.0 '
                            'requests=2 write=True',
                            'serve s1 1.375 0.375 bytes=128 degradation=1.0 '
                            'requests=2 write=True',
                            'serve s2 1.375 0.375 bytes=128 degradation=1.0 '
                            'requests=2 write=True',
                            'serve s3 1.375 0.375 bytes=128 degradation=1.0 '
                            'requests=2 write=True',
                            'queue_wait s0 0.0 1.75',
                            'queue_wait s1 0.0 1.75',
                            'queue_wait s2 0.0 1.75',
                            'serve s1 1.75 0.22265625 bytes=100 '
                            'degradation=1.0 requests=1 write=True',
                            'queue_wait s1 0.5 1.47265625',
                            'serve s3 1.75 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=False',
                            'serve s0 1.75 0.5 bytes=256 degradation=1.0 '
                            'requests=2 write=False',
                            'serve s2 1.75 0.5 bytes=256 degradation=1.0 '
                            'requests=2 write=False',
                            'queue_wait s0 0.5 1.75',
                            'queue_wait s2 0.5 1.75',
                            'serve s1 1.97265625 0.375 bytes=256 '
                            'degradation=1.0 requests=1 write=False',
                            'serve s0 2.25 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=True',
                            'serve s2 2.25 0.375 bytes=256 degradation=1.0 '
                            'requests=1 write=False']},
 'degradation_mid_service': {'log': [('c0', 0, 'ok', '0.75'),
                                     ('c1', 0, 'ok', '1.875'),
                                     ('c2', 0, 'ok', '2.25'),
                                     ('c3', 0, 'ok', '3.0'),
                                     ('c0', 1, 'ok', '3.75'),
                                     ('c1', 1, 'ok', '4.5'),
                                     ('c2', 1, 'ok', '5.25'),
                                     ('c3', 1, 'ok', '6.0')],
                             'now': '6.0',
                             'server_stats': [(0, 2048, 8),
                                              (1, 2048, 8),
                                              (2, 0, 0),
                                              (3, 0, 0)],
                             'bytes': (2048, 2048),
                             'busy': ['0.6875', '1.0', '0.0', '0.0'],
                             'peak_queue': [3, 3, 0, 0],
                             'nic_busy': [('0.08333333333333333',
                                           '0.08333333333333333'),
                                          ('0.041666666666666664',
                                           '0.041666666666666664'),
                                          ('0.041666666666666664',
                                           '0.041666666666666664')],
                             'rejections': [0, 0, 0, 0],
                             'retries': (0, 0),
                             'spans': ['serve s0 0.0 0.375 bytes=256 '
                                       'degradation=4.0 requests=1 '
                                       'write=True',
                                       'queue_wait s0 0.0 0.375',
                                       'serve s1 0.0 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=True',
                                       'queue_wait s1 0.0 0.75',
                                       'serve s1 0.75 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=True',
                                       'queue_wait s1 0.0 1.5',
                                       'serve s0 0.375 1.5 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=True',
                                       'queue_wait s0 0.0 1.875',
                                       'serve s1 1.5 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=True',
                                       'serve s0 1.875 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=True',
                                       'queue_wait s1 0.0 2.25',
                                       'queue_wait s0 0.0 2.25',
                                       'serve s0 2.25 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=True',
                                       'queue_wait s0 0.75 1.875',
                                       'serve s1 2.25 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=True',
                                       'serve s0 2.625 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=False',
                                       'queue_wait s1 0.75 2.25',
                                       'queue_wait s0 1.875 1.125',
                                       'serve s0 3.0 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=False',
                                       'queue_wait s0 2.25 1.125',
                                       'serve s1 3.0 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=False',
                                       'serve s0 3.375 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=False',
                                       'queue_wait s1 1.875 1.875',
                                       'queue_wait s0 3.0 0.75',
                                       'serve s0 3.75 0.375 bytes=256 '
                                       'degradation=1.0 requests=1 '
                                       'write=False',
                                       'serve s1 3.75 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=False',
                                       'queue_wait s1 2.25 2.25',
                                       'serve s1 4.5 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=False',
                                       'queue_wait s1 3.0 2.25',
                                       'serve s1 5.25 0.75 bytes=256 '
                                       'degradation=2.0 requests=1 '
                                       'write=False']},
 'outage_while_queued': {'log': [('q0', 0, 'ok', '0.375'),
                                 ('q1', 0, 'ServerUnavailableError', '0.375'),
                                 ('q2', 0, 'ServerUnavailableError', '0.375'),
                                 ('q3', 0, 'ServerUnavailableError', '0.375'),
                                 ('wide',
                                  0,
                                  'ServerUnavailableError',
                                  '0.375'),
                                 ('during',
                                  0,
                                  'ServerUnavailableError',
                                  '0.5'),
                                 ('closing',
                                  0,
                                  'ServerUnavailableError',
                                  '1.0'),
                                 ('after', 0, 'ok', '1.4375')],
                         'now': '1.4375',
                         'server_stats': [(0, 512, 2),
                                          (1, 256, 1),
                                          (2, 256, 1),
                                          (3, 256, 1)],
                         'bytes': (512, 0),
                         'busy': ['0.5217391304347826',
                                  '0.2608695652173913',
                                  '0.2608695652173913',
                                  '0.2608695652173913'],
                         'peak_queue': [4, 0, 0, 0],
                         'nic_busy': [('0.2608695652173913', '0.0'),
                                      ('0.2608695652173913', '0.0'),
                                      ('0.43478260869565216', '0.0')],
                         'rejections': [6, 0, 0, 0],
                         'retries': (0, 0),
                         'spans': ['serve s0 0.0 0.375 bytes=256 '
                                   'degradation=1.0 requests=1 write=True',
                                   'queue_wait s0 0.0 0.375',
                                   'serve s1 0.25 0.375 bytes=256 '
                                   'degradation=1.0 requests=1 write=True',
                                   'serve s2 0.25 0.375 bytes=256 '
                                   'degradation=1.0 requests=1 write=True',
                                   'serve s3 0.25 0.375 bytes=256 '
                                   'degradation=1.0 requests=1 write=True',
                                   'serve s0 1.0625 0.375 bytes=256 '
                                   'degradation=1.0 requests=1 write=True']},
 'retry_timeout': {'log': [('c0', 0, 'ok', '3.125'),
                           ('c1', 0, 'ok', '3.5'),
                           ('c0', 1, 'ok', '4.875'),
                           ('c2', 0, 'ok', '5.25'),
                           ('c1', 1, 'IOAbandonedError', '9.25'),
                           ('late', 0, 'IOAbandonedError', '11.0'),
                           ('c2', 1, 'IOAbandonedError', '11.0')],
                   'now': '34.0',
                   'server_stats': [(0, 1536, 6),
                                    (1, 768, 3),
                                    (2, 0, 0),
                                    (3, 0, 0)],
                   'bytes': (1536, 256),
                   'busy': ['0.2647058823529412',
                            '0.04044117647058824',
                            '0.0',
                            '0.0'],
                   'peak_queue': [2, 2, 0, 0],
                   'nic_busy': [('0.007352941176470588',
                                 '0.003676470588235294'),
                                ('0.011029411764705883',
                                 '0.003676470588235294'),
                                ('0.007352941176470588',
                                 '0.003676470588235294')],
                   'rejections': [0, 6, 0, 0],
                   'retries': (24, 3),
                   'spans': ['serve s1 0.75 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=True',
                             'queue_wait s1 0.75 0.375',
                             'serve s1 1.125 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=True',
                             'queue_wait s1 0.75 0.75',
                             'serve s1 2.75 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=True',
                             'serve s0 2.75 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=True',
                             'queue_wait s0 2.75 0.375',
                             'serve s0 3.125 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=True',
                             'queue_wait s0 2.75 0.75',
                             'queue_wait s0 3.125 0.625',
                             'serve s0 3.75 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=False',
                             'queue_wait s0 3.5 0.625',
                             'serve s0 4.125 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=False',
                             'queue_wait s0 4.375 0.125',
                             'serve s0 4.5 0.375 bytes=256 degradation=1.0 '
                             'requests=1 write=False',
                             'queue_wait s0 4.75 0.125',
                             'serve s0 4.875 0.375 bytes=256 '
                             'degradation=64.0 requests=1 write=True',
                             'queue_wait s0 4.75 0.5',
                             'queue_wait s0 5.25 0.5',
                             'queue_wait s0 6.5 0.75',
                             'queue_wait s0 8.25 0.75']}}
