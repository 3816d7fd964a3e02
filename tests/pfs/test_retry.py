"""PFS client retry policy and degraded-path timing."""

import random

import pytest

from repro.core.request import Extent
from repro.pfs import RetryPolicy
from repro.pfs.filesystem import IOAbandonedError, _Deadline

from tests.helpers import make_stack
from tests.pfs.test_service_order import platform


class TestPolicyValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(request_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_backoff_doubles_then_caps(self):
        p = RetryPolicy(backoff_base=0.01, backoff_cap=0.05)
        assert p.backoff(1) == pytest.approx(0.01)
        assert p.backoff(2) == pytest.approx(0.02)
        assert p.backoff(3) == pytest.approx(0.04)
        assert p.backoff(4) == pytest.approx(0.05)
        assert p.backoff(10) == pytest.approx(0.05)


def timed_write(stack, nbytes=4096, start=0.0):
    """Run one extent write from node 0, returning (t_start, t_end)."""
    times = {}

    def client(env):
        if start:
            yield env.timeout(start)
        times["start"] = env.now
        yield from stack.pfs.write_extent(
            stack.cluster.nodes[0], Extent(0, nbytes)
        )
        times["end"] = env.now

    stack.env.process(client(stack.env))
    stack.env.run()
    return times


class TestRetry:
    POLICY = RetryPolicy(
        request_timeout=30.0, backoff_base=0.01, backoff_cap=0.1,
        max_retries=20,
    )

    def test_neutral_without_faults(self):
        plain = make_stack(with_data=False)
        t_plain = timed_write(plain)
        retried = make_stack(with_data=False)
        retried.pfs.retry = self.POLICY
        t_retried = timed_write(retried)
        assert t_retried == t_plain
        assert retried.pfs.io_retries == 0

    def test_outage_window_absorbed(self):
        stack = make_stack(with_data=False)
        stack.pfs.retry = self.POLICY
        for server in stack.pfs.servers:
            server.begin_outage()

        def lift(env):
            yield env.timeout(0.5)
            for server in stack.pfs.servers:
                server.end_outage()

        stack.env.process(lift(stack.env))
        times = timed_write(stack)
        assert times["end"] >= 0.5  # could not finish inside the outage
        assert stack.pfs.io_retries > 0
        assert stack.pfs.io_abandons == 0

    def test_permanent_outage_abandons(self):
        stack = make_stack(with_data=False)
        stack.pfs.retry = RetryPolicy(
            request_timeout=30.0, backoff_base=0.01, backoff_cap=0.1,
            max_retries=3,
        )
        for server in stack.pfs.servers:
            server.begin_outage()
        raised = []

        def client(env):
            try:
                yield from stack.pfs.write_extent(
                    stack.cluster.nodes[0], Extent(0, 4096)
                )
            except IOAbandonedError as exc:
                raised.append(exc)

        stack.env.process(client(stack.env))
        stack.env.run()
        assert raised and raised[0].attempts == 4
        assert stack.pfs.io_abandons >= 1

    def test_without_policy_outage_fails_fast(self):
        from repro.pfs.server import ServerUnavailableError

        stack = make_stack(with_data=False)
        stack.pfs.servers[0].begin_outage()
        raised = []

        def client(env):
            try:
                yield from stack.pfs.write_extent(
                    stack.cluster.nodes[0], Extent(0, 4096)
                )
            except ServerUnavailableError as exc:
                raised.append(exc)

        stack.env.process(client(stack.env))
        stack.env.run()
        assert len(raised) == 1


class TestFailedClientNic:
    def test_failed_node_slows_storage_injection(self):
        """Storage traffic rides the client's NIC, so a fenced NIC slows
        PFS writes just like rank-to-rank messages."""
        healthy = make_stack(with_data=False)
        t_healthy = timed_write(healthy, nbytes=10**6)
        failed = make_stack(with_data=False)
        failed.cluster.nodes[0].fail(16.0)
        t_failed = timed_write(failed, nbytes=10**6)
        d_healthy = t_healthy["end"] - t_healthy["start"]
        d_failed = t_failed["end"] - t_failed["start"]
        assert d_failed > d_healthy


# ---------------------------------------------------------------------------
# the retry race against the AnyOf it replaced
# ---------------------------------------------------------------------------

RACE_DELAYS = (0.125, 0.25, 0.5, 0.75, 1.0)


def race_scenario(seed, use_deadline):
    """Clients race server requests against timers while servers slow
    down and go out; returns every logged outcome with its instant."""
    rng = random.Random(seed)
    env, _cluster, pfs = platform()
    servers = pfs.servers
    log: list = []

    def race(request, timeout):
        if use_deadline:
            served = yield _Deadline(env, request, timeout)
            return served
        which, _ = yield env.any_of([request, env.timeout(timeout)])
        return which == 0

    def client(c):
        for i in range(rng.randint(1, 4)):
            yield env.timeout(rng.choice(RACE_DELAYS))
            server = rng.choice(servers)
            request = server.submit(rng.choice((128, 256, 512)), write=True)
            try:
                served = yield from race(request, rng.choice(RACE_DELAYS))
            except RuntimeError as exc:
                log.append(("rejected", c, i, type(exc).__name__, env.now))
                continue
            if not served and request.is_alive:
                request.interrupt("timeout")
            log.append(("served" if served else "late", c, i, env.now))

    def chaos():
        for _ in range(4):
            yield env.timeout(rng.choice(RACE_DELAYS))
            server = rng.choice(servers)
            if rng.random() < 0.5:
                server.begin_outage()
                log.append(("outage", server.server_id, env.now))
                yield env.timeout(rng.choice(RACE_DELAYS))
                server.end_outage()
            else:
                server.set_degradation(rng.choice((1.0, 4.0, 16.0)))

    for c in range(rng.randint(3, 8)):
        env.process(client(c))
    env.process(chaos())
    env.run()
    return log, repr(env.now), pfs.server_stats(), [
        (repr(s.queue.utilization()), s.outage_rejections) for s in servers
    ]


@pytest.mark.parametrize("seed", range(30))
def test_deadline_schedules_what_any_of_schedules(seed):
    assert race_scenario(seed, use_deadline=True) == race_scenario(
        seed, use_deadline=False
    )
