"""Callback holds against the processes they replace.

A :class:`~repro.sim.Hold` group started by :func:`~repro.sim.start_holds`
and joined by a :class:`~repro.sim.Countdown` must schedule exactly what
one process per hold joined by an ``AllOf`` schedules.  The differential
test drives both forms through the same seeded scenarios — many clients,
few slots, delays drawn from a few binary fractions so completions tie,
queued requests failed by ``fail_waiters``, and holds raced against a
timer and interrupted — and compares every logged step.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import (
    Countdown,
    Environment,
    Hold,
    Interrupt,
    Resource,
    SimulationError,
    start_holds,
)

DELAYS = (0.0, 0.25, 0.5, 0.75, 1.0)


class LoggedHold(Hold):
    __slots__ = ("delay", "log", "tag")

    def __init__(self, resource, delay, log, tag):
        super().__init__(resource)
        self.delay = delay
        self.log = log
        self.tag = tag

    def _granted(self):
        self.log.append(("grant", self.tag, self.env.now))
        return self.delay

    def _served(self):
        self.log.append(("served", self.tag, self.env.now))


def process_hold(env, resource, delay, log, tag):
    """The process form of :class:`LoggedHold`."""
    req = resource.request()
    try:
        yield req
        log.append(("grant", tag, env.now))
        yield env.sleep(delay)
        log.append(("served", tag, env.now))
    finally:
        resource.release(req)


def group(env, use_holds, specs, log):
    """Start one hold per ``(resource, delay, tag)`` spec; the join event."""
    if use_holds:
        holds = [LoggedHold(res, d, log, tag) for res, d, tag in specs]
        done = Countdown(env, len(holds))
        done.join(holds)
        start_holds(env, holds)
        return done
    return env.all_of(
        [env.process(process_hold(env, res, d, log, tag)) for res, d, tag in specs]
    )


def single(env, use_holds, resource, delay, log, tag):
    if use_holds:
        hold = LoggedHold(resource, delay, log, tag)
        start_holds(env, (hold,))
        return hold
    return env.process(process_hold(env, resource, delay, log, tag))


def scenario(seed, use_holds):
    rng = random.Random(seed)
    env = Environment()
    resources = [Resource(env, capacity=rng.choice((1, 1, 2))) for _ in range(3)]
    log: list = []

    def grouped_client(c):
        for i in range(rng.randint(1, 4)):
            yield env.timeout(rng.choice(DELAYS))
            specs = [
                (rng.choice(resources), rng.choice(DELAYS), f"c{c}.{i}.{k}")
                for k in range(rng.randint(1, 4))
            ]
            try:
                yield group(env, use_holds, specs, log)
            except RuntimeError as exc:
                log.append(("failed", c, i, str(exc), env.now))
                continue
            log.append(("done", c, i, env.now))

    def racing_client(c):
        for i in range(rng.randint(1, 3)):
            yield env.timeout(rng.choice(DELAYS))
            hold = single(env, use_holds, rng.choice(resources),
                          rng.choice(DELAYS[1:]), log, f"r{c}.{i}")
            timer = env.timeout(rng.choice(DELAYS[1:]))
            try:
                which, _ = yield env.any_of([hold, timer])
            except RuntimeError as exc:
                log.append(("rejected", c, i, str(exc), env.now))
                continue
            if which == 1 and hold.is_alive:
                hold.interrupt("late")
                log.append(("interrupted", c, i, env.now))
            else:
                log.append(("won", c, i, which, env.now))

    def chaos():
        for _ in range(3):
            yield env.timeout(rng.choice(DELAYS[1:]))
            res = rng.choice(resources)
            log.append(("fail_waiters", res.fail_waiters(RuntimeError("out")),
                        env.now))

    for c in range(rng.randint(3, 7)):
        if rng.random() < 0.3:
            env.process(racing_client(c))
        else:
            env.process(grouped_client(c))
    env.process(chaos())
    env.run()
    return log, env.now, [(r.utilization(), r.peak_queue_length) for r in resources]


@pytest.mark.parametrize("seed", range(40))
def test_holds_schedule_what_processes_schedule(seed):
    assert scenario(seed, use_holds=True) == scenario(seed, use_holds=False)


def test_start_is_deferred_to_one_urgent_start_event():
    env = Environment()
    res = Resource(env)
    log: list = []
    holds = [LoggedHold(res, 1.0, log, t) for t in "ab"]
    start_holds(env, holds)
    assert res.in_use == 0 and res.queue_length == 0  # nothing at spawn
    assert len(env._queue) == 1
    env.run()
    assert log == [
        ("grant", "a", 0.0), ("served", "a", 1.0),
        ("grant", "b", 1.0), ("served", "b", 2.0),
    ]


def test_joined_successes_push_one_completion():
    env = Environment()
    resources = [Resource(env) for _ in range(4)]
    holds = [LoggedHold(r, 1.0, [], i) for i, r in enumerate(resources)]
    done = Countdown(env, len(holds))
    done.join(holds)
    start_holds(env, holds)
    seq0 = env._seq
    env.run()
    # per hold: grant and sleep; then one completion and the countdown
    assert env._seq - seq0 == 2 * len(holds) + 2
    assert done.ok and done.value is None


def test_interrupt_releases_at_the_carrier_and_fails_with_interrupt():
    env = Environment()
    res = Resource(env)
    log: list = []
    first = LoggedHold(res, 10.0, log, "first")
    queued = LoggedHold(res, 1.0, log, "queued")
    start_holds(env, (first, queued))
    outcome = {}

    def waiter(hold):
        try:
            yield hold
        except Interrupt as exc:
            outcome[hold.tag] = (exc.cause, env.now)

    def canceller():
        yield env.timeout(2.0)
        queued.interrupt("stop")
        first.interrupt("stop")
        assert res.in_use == 1  # released only when the carrier runs

    env.process(waiter(first))
    env.process(waiter(queued))
    env.process(canceller())
    env.run()
    assert outcome == {"first": ("stop", 2.0), "queued": ("stop", 2.0)}
    assert log == [("grant", "first", 0.0)]
    assert res.in_use == 0 and res.queue_length == 0
    with pytest.raises(SimulationError):
        first.interrupt("again")


def test_unjoined_failure_surfaces_as_a_crash():
    env = Environment()
    res = Resource(env)
    start_holds(env, (LoggedHold(res, 1.0, [], "a"),
                      LoggedHold(res, 1.0, [], "b")))

    def outage():
        yield env.timeout(0.5)
        res.fail_waiters(RuntimeError("down"))

    env.process(outage())
    with pytest.raises(SimulationError, match="down"):
        env.run()
