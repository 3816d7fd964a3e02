"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.obs import Tracer
from repro.sim import Environment, Interrupt, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [2.5]
    assert env.now == 2.5


def test_zero_timeout_runs_same_time():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0)
        order.append(tag)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert order == ["a", "b"]
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_ordered_by_time_then_sequence():
    env = Environment()
    order = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        order.append((env.now, tag))

    env.process(proc(env, "late", 5))
    env.process(proc(env, "early", 1))
    env.process(proc(env, "tie1", 3))
    env.process(proc(env, "tie2", 3))
    env.run()
    assert order == [(1, "early"), (3, "tie1"), (3, "tie2"), (5, "late")]


def test_process_join_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    p = env.process(parent(env))
    env.run()
    assert p.value == 84
    assert env.now == 1


def test_join_already_finished_process():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env, ch):
        yield env.timeout(5)
        value = yield ch  # child finished long ago
        results.append((env.now, value))

    ch = env.process(child(env))
    env.process(parent(env, ch))
    env.run()
    assert results == [(5, "done")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    got = []

    def waiter(env, ev):
        value = yield ev
        got.append((env.now, value))

    def firer(env, ev):
        yield env.timeout(3)
        ev.succeed("payload")

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert got == [(3, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("kaput")

    env.process(bad(env))
    with pytest.raises(SimulationError, match="kaput"):
        env.run()


def test_joined_process_exception_propagates_to_parent_only():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise ValueError("kaput")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["kaput"]


def test_all_of_collects_values():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        procs = [env.process(child(env, d, v)) for d, v in [(3, "a"), (1, "b")]]
        values = yield env.all_of(procs)
        return (env.now, values)

    p = env.process(parent(env))
    env.run()
    assert p.value == (3, ["a", "b"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def parent(env):
        values = yield env.all_of([])
        return (env.now, values)

    p = env.process(parent(env))
    env.run()
    assert p.value == (0.0, [])


def test_any_of_returns_first():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        procs = [env.process(child(env, d, v)) for d, v in [(3, "slow"), (1, "fast")]]
        index, value = yield env.any_of(procs)
        return (env.now, index, value)

    p = env.process(parent(env))
    env.run()
    assert p.value == (1, 1, "fast")


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"
    assert env.now == 4


def test_run_until_event_deadlock_detected():
    env = Environment()
    ev = env.event()  # never triggered

    def waiter(env, ev):
        yield ev

    env.process(waiter(env, ev))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_interrupt_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 2, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_determinism_same_program_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def proc(env, tag, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((env.now, tag, i))

        for tag, delay in [("x", 1.0), ("y", 1.5), ("z", 1.0)]:
            env.process(proc(env, tag, delay))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


# ---------------------------------------------------------------------------
# pooled-sleep waiter fast path
# ---------------------------------------------------------------------------
def test_interrupt_during_pooled_sleep():
    """Interrupting a sleeper detaches the waiter; the sleep fires inert."""
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.sleep(100)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))
        # the process must remain fully usable after the interrupt
        yield env.sleep(1)
        log.append(("resumed", env.now))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    # the detached 100s sleep fired at t=100 without resuming anyone
    assert env.now == 100
    assert log == [("interrupted", 2, "wake up"), ("resumed", 3)]


def test_non_event_yield_after_sleep_is_error():
    """The sleep-resume fast path still rejects non-event yields."""
    env = Environment()

    def bad(env):
        yield env.sleep(1)
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_exception_after_sleep_propagates_to_joiner():
    env = Environment()

    def crasher(env):
        yield env.sleep(1)
        raise RuntimeError("boom")

    def joiner(env, p):
        try:
            yield p
        except RuntimeError as exc:
            return str(exc)

    p = env.process(crasher(env))
    j = env.process(joiner(env, p))
    env.run()
    assert j.value == "boom"


def test_exception_after_sleep_without_joiner_crashes_run():
    env = Environment()

    def crasher(env):
        yield env.sleep(1)
        raise RuntimeError("boom")

    env.process(crasher(env))
    with pytest.raises(SimulationError, match="crashed"):
        env.run()


def test_sleep_then_join_finished_process():
    """A processed event yielded right after a sleep resumes immediately."""
    env = Environment()

    def quick(env):
        yield env.timeout(1)
        return "done"

    def waiter(env, p):
        yield env.sleep(5)  # p finishes (and is processed) meanwhile
        got = yield p
        return (env.now, got)

    p = env.process(quick(env))
    w = env.process(waiter(env, p))
    env.run()
    assert w.value == (5.0, "done")


# ---------------------------------------------------------------------------
# the collector pause of Environment.run, and failures freed by refcount
# ---------------------------------------------------------------------------


@pytest.fixture
def collector_on():
    """Start with the cyclic collector enabled; leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _recorder(env, seen):
    def proc():
        seen.append(gc.isenabled())
        yield env.timeout(1)
        seen.append(gc.isenabled())

    return env.process(proc())


def _crasher(env):
    def proc():
        yield env.timeout(1)
        raise RuntimeError("boom")

    return env.process(proc())


@pytest.mark.parametrize("traced", [False, True])
def test_run_pauses_the_collector_and_restores_it(collector_on, traced):
    env = Environment()
    if traced:
        Tracer().install(env)
    seen: list = []
    _recorder(env, seen)
    env.run()
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("traced", [False, True])
def test_collector_restored_after_a_crash(collector_on, traced):
    env = Environment()
    if traced:
        Tracer().install(env)
    _crasher(env)
    with pytest.raises(SimulationError, match="crashed"):
        env.run()
    assert gc.isenabled()


def test_collector_restored_when_a_run_stops_early(collector_on):
    env = Environment()
    seen: list = []
    _recorder(env, seen)
    env.run(until=0.5)
    assert env._queue, "the run stopped with events still queued"
    assert seen == [False] and gc.isenabled()
    stop = env.timeout(0.25)
    env.run(until=stop)
    assert env._queue and gc.isenabled()
    env.run()
    assert seen == [False, False] and gc.isenabled()


def test_collector_left_off_when_off_at_entry(collector_on):
    gc.disable()
    env = Environment()
    seen: list = []
    _recorder(env, seen)
    env.run()
    assert seen == [False, False]
    assert not gc.isenabled()
    _crasher(env)
    with pytest.raises(SimulationError):
        env.run()
    assert not gc.isenabled()


def test_nested_run_keeps_the_outer_pause(collector_on):
    outer, inner = Environment(), Environment()
    seen: list = []

    def nested_run(_event):
        _recorder(inner, seen)
        inner.run()
        seen.append(gc.isenabled())

    _recorder(outer, seen)
    outer.timeout(0.5).callbacks.append(nested_run)
    outer.run()
    # outer start, inner process (twice), after the inner run, outer end
    assert seen == [False] * 5
    assert gc.isenabled()


def test_shared_exception_keeps_no_waiter_frame():
    """An event's exception comes back from every waiter it was thrown
    into with the traceback it had when the event failed."""
    env = Environment()
    event = env.event()
    exc = RuntimeError("shared")
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as err:
            caught.append(err)

    for _ in range(3):
        env.process(waiter())
    event.fail(exc)
    env.run()
    assert len(caught) == 3 and all(err is exc for err in caught)
    assert exc.__traceback__ is None


def test_joined_failure_is_freed_by_refcount():
    """A process that fails and the joiner that catches its exception
    leave no cycle: the environment dies with its last reference."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env = Environment()
        caught = []

        def joiner():
            try:
                yield _crasher(env)
            except RuntimeError as err:
                caught.append(err)

        env.process(joiner())
        env.run()
        assert [str(err) for err in caught] == ["boom"]
        del caught
        ref = weakref.ref(env)
        del env
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_crash_report_keeps_the_raising_frame():
    env = Environment()
    _crasher(env)
    with pytest.raises(SimulationError) as info:
        env.run()
    cause = info.value.__cause__
    tb = cause.__traceback__
    names = []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names == ["proc"]
