"""Unit tests for Resource and Container."""

import pytest

from repro.sim import Container, Environment, Resource, SimulationError


def make_user(env, res, log, tag, hold):
    def proc(env):
        req = res.request()
        yield req
        log.append(("acq", tag, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("rel", tag, env.now))

    return proc(env)


def test_resource_serializes_beyond_capacity():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    env.process(make_user(env, res, log, "a", 2))
    env.process(make_user(env, res, log, "b", 2))
    env.run()
    assert log == [("acq", "a", 0), ("rel", "a", 2), ("acq", "b", 2), ("rel", "b", 4)]


def test_resource_capacity_two_overlaps():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []
    for tag in ["a", "b", "c"]:
        env.process(make_user(env, res, log, tag, 2))
    env.run()
    acquires = [(t, time) for kind, t, time in log if kind == "acq"]
    assert acquires == [("a", 0), ("b", 0), ("c", 2)]
    assert env.now == 4


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, tag, arrive):
        yield env.timeout(arrive)
        req = res.request()
        yield req
        log.append(tag)
        yield env.timeout(1)
        res.release(req)

    # all arrive while the first holds the resource
    env.process(user(env, "first", 0))
    for i in range(5):
        env.process(user(env, f"w{i}", 0.1 * (i + 1)))
    env.run()
    assert log == ["first", "w0", "w1", "w2", "w3", "w4"]


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def canceller(env):
        yield env.timeout(1)
        req = res.request()  # queued behind holder
        res.release(req)  # cancel without ever acquiring
        log.append("cancelled")

    env.process(holder(env))
    env.process(canceller(env))
    env.run()
    assert log == ["cancelled"]
    assert res.queue_length == 0


def test_resource_release_unknown_raises():
    env = Environment()
    res1 = Resource(env, capacity=1)
    res2 = Resource(env, capacity=1)
    req = res1.request()
    with pytest.raises(SimulationError):
        res2.release(req)


def test_resource_rejects_bad_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_utilization_tracks_busy_time():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    env.process(make_user(env, res, log, "a", 4))
    env.run()
    env._now = 8.0  # half the horizon busy
    assert res.utilization() == pytest.approx(0.5)


def test_resource_peak_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    for tag in "abcd":
        env.process(make_user(env, res, log, tag, 1))
    env.run()
    assert res.peak_queue_length == 3


def test_container_get_blocks_until_put():
    env = Environment()
    box = Container(env, capacity=100, init=0)
    log = []

    def getter(env):
        yield box.get(10)
        log.append(("got", env.now))

    def putter(env):
        yield env.timeout(5)
        yield box.put(10)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert log == [("got", 5)]
    assert box.level == 0


def test_container_put_blocks_at_capacity():
    env = Environment()
    box = Container(env, capacity=10, init=10)
    log = []

    def putter(env):
        yield box.put(5)
        log.append(("put", env.now))

    def getter(env):
        yield env.timeout(3)
        yield box.get(5)

    env.process(putter(env))
    env.process(getter(env))
    env.run()
    assert log == [("put", 3)]
    assert box.level == 10


def test_container_fifo_no_overtaking():
    env = Environment()
    box = Container(env, capacity=100, init=0)
    log = []

    def getter(env, tag, amount, arrive):
        yield env.timeout(arrive)
        yield box.get(amount)
        log.append(tag)

    def putter(env):
        yield env.timeout(1)
        yield box.put(5)  # enough for "small" but "big" is ahead
        yield env.timeout(1)
        yield box.put(50)

    env.process(getter(env, "big", 40, 0.1))
    env.process(getter(env, "small", 5, 0.2))
    env.process(putter(env))
    env.run()
    assert log == ["big", "small"]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=10, init=20)
    box = Container(env, capacity=10)
    with pytest.raises(ValueError):
        box.get(-1)
    with pytest.raises(ValueError):
        box.put(-1)


def test_container_immediate_when_available():
    env = Environment()
    box = Container(env, capacity=10, init=10)

    def proc(env):
        yield box.get(4)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0
    assert box.level == 6


@pytest.mark.parametrize("initial_time", [0.0, 5.0])
def test_resource_utilization_counts_from_creation(initial_time):
    env = Environment(initial_time=initial_time)
    log = []

    def late(env):
        yield env.timeout(5.0)
        res = Resource(env, capacity=1)  # created at initial_time + 5
        yield env.process(make_user(env, res, log, "a", 4))
        yield env.timeout(4.0)
        return res

    proc = env.process(late(env))
    env.run()
    assert env.now == initial_time + 13.0
    # busy 4 s of the 8 s the resource has existed
    assert proc.value.utilization() == pytest.approx(0.5)


def test_finished_environment_leaves_no_cyclic_garbage():
    import gc

    def user(env, res):
        for _ in range(3):
            req = res.request()
            yield req
            yield env.sleep(1.0)
            res.release(req)

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        res = Resource(env, capacity=1)
        for _ in range(3):
            env.process(user(env, res))
        env.run()
        del env, res
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__.startswith("repro.")]
        assert leaked == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
