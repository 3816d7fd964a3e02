"""Tests for the weak-subscriber registry behind every platform listener."""

import gc
import weakref

import pytest

from repro.sim.subscribers import Subscribers


class Listener:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def on_event(self, *args):
        self.log.append((self.tag, args))


@pytest.fixture
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_notifies_in_subscription_order():
    log = []
    subs = Subscribers()
    a, b = Listener(log, "a"), Listener(log, "b")
    subs.add(b.on_event)
    subs.add(lambda *args: log.append(("fn", args)))
    subs.add(a.on_event)
    subs.notify(1, "x")
    assert log == [("b", (1, "x")), ("fn", (1, "x")), ("a", (1, "x"))]


def test_bound_methods_are_held_weakly(no_gc):
    log = []
    subs = Subscribers()
    listener = Listener(log, "a")
    ref = weakref.ref(listener)
    subs.add(listener.on_event)
    del listener
    assert ref() is None


def test_dead_subscriber_is_skipped_and_pruned(no_gc):
    log = []
    subs = Subscribers()
    keep, drop = Listener(log, "keep"), Listener(log, "drop")
    subs.add(drop.on_event)
    subs.add(keep.on_event)
    del drop
    assert len(subs._entries) == 2
    subs.notify("e")
    assert log == [("keep", ("e",))]
    assert len(subs._entries) == 1
    assert keep.on_event in subs


def test_remove_bound_method():
    log = []
    subs = Subscribers()
    listener = Listener(log, "a")
    subs.add(listener.on_event)
    assert listener.on_event in subs
    subs.remove(listener.on_event)  # a fresh bound-method object
    assert listener.on_event not in subs
    subs.notify("e")
    assert log == []
    subs.remove(listener.on_event)  # absent: no-op


def test_plain_and_builtin_callables_are_held_strongly(no_gc):
    hits = []
    subs = Subscribers()
    subs.add(hits.append)
    subs.add(lambda reason: hits.append(("lambda", reason)))
    gc.collect()
    subs.notify("r")
    assert hits == ["r", ("lambda", "r")]
    subs.remove(hits.append)
    subs.notify("s")
    assert hits == ["r", ("lambda", "r"), ("lambda", "s")]


def test_unsubscribing_during_notify_applies_next_time():
    log = []
    subs = Subscribers()
    listener = Listener(log, "a")

    def leave(*args):
        subs.remove(leave)
        log.append("leave")

    subs.add(leave)
    subs.add(listener.on_event)
    subs.notify()
    subs.notify()
    assert log == ["leave", ("a", ()), ("a", ())]
