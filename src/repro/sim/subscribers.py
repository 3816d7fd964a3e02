"""A callback registry that does not keep its subscribers alive.

Platform objects publish events to whoever is interested: the lease
ledger to engines and plan caches, a fault injector to the engines it
drives, an engine to its persistent handles.  A registry that held those
subscribers strongly would tie every subscriber's lifetime to the
publisher's and, since subscribers usually refer to the publisher, form a
reference cycle that only the cyclic collector can reclaim.

:class:`Subscribers` holds bound methods weakly — a subscriber object
that dies simply stops being notified, and its entry is pruned on the
next notification — and every other callable (plain functions, lambdas,
builtin methods such as ``list.append``) strongly, since nothing else may
be keeping those alive.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable
from weakref import WeakMethod

__all__ = ["Subscribers"]


class Subscribers:
    """Ordered callbacks; bound methods held weakly, others strongly.

    Callbacks fire in subscription order.  A callback may subscribe or
    unsubscribe during a notification; the change applies from the next
    notification on.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        #: ``(weak, ref)`` pairs: ``ref`` is a :class:`~weakref.WeakMethod`
        #: when ``weak``, else the callable itself.
        self._entries: list[tuple[bool, Callable]] = []

    def add(self, fn: Callable) -> None:
        """Subscribe `fn`."""
        if isinstance(fn, MethodType):
            self._entries.append((True, WeakMethod(fn)))
        else:
            self._entries.append((False, fn))

    def remove(self, fn: Callable) -> None:
        """Unsubscribe the first entry equal to `fn`; no-op if absent."""
        for i, entry in enumerate(self._entries):
            if _resolve(entry) == fn:
                del self._entries[i]
                return

    def notify(self, *args) -> None:
        """Call every live subscriber with `args`; prune dead ones."""
        dead = False
        for entry in tuple(self._entries):
            fn = _resolve(entry)
            if fn is None:
                dead = True
            else:
                fn(*args)
        if dead:
            self._entries = [e for e in self._entries if _resolve(e) is not None]

    def __contains__(self, fn: Callable) -> bool:
        return any(_resolve(entry) == fn for entry in self._entries)


def _resolve(entry: tuple[bool, Callable]):
    weak, ref = entry
    return ref() if weak else ref
